#include "plbhec/sim/machine.hpp"

#include "plbhec/common/contracts.hpp"
#include "plbhec/common/table.hpp"

namespace plbhec::sim {
namespace {

UnitConfig make_cpu_unit(const std::string& machine, CpuModel::Params p) {
  UnitConfig u;
  u.name = machine + ".cpu";
  u.device = std::make_shared<CpuModel>(std::move(p));
  u.path = gigabit_ethernet().then(local_memory_bus());
  return u;
}

UnitConfig make_gpu_unit(const std::string& machine, int index,
                         GpuModel::Params p, const LinkModel& pcie) {
  UnitConfig u;
  u.name = machine + ".gpu" + std::to_string(index);
  u.device = std::make_shared<GpuModel>(std::move(p));
  u.path = gigabit_ethernet().then(pcie);
  return u;
}

}  // namespace

MachineConfig machine_a() {
  MachineConfig m{
      .name = "A",
      .cpu_info = "Intel Xeon E5-2690V2, 10 cores @ 3.0 GHz, 25 MB cache",
      .gpu_info = "Tesla K20c, 2496 cores / 13 SMs, 205 GB/s, 6 GB",
      .units = {}};
  m.units.push_back(make_cpu_unit(
      m.name, {.name = "Xeon E5-2690V2",
               .cores = 10,
               .clock_ghz = 3.0,
               .flops_per_core_per_cycle = 16.0,  // AVX, add+mul ports
               .mem_bandwidth_bps = 50e9,
               .dispatch_overhead_s = 8e-6}));
  m.units.push_back(make_gpu_unit(
      m.name, 0,
      {.name = "Tesla K20c",
       .cores = 2496,
       .sm_count = 13,
       .resident_threads_per_sm = 2048,
       .clock_ghz = 0.706,
       .mem_bandwidth_bps = 205e9,
       .launch_overhead_s = 25e-6},
      pcie3_x16()));
  return m;
}

MachineConfig machine_b(bool dual_gpu_boards) {
  MachineConfig m{
      .name = "B",
      .cpu_info = "Intel i7-920, 4 cores @ 2.67 GHz, 8 MB cache",
      .gpu_info = "GTX 295, 2 x 240 cores / 30 SMs, 223.8 GB/s, 896 MB",
      .units = {}};
  m.units.push_back(make_cpu_unit(
      m.name, {.name = "i7-920",
               .cores = 4,
               .clock_ghz = 2.67,
               .flops_per_core_per_cycle = 8.0,  // SSE
               .mem_bandwidth_bps = 25e9,
               .dispatch_overhead_s = 10e-6}));
  // GTX 295: Tesla microarchitecture -- 1024 resident threads/SM, no cache,
  // high launch cost. Each half: 240 cores / 15 SMs.
  const GpuModel::Params half = {.name = "GTX 295 (half)",
                                 .cores = 240,
                                 .sm_count = 15,
                                 .resident_threads_per_sm = 1024,
                                 .clock_ghz = 1.242,
                                 .mem_bandwidth_bps = 111.9e9,
                                 .launch_overhead_s = 45e-6};
  const int gpus = dual_gpu_boards ? 2 : 1;
  for (int g = 0; g < gpus; ++g)
    m.units.push_back(make_gpu_unit(m.name, g, half, pcie2_x16()));
  return m;
}

MachineConfig machine_c(bool dual_gpu_boards) {
  MachineConfig m{
      .name = "C",
      .cpu_info = "Intel i7-4930K, 6 cores @ 3.4 GHz, 12 MB cache",
      .gpu_info = "GTX 680, 2 x 1536 cores / 8 SMs, 192.2 GB/s, 2 GB",
      .units = {}};
  m.units.push_back(make_cpu_unit(
      m.name, {.name = "i7-4930K",
               .cores = 6,
               .clock_ghz = 3.4,
               .flops_per_core_per_cycle = 16.0,
               .mem_bandwidth_bps = 40e9,
               .dispatch_overhead_s = 8e-6}));
  const GpuModel::Params gpu = {.name = "GTX 680",
                                .cores = 1536,
                                .sm_count = 8,
                                .resident_threads_per_sm = 2048,
                                .clock_ghz = 1.058,
                                .mem_bandwidth_bps = 192.2e9,
                                .launch_overhead_s = 30e-6};
  const int gpus = dual_gpu_boards ? 2 : 1;
  for (int g = 0; g < gpus; ++g)
    m.units.push_back(make_gpu_unit(m.name, g, gpu, pcie3_x16()));
  return m;
}

MachineConfig machine_d() {
  MachineConfig m{
      .name = "D",
      .cpu_info = "Intel i7-3930K, 6 cores @ 3.2 GHz, 12 MB cache",
      .gpu_info = "GTX Titan, 2688 cores / 14 SMs, 223.8 GB/s, 6 GB",
      .units = {}};
  m.units.push_back(make_cpu_unit(
      m.name, {.name = "i7-3930K",
               .cores = 6,
               .clock_ghz = 3.2,
               .flops_per_core_per_cycle = 16.0,
               .mem_bandwidth_bps = 40e9,
               .dispatch_overhead_s = 8e-6}));
  m.units.push_back(make_gpu_unit(
      m.name, 0,
      {.name = "GTX Titan",
       .cores = 2688,
       .sm_count = 14,
       .resident_threads_per_sm = 2048,
       .clock_ghz = 0.837,
       .mem_bandwidth_bps = 223.8e9,
       .launch_overhead_s = 25e-6},
      pcie3_x16()));
  return m;
}

std::vector<MachineConfig> scenario(std::size_t machines,
                                    bool dual_gpu_boards) {
  PLBHEC_EXPECTS(machines >= 1 && machines <= 4);
  std::vector<MachineConfig> result;
  result.push_back(machine_a());
  if (machines >= 2) result.push_back(machine_b(dual_gpu_boards));
  if (machines >= 3) result.push_back(machine_c(dual_gpu_boards));
  if (machines >= 4) result.push_back(machine_d());
  return result;
}

std::string table1_string(const std::vector<MachineConfig>& machines) {
  Table t({"Machine", "CPU", "GPU", "Units"});
  for (const auto& m : machines) {
    t.row()
        .add(m.name)
        .add(m.cpu_info)
        .add(m.gpu_info)
        .add(std::to_string(m.units.size()));
  }
  return t.render();
}

}  // namespace plbhec::sim
