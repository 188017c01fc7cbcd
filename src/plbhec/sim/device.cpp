#include "plbhec/sim/device.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "plbhec/common/contracts.hpp"

namespace plbhec::sim {

GpuModel::GpuModel(Params p) : params_(std::move(p)) {
  PLBHEC_EXPECTS(params_.cores > 0);
  PLBHEC_EXPECTS(params_.sm_count > 0);
  PLBHEC_EXPECTS(params_.clock_ghz > 0.0);
}

std::string GpuModel::description() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s (%zu cores / %zu SMs @ %.2f GHz)",
                params_.name.c_str(), params_.cores, params_.sm_count,
                params_.clock_ghz);
  return buf;
}

double GpuModel::peak_flops() const {
  return static_cast<double>(params_.cores) * params_.clock_ghz * 1e9 *
         params_.flops_per_core_per_cycle;
}

double GpuModel::execution_seconds(const WorkloadProfile& w,
                                   double grains) const {
  return execution_seconds(w, grains, 1.0);
}

double GpuModel::execution_seconds(const WorkloadProfile& w, double grains,
                                   double speed_factor) const {
  PLBHEC_EXPECTS(grains >= 0.0);
  PLBHEC_EXPECTS(speed_factor > 0.0);
  if (grains == 0.0) return 0.0;

  const double threads = grains * w.gpu_threads_per_grain;
  const double capacity = static_cast<double>(
      params_.sm_count * params_.resident_threads_per_sm);
  const double waves = std::ceil(threads / capacity);
  // The speed factor throttles the arithmetic rate (clock, contended
  // cores) and stretches the launch/warmup overheads with it; the memory
  // roof below deliberately stays at full bandwidth (see DeviceModel).
  const double effective_rate =
      peak_flops() * w.gpu_efficiency * speed_factor;

  // Full-wave charge: a partially filled wave occupies every SM for the
  // duration of its slowest thread, so the idle lanes are paid for. This
  // makes small-block time flat within a wave and quantized across waves —
  // and is non-decreasing in the block size by construction.
  const double flops_per_thread =
      w.flops_per_grain / std::max(w.gpu_threads_per_grain, 1e-300);
  const double compute_s =
      waves * capacity * flops_per_thread / effective_rate;
  const double memory_s =
      grains * w.device_bytes_per_grain / params_.mem_bandwidth_bps;

  // Pipeline/tiling warmup: kernels approach peak only on large blocks
  // (tile quantization, epilogue overheads, wave load imbalance). Modeled
  // as an additive saturating cost worth ~`saturation_grains` of work, so
  // small blocks pay a disproportionate share and the curve stays
  // monotone.
  double warmup_s = 0.0;
  if (w.gpu_saturation_grains > 0.0) {
    const double full_warmup =
        w.gpu_saturation_grains * w.flops_per_grain / effective_rate;
    warmup_s = full_warmup * grains / (grains + w.gpu_saturation_grains);
  }

  return params_.launch_overhead_s / speed_factor +
         std::max(compute_s, memory_s) + warmup_s;
}

CpuModel::CpuModel(Params p) : params_(std::move(p)) {
  PLBHEC_EXPECTS(params_.cores > 0);
  PLBHEC_EXPECTS(params_.clock_ghz > 0.0);
}

std::string CpuModel::description() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s (%zu cores @ %.2f GHz)",
                params_.name.c_str(), params_.cores, params_.clock_ghz);
  return buf;
}

double CpuModel::peak_flops() const {
  return static_cast<double>(params_.cores) * params_.clock_ghz * 1e9 *
         params_.flops_per_core_per_cycle;
}

double CpuModel::execution_seconds(const WorkloadProfile& w,
                                   double grains) const {
  return execution_seconds(w, grains, 1.0);
}

double CpuModel::execution_seconds(const WorkloadProfile& w, double grains,
                                   double speed_factor) const {
  PLBHEC_EXPECTS(grains >= 0.0);
  PLBHEC_EXPECTS(speed_factor > 0.0);
  if (grains == 0.0) return 0.0;

  const double cores = static_cast<double>(params_.cores);
  const double p = std::clamp(w.cpu_parallel_fraction, 0.0, 1.0);
  const double speedup = 1.0 / ((1.0 - p) + p / cores);
  const double single_core_flops =
      params_.clock_ghz * 1e9 * params_.flops_per_core_per_cycle;

  const double flops = grains * w.flops_per_grain;
  // As in GpuModel: speed throttles arithmetic and overhead, not the
  // memory roof.
  const double compute_s =
      flops / (single_core_flops * speedup * w.cpu_efficiency * speed_factor);
  const double memory_s =
      grains * w.device_bytes_per_grain / params_.mem_bandwidth_bps;

  return params_.dispatch_overhead_s / speed_factor +
         std::max(compute_s, memory_s);
}

}  // namespace plbhec::sim
