#pragma once
/// \file device.hpp
/// Analytic performance models for the simulated processing units. The
/// models are deliberately *not* of the fitted form used by PLB-HeC: the
/// GPU model quantizes work into SM waves and has saturating efficiency,
/// so the load balancer has to genuinely learn the curve from samples.

#include <memory>
#include <string>

#include "plbhec/sim/workload_profile.hpp"

namespace plbhec::sim {

enum class DeviceKind { kCpu, kGpu };

/// Base class for per-device timing models.
class DeviceModel {
 public:
  virtual ~DeviceModel() = default;

  [[nodiscard]] virtual DeviceKind kind() const = 0;
  [[nodiscard]] virtual std::string description() const = 0;

  /// Noise-free seconds to process `grains` grains of workload `w`.
  [[nodiscard]] virtual double execution_seconds(const WorkloadProfile& w,
                                                 double grains) const = 0;

  /// Noise-free seconds with a unit speed factor applied (chaos slowdowns,
  /// heterogeneous unit scaling). The factor models the unit's *compute*
  /// capability — clock throttling, co-tenant core stealing — so it scales
  /// the arithmetic and overhead terms but NOT the memory roof: halving a
  /// unit's compute speed does not halve its memory bus, and a
  /// bandwidth-bound family (spmv, stencil) must not speed up or slow down
  /// as if it did. Requires speed_factor > 0.
  [[nodiscard]] virtual double execution_seconds(
      const WorkloadProfile& w, double grains, double speed_factor) const = 0;

  /// Peak flop rate (for reporting only).
  [[nodiscard]] virtual double peak_flops() const = 0;
};

/// GPU model: kernel-launch overhead, wave quantization over the SMs, a
/// saturating-occupancy efficiency ramp and a roofline memory bound.
///
/// T(g) = launch + max(compute(g), memory(g))
///   threads(g)   = g * threads_per_grain
///   capacity     = sm_count * resident_threads_per_sm
///   waves(g)     = ceil(threads(g) / capacity)
///   occupancy(g) = min(1, threads(g) / capacity)
///   eff(g)       = gpu_efficiency * (0.35 + 0.65 * occupancy(g))
///   compute(g)   = waves(g) * capacity * flops_per_thread / (peak * eff(g))
///   memory(g)    = g * device_bytes_per_grain / mem_bandwidth
class GpuModel final : public DeviceModel {
 public:
  struct Params {
    std::string name;
    std::size_t cores = 0;
    std::size_t sm_count = 0;
    std::size_t resident_threads_per_sm = 2048;
    double clock_ghz = 1.0;
    double mem_bandwidth_bps = 100e9;
    double launch_overhead_s = 30e-6;
    double flops_per_core_per_cycle = 2.0;  ///< FMA
  };

  explicit GpuModel(Params p);

  [[nodiscard]] DeviceKind kind() const override { return DeviceKind::kGpu; }
  [[nodiscard]] std::string description() const override;
  [[nodiscard]] double execution_seconds(const WorkloadProfile& w,
                                         double grains) const override;
  [[nodiscard]] double execution_seconds(const WorkloadProfile& w,
                                         double grains,
                                         double speed_factor) const override;
  [[nodiscard]] double peak_flops() const override;

  [[nodiscard]] const Params& params() const { return params_; }

 private:
  Params params_;
};

/// CPU model: thread-dispatch overhead, Amdahl-limited multicore speedup
/// and a roofline memory bound.
class CpuModel final : public DeviceModel {
 public:
  struct Params {
    std::string name;
    std::size_t cores = 1;
    double clock_ghz = 3.0;
    double flops_per_core_per_cycle = 8.0;  ///< SIMD width x FMA
    double mem_bandwidth_bps = 30e9;
    double dispatch_overhead_s = 5e-6;
  };

  explicit CpuModel(Params p);

  [[nodiscard]] DeviceKind kind() const override { return DeviceKind::kCpu; }
  [[nodiscard]] std::string description() const override;
  [[nodiscard]] double execution_seconds(const WorkloadProfile& w,
                                         double grains) const override;
  [[nodiscard]] double execution_seconds(const WorkloadProfile& w,
                                         double grains,
                                         double speed_factor) const override;
  [[nodiscard]] double peak_flops() const override;

  [[nodiscard]] const Params& params() const { return params_; }

 private:
  Params params_;
};

}  // namespace plbhec::sim
