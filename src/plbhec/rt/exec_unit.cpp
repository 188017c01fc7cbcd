#include "plbhec/rt/exec_unit.hpp"

#include <chrono>
#include <cstring>
#include <thread>

#include "plbhec/common/contracts.hpp"

namespace plbhec::rt {
namespace {

using Clock = std::chrono::steady_clock;

/// Busy-stretches a measured duration to `factor` times its length.
void stretch(Clock::time_point start, double measured_s, double factor) {
  if (factor <= 1.0) return;
  const double target = measured_s * factor;
  while (std::chrono::duration<double>(Clock::now() - start).count() < target)
    std::this_thread::yield();
}

}  // namespace

LocalExecUnit::LocalExecUnit(Options options) : options_(std::move(options)) {
  PLBHEC_EXPECTS(options_.slowdown >= 1.0);
  slowdown_.store(options_.slowdown, std::memory_order_relaxed);
}

void LocalExecUnit::set_slowdown(double slowdown) {
  PLBHEC_EXPECTS(slowdown >= 1.0);
  slowdown_.store(slowdown, std::memory_order_relaxed);
}

UnitInfo LocalExecUnit::describe() const {
  UnitInfo info;
  info.name = options_.name;
  info.kind = ProcKind::kCpu;
  info.machine = 0;
  return info;
}

bool LocalExecUnit::begin_run(Workload& workload) {
  return workload.supports_real_execution();
}

bool LocalExecUnit::execute(Workload& workload, std::size_t begin,
                            std::size_t end, BlockTiming& timing) {
  PLBHEC_EXPECTS(begin < end);

  // --- Transfer emulation (real memcpy staging) ---
  const auto bytes = static_cast<std::size_t>(
      static_cast<double>(end - begin) * workload.bytes_per_grain());
  const Clock::time_point t_transfer = Clock::now();
  if (bytes > 0) {
    staging_.resize(bytes);
    // Touch every page so the copy cost is real.
    std::memset(staging_.data(), 0x5a, staging_.size());
  }
  timing.transfer_seconds =
      std::chrono::duration<double>(Clock::now() - t_transfer).count();

  // --- Real kernel execution ---
  const Clock::time_point t_exec = Clock::now();
  workload.execute_cpu(begin, end);
  const double exec_s =
      std::chrono::duration<double>(Clock::now() - t_exec).count();
  stretch(t_exec, exec_s, slowdown_.load(std::memory_order_relaxed));
  timing.exec_seconds =
      std::chrono::duration<double>(Clock::now() - t_exec).count();
  return true;
}

}  // namespace plbhec::rt
