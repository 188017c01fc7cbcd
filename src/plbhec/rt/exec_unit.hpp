#pragma once
/// \file exec_unit.hpp
/// The execution-backend seam of the real-execution engine: an ExecUnit is
/// one processing unit that can run blocks of a workload and report how
/// long the staging and the kernel took. ThreadEngine drives a set of them
/// from its persistent worker threads without knowing whether a block runs
/// in-process (LocalExecUnit) or on a worker daemon across a socket
/// (net::RemoteUnit) — the scheduler sees identical TaskObservations either
/// way, which is what lets G_p(x) be fitted from measured wire time.

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "plbhec/rt/types.hpp"
#include "plbhec/rt/workload.hpp"

namespace plbhec::rt {

/// Wall-clock timings of one executed block.
struct BlockTiming {
  double transfer_seconds = 0.0;  ///< staging memcpy or network wire time
  double exec_seconds = 0.0;      ///< kernel time on the executing host
  /// End-to-end wall time of the block when the unit overlapped transfer
  /// with execution (a pipelined remote unit reports wall <
  /// transfer + exec). 0 means the phases ran serially and wall is
  /// transfer + exec. The engine clips trace segments with it; schedulers
  /// price every block as transfer + exec (the paper's Eq. 1).
  double wall_seconds = 0.0;
};

class ExecUnit {
 public:
  virtual ~ExecUnit() = default;

  /// Static description (name, kind, machine). The engine assigns the id.
  [[nodiscard]] virtual UnitInfo describe() const = 0;

  /// Called once per run, before any execute(). A remote unit ships the
  /// workload spec to its daemon here. Returning false marks the unit
  /// failed for this run (the engine routes it through on_unit_failed).
  [[nodiscard]] virtual bool begin_run(Workload& workload) = 0;

  /// Executes grains [begin, end) and applies the results to `workload`.
  /// Returns false on permanent failure; the engine then requeues the
  /// whole range, so a false return must leave the workload untouched.
  [[nodiscard]] virtual bool execute(Workload& workload, std::size_t begin,
                                     std::size_t end, BlockTiming& timing) = 0;

  /// Called once per run after the unit's last execute (also after a
  /// failed one).
  virtual void end_run() {}
};

/// In-process unit: runs the workload's CPU kernel on the calling thread,
/// emulating heterogeneity by stretching the measured kernel time by a
/// per-unit slowdown factor and input staging with a real memcpy.
class LocalExecUnit final : public ExecUnit {
 public:
  struct Options {
    std::string name = "host.cpu";
    double slowdown = 1.0;  ///< >= 1.0; busy-stretch factor for exec time
  };

  explicit LocalExecUnit(Options options);

  [[nodiscard]] UnitInfo describe() const override;
  [[nodiscard]] bool begin_run(Workload& workload) override;
  [[nodiscard]] bool execute(Workload& workload, std::size_t begin,
                             std::size_t end, BlockTiming& timing) override;

  /// Changes the busy-stretch factor mid-run (>= 1.0). Safe to call from
  /// another thread while the engine's worker executes on this unit — the
  /// drift-injection stimulus for real-execution benchmarks; blocks in
  /// flight finish at whichever factor they load first.
  void set_slowdown(double slowdown);
  [[nodiscard]] double slowdown() const {
    return slowdown_.load(std::memory_order_relaxed);
  }

 private:
  Options options_;
  std::atomic<double> slowdown_{1.0};
  std::vector<unsigned char> staging_;
};

}  // namespace plbhec::rt
