#pragma once
/// \file engine.hpp
/// Discrete-event execution engine: runs a Workload on a simulated
/// heterogeneous cluster under a pluggable Scheduler, in virtual time.
/// One job over every unit on rt::SimDispatcher, the paper's master-node
/// dispatch loop (§III-D), plus the run's trace and per-unit statistics.

#include <cstdint>
#include <string>
#include <vector>

#include "plbhec/common/contracts.hpp"
#include "plbhec/obs/sink.hpp"
#include "plbhec/rt/scheduler.hpp"
#include "plbhec/rt/trace.hpp"
#include "plbhec/rt/workload.hpp"
#include "plbhec/sim/cluster.hpp"

namespace plbhec::rt {

struct EngineOptions {
  sim::NoiseModel noise;         ///< measurement noise model
  std::uint64_t seed = 42;       ///< base seed; each unit gets a forked stream
  bool record_trace = true;      ///< keep the full segment trace
  /// Observability sink for dispatch/barrier/failure events; also handed
  /// to the scheduler before start() so its decisions land in the same
  /// stream. Null = record nothing. Not owned.
  obs::EventSink* sink = nullptr;
};

/// Per-unit aggregate statistics of one run.
struct UnitStats {
  double transfer_seconds = 0.0;
  double exec_seconds = 0.0;
  std::size_t grains = 0;
  std::size_t tasks = 0;
  bool failed = false;

  [[nodiscard]] double busy_seconds() const {
    return transfer_seconds + exec_seconds;
  }
};

struct RunResult {
  bool ok = false;
  std::string error;
  double makespan = 0.0;          ///< virtual seconds until the last grain
  std::size_t total_grains = 0;
  std::size_t grains_completed = 0;  ///< grains that actually finished
  /// Grains that were in flight on a unit when it failed and had to be
  /// returned to the pool. A successful run re-executes them elsewhere, so
  /// ok && grains_completed == total_grains even when this is > 0; the
  /// chaos gate's "zero lost-grain violations" means exactly that identity,
  /// not that no fault ever interrupted a block.
  std::size_t grains_requeued = 0;
  std::size_t barriers = 0;       ///< number of scheduler barriers reached
  std::vector<UnitInfo> units;
  std::vector<UnitStats> unit_stats;
  TraceLog trace;

  /// Per-unit statistics with the unit id range-checked (a bad UnitId is a
  /// caller bug, not a silent out-of-range read).
  [[nodiscard]] const UnitStats& stats_for(UnitId u) const {
    PLBHEC_EXPECTS(u < unit_stats.size());
    return unit_stats[u];
  }

  /// Fraction of the makespan a unit spent idle.
  [[nodiscard]] double idle_fraction(UnitId u) const {
    PLBHEC_EXPECTS(u < unit_stats.size());
    if (makespan <= 0.0) return 0.0;
    return 1.0 - unit_stats[u].busy_seconds() / makespan;
  }
};

class SimEngine {
 public:
  explicit SimEngine(const sim::SimCluster& cluster,
                     EngineOptions options = {});

  /// Runs the workload to completion under the scheduler. The scheduler
  /// must be freshly constructed (start() is called here).
  [[nodiscard]] RunResult run(Workload& workload, Scheduler& scheduler);

  [[nodiscard]] const std::vector<UnitInfo>& units() const { return units_; }

 private:
  const sim::SimCluster& cluster_;
  EngineOptions options_;
  std::vector<UnitInfo> units_;
};

}  // namespace plbhec::rt
