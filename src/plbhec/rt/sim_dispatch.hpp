#pragma once
/// \file sim_dispatch.hpp
/// The one simulated dispatch loop: the master node of the paper's runtime
/// (§III-D) in virtual time. A SimDispatcher owns each unit's forked noise
/// stream, busy and dead flags and in-flight block, and one heap of block
/// completions and unit failures fired in (virtual time, issue sequence)
/// order under two watchdogs. For a job over an ordered set of units it
/// runs the assignment round (retiring units that died idle), the barrier
/// protocol, and each block's retirement: Scheduler::on_complete, or the
/// grains back in the job's pool and Scheduler::on_unit_failed. Blocks are
/// costed by sim::cost_block. rt::SimEngine runs one job over every unit on
/// it; svc::JobManager runs each admitted job over its leased units on it.

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "plbhec/common/rng.hpp"
#include "plbhec/obs/sink.hpp"
#include "plbhec/rt/scheduler.hpp"
#include "plbhec/rt/workload.hpp"
#include "plbhec/sim/cluster.hpp"

namespace plbhec::rt {

/// What a scheduler knowing the cluster's unit `global` as `local` is told.
[[nodiscard]] UnitInfo sim_unit_info(const sim::SimCluster& cluster,
                                     UnitId global, UnitId local);

/// What a scheduler is told about `total` grains of `workload`.
[[nodiscard]] WorkInfo sim_work_info(const Workload& workload,
                                     std::size_t total);

/// One job's dispatch state. Its scheduler knows the cluster's unit
/// units[i] as local id i. Grains are conserved after every retired block:
/// issued == completed + in_flight <= total (a failed unit's block is back
/// in the pool, no longer issued).
struct SimJob {
  SimJob() = default;
  SimJob(std::uint64_t job_id, const Workload& workload)
      : id(job_id),
        profile(workload.profile()),
        bytes_per_grain(workload.bytes_per_grain()),
        total(workload.total_grains()) {}

  std::uint64_t id = 0;  ///< the job field of its barrier and failure events
  Scheduler* scheduler = nullptr;
  sim::WorkloadProfile profile;
  double bytes_per_grain = 0.0;
  std::size_t total = 0;
  std::size_t issued = 0;
  std::size_t completed = 0;
  std::size_t in_flight = 0;  ///< grains
  std::vector<UnitId> units;
  /// Bit i % 64 of word i / 64 is set while local unit i is attached,
  /// alive and has no block in flight; an assignment round visits only
  /// those.
  std::vector<std::uint64_t> idle;

  [[nodiscard]] std::size_t unassigned() const { return total - issued; }
};

class SimDispatcher {
 public:
  /// A block event the dispatcher fired.
  struct Retired {
    SimJob* job = nullptr;
    UnitId unit = 0;       ///< the cluster's unit id
    TaskObservation task;  ///< the block, as its scheduler sees it
    bool failed = false;   ///< the unit died with the block in flight
  };

  enum class Outcome {
    kOk,       ///< blocks are in flight, or no grain is left to issue
    kNoUnits,  ///< grains remain, but every unit of the job died or left
    kRefused,  ///< the scheduler issued nothing, even after a barrier
  };

  /// Unit g draws its noise from Rng(seed).fork(g + 1). `on_unit_lost(job,
  /// g)` runs once unit g of `job` died and the job's scheduler was told.
  SimDispatcher(const sim::SimCluster& cluster, const sim::NoiseModel& noise,
                std::uint64_t seed, obs::EventSink* sink,
                std::function<void(SimJob&, UnitId)> on_unit_lost = {});

  /// Makes `units` the job's units and detaches those it held before.
  /// Requires no block of the job in flight and every unit alive and free.
  void attach(SimJob& job, std::vector<UnitId> units);

  /// Takes idle unit g from its job at a block boundary: the scheduler
  /// sees a failure that lost nothing. No-op for a unit of no job.
  void release(UnitId g);

  /// Issues blocks to the job's idle units in local-id order, visiting
  /// only those. When that leaves every unit of the job idle with grains
  /// remaining, the scheduler reaches its barrier and one more round
  /// follows.
  Outcome dispatch(SimJob& job);

  /// Fires the earliest block event. Nothing when no block is in flight
  /// or a watchdog tripped (error() says which).
  std::optional<Retired> step();

  /// Moves the clock to an event outside the heap (a service job's
  /// arrival) under the same watchdogs; false when one tripped.
  bool advance(double time);

  [[nodiscard]] double now() const { return now_; }
  /// Time of the earliest block event; +infinity when none is in flight.
  [[nodiscard]] double next_time() const;
  [[nodiscard]] bool busy(UnitId g) const { return units_[g].busy; }
  [[nodiscard]] bool dead(UnitId g) const { return units_[g].dead; }
  [[nodiscard]] std::size_t barriers() const { return barriers_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  struct Unit {
    Rng rng;
    SimJob* job = nullptr;  ///< the job whose scheduler knows this unit
    UnitId local = 0;       ///< its id there
    bool busy = false;
    bool dead = false;
    TaskObservation task;  ///< the block in flight while busy
  };

  struct Event {
    double time = 0.0;
    std::uint64_t sequence = 0;  ///< issue order; breaks time ties
    UnitId unit = 0;
    bool fails = false;

    friend bool operator>(const Event& a, const Event& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  std::size_t assignment_round(SimJob& job);
  /// Offers idle local unit `local` a block, or retires it if it died
  /// while idle. True when a block went out.
  bool issue(SimJob& job, UnitId local);
  void kill(UnitId g, std::size_t lost);

  const sim::SimCluster& cluster_;
  sim::NoiseModel noise_;
  obs::EventSink* sink_;
  std::function<void(SimJob&, UnitId)> on_unit_lost_;
  std::vector<Unit> units_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::uint64_t sequence_ = 0;
  std::size_t fired_ = 0;
  std::size_t barriers_ = 0;
  double now_ = 0.0;
  std::string error_;
};

}  // namespace plbhec::rt
