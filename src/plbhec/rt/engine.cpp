#include "plbhec/rt/engine.hpp"

#include <algorithm>
#include <queue>

#include "plbhec/common/contracts.hpp"
#include "plbhec/common/rng.hpp"

namespace plbhec::rt {
namespace {

enum class EventKind { kCompletion, kFailure };

struct Event {
  double time = 0.0;
  UnitId unit = 0;
  EventKind kind = EventKind::kCompletion;
  std::uint64_t sequence = 0;  ///< tie-break for deterministic ordering
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.sequence > b.sequence;
  }
};

struct InFlight {
  std::size_t grains = 0;
  double start = 0.0;
  double transfer_seconds = 0.0;
  double exec_seconds = 0.0;
};

}  // namespace

SimEngine::SimEngine(const sim::SimCluster& cluster, EngineOptions options)
    : cluster_(cluster), options_(options) {
  units_.reserve(cluster.size());
  for (UnitId u = 0; u < cluster.size(); ++u) {
    const sim::SimUnit& su = cluster.unit(u);
    UnitInfo info;
    info.id = u;
    info.name = su.name;
    info.kind = su.device->kind() == sim::DeviceKind::kGpu ? ProcKind::kGpu
                                                           : ProcKind::kCpu;
    info.machine = su.machine_index;
    units_.push_back(std::move(info));
  }
}

RunResult SimEngine::run(Workload& workload, Scheduler& scheduler) {
  RunResult result;
  const std::size_t n = cluster_.size();
  const std::size_t total = workload.total_grains();
  PLBHEC_EXPECTS(total > 0);

  result.units = units_;
  result.unit_stats.assign(n, {});
  result.total_grains = total;

  WorkInfo work;
  work.name = workload.name();
  work.total_grains = total;
  work.bytes_per_grain = workload.bytes_per_grain();
  // Default probe/piece size hint; the paper tunes initialBlockSize so the
  // modeling phase costs ~10% of the run, which total/512 approximates for
  // the evaluated applications. Schedulers and benches may override.
  work.initial_block = std::max<std::size_t>(1, total / 512);
  obs::EventSink* const sink = options_.sink;
  scheduler.set_event_sink(sink);
  scheduler.start(units_, work);

  const sim::WorkloadProfile profile = workload.profile();

  Rng master_rng(options_.seed);
  std::vector<Rng> unit_rng;
  unit_rng.reserve(n);
  for (UnitId u = 0; u < n; ++u) unit_rng.push_back(master_rng.fork(u + 1));

  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  std::vector<InFlight> in_flight(n);
  std::vector<bool> busy(n, false);
  std::vector<bool> dead(n, false);
  std::uint64_t sequence = 0;

  std::size_t next_grain = 0;      // next unassigned grain index
  std::size_t completed = 0;       // grains finished
  std::size_t lost_grains = 0;     // grains returned to the pool by failures
  double now = 0.0;

  auto unassigned = [&] { return (total - next_grain) + lost_grains; };

  // Tries to hand a block to `unit`; returns true if a task was issued.
  auto try_assign = [&](UnitId unit) -> bool {
    if (busy[unit] || dead[unit]) return false;
    const sim::SimUnit& su = cluster_.unit(unit);
    if (su.failed_at(now)) {
      dead[unit] = true;
      result.unit_stats[unit].failed = true;
      PLBHEC_OBS_RECORD(sink, {now, obs::EventKind::kUnitFailed,
                               static_cast<std::uint32_t>(unit), 0.0, 0.0, 0,
                               0});
      scheduler.on_unit_failed(unit, 0, now);
      return false;
    }
    if (unassigned() == 0) return false;

    std::size_t grains = scheduler.next_block(unit, now);
    grains = std::min(grains, unassigned());
    if (grains == 0) return false;

    // Take lost grains back first (keeps the pool exact; the actual grain
    // *ranges* are irrelevant to the simulated executor).
    const std::size_t from_lost = std::min(grains, lost_grains);
    lost_grains -= from_lost;
    next_grain += grains - from_lost;

    const sim::BlockCost cost =
        sim::cost_block(su, profile, work.bytes_per_grain, grains, now,
                        options_.noise, unit_rng[unit]);
    in_flight[unit] = {grains, now, cost.transfer_s, cost.exec_s};
    busy[unit] = true;

    PLBHEC_OBS_RECORD(sink, {now, obs::EventKind::kBlockDispatched,
                             static_cast<std::uint32_t>(unit), 0.0, 0.0,
                             grains, sequence});
    events.push({cost.event_s, unit,
                 cost.fails ? EventKind::kFailure : EventKind::kCompletion,
                 sequence++});
    return true;
  };

  auto assignment_round = [&]() -> std::size_t {
    std::size_t assigned = 0;
    for (UnitId u = 0; u < n; ++u)
      if (try_assign(u)) ++assigned;
    return assigned;
  };

  assignment_round();

  std::size_t processed_events = 0;
  while (completed < total) {
    if (events.empty()) {
      // All units idle with work remaining: the scheduler's barrier.
      if (unassigned() == 0) {
        result.error = "engine stuck: no in-flight work but grains missing";
        return result;
      }
      if (std::all_of(dead.begin(), dead.end(), [](bool d) { return d; })) {
        result.error = "all processing units failed before completion";
        return result;
      }
      ++result.barriers;
      PLBHEC_OBS_RECORD(sink, {now, obs::EventKind::kBarrier, obs::kNoUnit,
                               0.0, 0.0, result.barriers, 0});
      scheduler.on_barrier(now);
      if (assignment_round() == 0) {
        result.error = "scheduler refused to assign work after barrier";
        return result;
      }
      continue;
    }

    const Event ev = events.top();
    events.pop();
    if (++processed_events > sim::kMaxEvents) {
      result.error = "event watchdog tripped (runaway scheduling loop)";
      return result;
    }
    now = ev.time;
    if (now > sim::kMaxSimSeconds) {
      result.error = "simulated-time watchdog tripped";
      return result;
    }

    const InFlight task = in_flight[ev.unit];
    busy[ev.unit] = false;

    if (ev.kind == EventKind::kFailure) {
      dead[ev.unit] = true;
      result.unit_stats[ev.unit].failed = true;
      lost_grains += task.grains;  // work lost with the unit
      result.grains_requeued += task.grains;
      PLBHEC_OBS_RECORD(sink, {now, obs::EventKind::kUnitFailed,
                               static_cast<std::uint32_t>(ev.unit), 0.0, 0.0,
                               task.grains, 0});
      scheduler.on_unit_failed(ev.unit, task.grains, now);
      assignment_round();
      continue;
    }

    // Completion: account, trace, inform the scheduler.
    completed += task.grains;
    UnitStats& stats = result.unit_stats[ev.unit];
    stats.transfer_seconds += task.transfer_seconds;
    stats.exec_seconds += task.exec_seconds;
    stats.grains += task.grains;
    stats.tasks += 1;

    if (options_.record_trace) {
      result.trace.add({ev.unit, SegmentKind::kTransfer, task.start,
                        task.start + task.transfer_seconds, task.grains});
      result.trace.add({ev.unit, SegmentKind::kExec,
                        task.start + task.transfer_seconds,
                        task.start + task.transfer_seconds + task.exec_seconds,
                        task.grains});
    }

    TaskObservation obs;
    obs.unit = ev.unit;
    obs.grains = task.grains;
    obs.transfer_seconds = task.transfer_seconds;
    obs.exec_seconds = task.exec_seconds;
    obs.start_time = task.start;
    obs.finish_time = now;
    scheduler.on_complete(obs);

    assignment_round();
  }

  result.makespan = now;
  result.grains_completed = completed;
  result.ok = true;
  return result;
}

}  // namespace plbhec::rt
