#include "plbhec/rt/thread_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <span>

#include "plbhec/common/codec.hpp"
#include "plbhec/common/contracts.hpp"
#include "plbhec/kdisp/registry.hpp"

namespace plbhec::rt {
namespace {

using Clock = std::chrono::steady_clock;

/// A run aborts when this many consecutive barriers make no progress.
constexpr std::size_t kMaxStuckBarriers = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A contiguous range of grains awaiting (re)assignment.
struct GrainRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

std::vector<std::unique_ptr<ExecUnit>> make_local_units(
    const ThreadEngineOptions& options) {
  PLBHEC_EXPECTS(!options.slowdowns.empty());
  for (double s : options.slowdowns) PLBHEC_EXPECTS(s >= 1.0);
  std::vector<std::unique_ptr<ExecUnit>> locals;
  for (std::size_t u = 0; u < options.slowdowns.size(); ++u) {
    LocalExecUnit::Options lo;
    lo.name = "host.cpu" + std::to_string(u);
    lo.slowdown = options.slowdowns[u];
    locals.push_back(std::make_unique<LocalExecUnit>(std::move(lo)));
  }
  return locals;
}

}  // namespace

ThreadEngine::ThreadEngine(ThreadEngineOptions options)
    : ThreadEngine(options, make_local_units(options)) {}

ThreadEngine::ThreadEngine(ThreadEngineOptions options,
                           std::vector<std::unique_ptr<ExecUnit>> units)
    : options_(std::move(options)), impls_(std::move(units)) {
  PLBHEC_EXPECTS(!impls_.empty());
  for (UnitId u = 0; u < impls_.size(); ++u) {
    UnitInfo info = impls_[u]->describe();
    info.id = u;
    units_.push_back(std::move(info));
  }
  detached_.assign(units_.size(), 0);
  workers_ = std::make_unique<exec::WorkerSet>(units_.size(),
                                               options_.pin_workers);
}

void ThreadEngine::detach_unit(UnitId unit) {
  std::lock_guard lock(mutex_);
  PLBHEC_EXPECTS(unit < units_.size());
  PLBHEC_EXPECTS(!detached_[unit]);
  detached_[unit] = 1;
  cv_.notify_all();
}

bool ThreadEngine::is_detached(UnitId unit) const {
  std::lock_guard lock(mutex_);
  PLBHEC_EXPECTS(unit < units_.size());
  return detached_[unit] != 0;
}

std::size_t ThreadEngine::active_unit_count() const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (char d : detached_) n += d == 0 ? 1 : 0;
  return n;
}

RunResult ThreadEngine::run(Workload& workload, Scheduler& scheduler) {
  RunResult result;
  const std::size_t n = units_.size();
  const std::size_t total = workload.total_grains();
  PLBHEC_EXPECTS(total > 0);
  PLBHEC_EXPECTS(workload.supports_real_execution());
  obs::EventSink* const sink = options_.sink;
  scheduler.set_event_sink(sink);

  result.units = units_;
  result.unit_stats.assign(n, {});
  result.total_grains = total;

  WorkInfo work;
  work.name = workload.name();
  work.total_grains = total;
  work.bytes_per_grain = workload.bytes_per_grain();
  work.initial_block = std::max<std::size_t>(1, total / 1024);
  scheduler.start(units_, work);

  // Shared dispatch state, guarded by the engine mutex so detach_unit()
  // participates.
  std::size_t next_grain = 0;          // frontier of never-assigned grains
  std::deque<GrainRange> requeued;     // ranges returned by failed units
  std::size_t unassigned = total;      // grains awaiting (re)assignment
  std::size_t completed = 0;
  std::size_t in_flight = 0;           // grains issued, not yet retired
  std::size_t active = 0;
  std::size_t idle_waiting = 0;
  std::size_t stuck_barriers = 0;
  std::uint64_t sequence = 0;
  bool assigned_since_barrier = true;
  bool failed = false;
  std::string error;
  const Clock::time_point t0 = Clock::now();

  // Units detached before this run never join it; the scheduler must not
  // wait on them. Snapshot under the lock so a concurrent detach_unit of
  // a joining unit lands on the in-run path instead.
  std::vector<char> joined(n, 0);
  {
    std::lock_guard lock(mutex_);
    for (UnitId u = 0; u < n; ++u) {
      joined[u] = detached_[u] ? 0 : 1;
      if (joined[u]) ++active;
    }
  }
  if (active == 0) {
    result.error = "no active units (all detached)";
    return result;
  }
  for (UnitId u = 0; u < n; ++u) {
    if (!joined[u]) scheduler.on_unit_failed(u, 0, 0.0);
  }

  // Retires `unit` from the run; requeues `lost` (empty when the unit
  // leaves gracefully at a block boundary). Caller holds the lock; each
  // worker calls this at most once, so `active` decrements exactly once
  // per departing unit even when detach_unit already set the flag.
  auto retire = [&](UnitId unit, GrainRange lost, bool is_failure) {
    if (lost.end > lost.begin) {
      requeued.push_back(lost);
      unassigned += lost.end - lost.begin;
      result.grains_requeued += lost.end - lost.begin;
    }
    in_flight -= lost.end - lost.begin;
    // Grain conservation: every issued grain is completed or in flight
    // (an underflow of total - unassigned fails it too).
    PLBHEC_ASSERT(total - unassigned == completed + in_flight);
    detached_[unit] = 1;
    --active;
    if (is_failure) result.unit_stats[unit].failed = true;
    const double now = seconds_since(t0);
    PLBHEC_OBS_RECORD(sink, {now, obs::EventKind::kUnitFailed,
                             static_cast<std::uint32_t>(unit), 0.0, 0.0,
                             lost.end - lost.begin, 0});
    scheduler.on_unit_failed(unit, lost.end - lost.begin, now);
    if (active == 0 && completed < total && !failed) {
      failed = true;
      error = "all units detached or failed with work remaining";
    }
    cv_.notify_all();
  };

  auto worker_body = [&](UnitId unit) {
    if (!joined[unit]) return;  // retired before this run started
    ExecUnit& impl = *impls_[unit];
    if (!impl.begin_run(workload)) {
      {
        std::lock_guard lock(mutex_);
        retire(unit, {}, /*is_failure=*/true);
      }
      impl.end_run();
      return;
    }

    std::unique_lock lock(mutex_);
    while (true) {
      if (failed || completed >= total) break;
      if (detached_[unit]) {
        // Externally detached (detach_unit marks the flag; the unit
        // leaves here, at its block boundary, with nothing in flight).
        retire(unit, {}, /*is_failure=*/false);
        break;
      }

      std::size_t grains = 0;
      if (unassigned > 0) {
        grains = scheduler.next_block(unit, seconds_since(t0));
        grains = std::min(grains, unassigned);
      }

      if (grains == 0) {
        // Park until another completion or a barrier changes the state.
        ++idle_waiting;
        if (idle_waiting == active && unassigned > 0 && completed < total) {
          // Everyone idle with work left: this is the scheduler barrier.
          if (assigned_since_barrier) {
            stuck_barriers = 0;
          } else if (++stuck_barriers >= kMaxStuckBarriers) {
            failed = true;
            error = "scheduler refused to assign work after barrier";
            --idle_waiting;
            cv_.notify_all();
            break;
          }
          assigned_since_barrier = false;
          const double now = seconds_since(t0);
          ++result.barriers;
          PLBHEC_OBS_RECORD(sink, {now, obs::EventKind::kBarrier,
                                   obs::kNoUnit, 0.0, 0.0, result.barriers,
                                   0});
          scheduler.on_barrier(now);
          --idle_waiting;
          cv_.notify_all();
          continue;  // retry next_block immediately
        }
        cv_.wait(lock);
        --idle_waiting;
        continue;
      }

      assigned_since_barrier = true;
      // Serve requeued ranges (work lost by failed units) before the
      // frontier, clamped to the front range so blocks stay contiguous.
      GrainRange r;
      if (!requeued.empty()) {
        GrainRange& front = requeued.front();
        const std::size_t take = std::min(grains, front.end - front.begin);
        r = {front.begin, front.begin + take};
        front.begin += take;
        if (front.begin == front.end) requeued.pop_front();
      } else {
        const std::size_t take = std::min(grains, total - next_grain);
        r = {next_grain, next_grain + take};
        next_grain += take;
      }
      grains = r.end - r.begin;
      unassigned -= grains;
      in_flight += grains;
      const double issue_time = seconds_since(t0);
      PLBHEC_OBS_RECORD(sink, {issue_time, obs::EventKind::kBlockDispatched,
                               static_cast<std::uint32_t>(unit), 0.0, 0.0,
                               grains, sequence});
      ++sequence;
      lock.unlock();

      BlockTiming timing;
      const bool ok = impl.execute(workload, r.begin, r.end, timing);

      lock.lock();
      if (!ok) {
        retire(unit, r, /*is_failure=*/true);
        break;
      }

      completed += grains;
      in_flight -= grains;
      PLBHEC_ASSERT(total - unassigned == completed + in_flight);
      UnitStats& stats = result.unit_stats[unit];
      stats.transfer_seconds += timing.transfer_seconds;
      stats.exec_seconds += timing.exec_seconds;
      stats.grains += grains;
      stats.tasks += 1;
      // Serial layout by default; a pipelined unit reports a shorter
      // wall time than transfer + exec, and laying the phases end to end
      // would overrun the block's real span — clip to the wall and show
      // the kernel tail at the true finish instead.
      double t_split = issue_time + timing.transfer_seconds;
      double t_end = t_split + timing.exec_seconds;
      if (timing.wall_seconds > 0.0 &&
          timing.wall_seconds < timing.transfer_seconds + timing.exec_seconds) {
        t_end = issue_time + timing.wall_seconds;
        t_split = std::max(issue_time, t_end - timing.exec_seconds);
      }
      result.trace.add({unit, SegmentKind::kTransfer, issue_time, t_split,
                        grains});
      result.trace.add({unit, SegmentKind::kExec, t_split, t_end, grains});

      TaskObservation obs;
      obs.unit = unit;
      obs.grains = grains;
      obs.transfer_seconds = timing.transfer_seconds;
      obs.exec_seconds = timing.exec_seconds;
      obs.start_time = issue_time;
      obs.finish_time = seconds_since(t0);
      scheduler.on_complete(obs);
      cv_.notify_all();
    }
    cv_.notify_all();
    lock.unlock();
    impl.end_run();
  };

  // The persistent workers were spawned in the constructor; dispatching a
  // run is a condition-variable wakeup, so the first probe block's timing
  // contains no thread-startup cost.
  workers_->run(worker_body);

  // Publish the kernel-dispatch decisions the run exercised: one event per
  // resolved (kernel, width) slot. This is the only place the ISA choice
  // surfaces — it is observability, never protocol (a remote daemon's
  // dispatch stays its own business and is NOT in these events).
  if (sink != nullptr) {
    const double dispatch_time = seconds_since(t0);
    for (const kdisp::DispatchRecord& rec :
         kdisp::KernelRegistry::instance().resolved()) {
      const auto* name_bytes =
          reinterpret_cast<const std::uint8_t*>(rec.kernel.data());
      PLBHEC_OBS_RECORD(
          sink, {dispatch_time, obs::EventKind::kKernelDispatch, obs::kNoUnit,
                 static_cast<double>(rec.width), 0.0,
                 static_cast<std::uint64_t>(rec.isa),
                 common::fnv1a64({name_bytes, rec.kernel.size()})});
    }
  }

  result.makespan = seconds_since(t0);
  result.grains_completed = completed;
  result.ok = !failed;
  result.error = error;
  return result;
}

}  // namespace plbhec::rt
