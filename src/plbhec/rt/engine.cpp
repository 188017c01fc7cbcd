#include "plbhec/rt/engine.hpp"

#include <numeric>
#include <optional>

#include "plbhec/common/contracts.hpp"
#include "plbhec/rt/sim_dispatch.hpp"

namespace plbhec::rt {

SimEngine::SimEngine(const sim::SimCluster& cluster, EngineOptions options)
    : cluster_(cluster), options_(options) {
  units_.reserve(cluster.size());
  for (UnitId u = 0; u < cluster.size(); ++u) {
    units_.push_back(sim_unit_info(cluster, u, u));
  }
}

RunResult SimEngine::run(Workload& workload, Scheduler& scheduler) {
  RunResult result;
  const std::size_t n = cluster_.size();
  SimJob job(0, workload);
  PLBHEC_EXPECTS(job.total > 0);
  job.scheduler = &scheduler;

  result.units = units_;
  result.unit_stats.assign(n, {});
  result.total_grains = job.total;

  SimDispatcher dispatch(cluster_, options_.noise, options_.seed,
                         options_.sink);
  std::vector<UnitId> all(n);
  std::iota(all.begin(), all.end(), UnitId{0});
  dispatch.attach(job, std::move(all));
  scheduler.set_event_sink(options_.sink);
  scheduler.start(units_, sim_work_info(workload, job.total));

  while (true) {
    const SimDispatcher::Outcome outcome = dispatch.dispatch(job);
    if (outcome != SimDispatcher::Outcome::kOk) {
      result.error = outcome == SimDispatcher::Outcome::kNoUnits
                         ? "all processing units failed before completion"
                         : "scheduler refused to assign work after barrier";
      break;
    }
    if (job.completed == job.total) {
      result.makespan = dispatch.now();
      result.grains_completed = job.completed;
      result.ok = true;
      break;
    }
    const std::optional<SimDispatcher::Retired> retired = dispatch.step();
    if (!retired) {
      result.error = dispatch.error();
      break;
    }
    const TaskObservation& task = retired->task;
    if (retired->failed) {
      result.grains_requeued += task.grains;
      continue;
    }
    UnitStats& stats = result.unit_stats[retired->unit];
    stats.transfer_seconds += task.transfer_seconds;
    stats.exec_seconds += task.exec_seconds;
    stats.grains += task.grains;
    stats.tasks += 1;
    if (options_.record_trace) {
      const double split = task.start_time + task.transfer_seconds;
      result.trace.add({retired->unit, SegmentKind::kTransfer, task.start_time,
                        split, task.grains});
      result.trace.add({retired->unit, SegmentKind::kExec, split,
                        split + task.exec_seconds, task.grains});
    }
  }

  result.barriers = dispatch.barriers();
  for (UnitId u = 0; u < n; ++u) {
    result.unit_stats[u].failed = dispatch.dead(u);
  }
  return result;
}

}  // namespace plbhec::rt
