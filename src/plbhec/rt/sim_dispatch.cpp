#include "plbhec/rt/sim_dispatch.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "plbhec/common/contracts.hpp"

namespace plbhec::rt {
namespace {

void mark_idle(SimJob& job, UnitId local, bool idle) {
  const std::uint64_t bit = std::uint64_t{1} << (local % 64);
  if (idle) {
    job.idle[local / 64] |= bit;
  } else {
    job.idle[local / 64] &= ~bit;
  }
}

}  // namespace

UnitInfo sim_unit_info(const sim::SimCluster& cluster, UnitId global,
                       UnitId local) {
  const sim::SimUnit& su = cluster.unit(global);
  UnitInfo info;
  info.id = local;
  info.name = su.name;
  info.kind = su.device->kind() == sim::DeviceKind::kGpu ? ProcKind::kGpu
                                                         : ProcKind::kCpu;
  info.machine = su.machine_index;
  return info;
}

WorkInfo sim_work_info(const Workload& workload, std::size_t total) {
  WorkInfo work;
  work.name = workload.name();
  work.total_grains = total;
  work.bytes_per_grain = workload.bytes_per_grain();
  // Default probe/piece size hint; the paper tunes initialBlockSize so the
  // modeling phase costs ~10% of the run, which total/512 approximates for
  // the evaluated applications. Schedulers and benches may override.
  work.initial_block = std::max<std::size_t>(1, total / 512);
  return work;
}

SimDispatcher::SimDispatcher(const sim::SimCluster& cluster,
                             const sim::NoiseModel& noise, std::uint64_t seed,
                             obs::EventSink* sink,
                             std::function<void(SimJob&, UnitId)> on_unit_lost)
    : cluster_(cluster),
      noise_(noise),
      sink_(sink),
      on_unit_lost_(std::move(on_unit_lost)) {
  const Rng master(seed);
  units_.resize(cluster.size());
  for (UnitId g = 0; g < units_.size(); ++g) units_[g].rng = master.fork(g + 1);
}

void SimDispatcher::attach(SimJob& job, std::vector<UnitId> units) {
  PLBHEC_EXPECTS(job.in_flight == 0);
  for (const UnitId g : job.units) {
    if (units_[g].job == &job) units_[g].job = nullptr;
  }
  job.units = std::move(units);
  job.idle.assign((job.units.size() + 63) / 64, 0);
  for (UnitId local = 0; local < job.units.size(); ++local) {
    PLBHEC_EXPECTS(job.units[local] < units_.size());
    Unit& un = units_[job.units[local]];
    PLBHEC_EXPECTS(un.job == nullptr && !un.dead);
    un.job = &job;
    un.local = local;
    mark_idle(job, local, true);
  }
}

void SimDispatcher::release(UnitId g) {
  Unit& un = units_[g];
  PLBHEC_EXPECTS(!un.busy);
  if (un.job == nullptr) return;
  mark_idle(*un.job, un.local, false);
  un.job->scheduler->on_unit_failed(un.local, 0, now_);
  un.job = nullptr;
}

SimDispatcher::Outcome SimDispatcher::dispatch(SimJob& job) {
  assignment_round(job);
  if (job.in_flight > 0 || job.unassigned() == 0) return Outcome::kOk;
  // Every unit of the job is idle and grains remain: the barrier.
  const bool any_unit = std::any_of(
      job.units.begin(), job.units.end(),
      [&](UnitId g) { return units_[g].job == &job; });
  if (!any_unit) return Outcome::kNoUnits;
  ++barriers_;
  PLBHEC_OBS_RECORD(sink_, {now_, obs::EventKind::kBarrier, obs::kNoUnit,
                            0.0, 0.0, barriers_, job.id});
  job.scheduler->on_barrier(now_);
  return assignment_round(job) > 0 ? Outcome::kOk : Outcome::kRefused;
}

std::size_t SimDispatcher::assignment_round(SimJob& job) {
  std::size_t assigned = 0;
  // A round only clears bits (at issue, or when a unit is found dead), so
  // walking each word's value from before the round visits exactly the
  // units idle at its start, in local-id order.
  for (std::size_t word = 0; word < job.idle.size(); ++word) {
    for (std::uint64_t bits = job.idle[word]; bits != 0; bits &= bits - 1) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
      const auto local = static_cast<UnitId>(word * 64 + bit);
      assigned += issue(job, local);
    }
  }
  return assigned;
}

bool SimDispatcher::issue(SimJob& job, UnitId local) {
  const UnitId g = job.units[local];
  Unit& un = units_[g];
  PLBHEC_ASSERT(un.job == &job && !un.busy);
  if (cluster_.unit(g).failed_at(now_)) {  // died while idle
    kill(g, 0);
    return false;
  }
  if (job.unassigned() == 0) return false;
  const std::size_t grains =
      std::min(job.scheduler->next_block(local, now_), job.unassigned());
  if (grains == 0) return false;

  const sim::BlockCost cost =
      sim::cost_block(cluster_.unit(g), job.profile, job.bytes_per_grain,
                      grains, now_, noise_, un.rng);
  un.busy = true;
  mark_idle(job, local, false);
  un.task = {local, grains, cost.transfer_s, cost.exec_s, now_, cost.event_s};
  job.issued += grains;
  job.in_flight += grains;
  PLBHEC_OBS_RECORD(sink_, {now_, obs::EventKind::kBlockDispatched,
                            static_cast<std::uint32_t>(g), 0.0, 0.0, grains,
                            sequence_});
  events_.push({cost.event_s, sequence_++, g, cost.fails});
  return true;
}

void SimDispatcher::kill(UnitId g, std::size_t lost) {
  Unit& un = units_[g];
  SimJob& job = *un.job;
  un.dead = true;
  un.job = nullptr;
  mark_idle(job, un.local, false);
  PLBHEC_OBS_RECORD(sink_, {now_, obs::EventKind::kUnitFailed,
                            static_cast<std::uint32_t>(g), 0.0, 0.0, lost,
                            job.id});
  job.scheduler->on_unit_failed(un.local, lost, now_);
  if (on_unit_lost_) on_unit_lost_(job, g);
}

std::optional<SimDispatcher::Retired> SimDispatcher::step() {
  if (events_.empty()) return std::nullopt;
  const Event ev = events_.top();
  events_.pop();
  if (!advance(ev.time)) return std::nullopt;

  Unit& un = units_[ev.unit];
  PLBHEC_ASSERT(un.busy && un.job != nullptr);
  SimJob& job = *un.job;
  un.busy = false;
  job.in_flight -= un.task.grains;
  if (ev.fails) {
    job.issued -= un.task.grains;  // back in the pool
  } else {
    job.completed += un.task.grains;
  }
  // Grain conservation: every issued grain is completed or in flight.
  PLBHEC_ASSERT(job.issued == job.completed + job.in_flight);
  PLBHEC_ASSERT(job.issued <= job.total);
  if (ev.fails) {
    kill(ev.unit, un.task.grains);
  } else {
    mark_idle(job, un.local, true);
    job.scheduler->on_complete(un.task);
  }
  return Retired{&job, ev.unit, un.task, ev.fails};
}

bool SimDispatcher::advance(double time) {
  PLBHEC_ASSERT(time >= now_);
  now_ = time;
  if (++fired_ > sim::kMaxEvents) {
    error_ = "event watchdog tripped (runaway scheduling loop)";
    return false;
  }
  if (now_ > sim::kMaxSimSeconds) {
    error_ = "simulated-time watchdog tripped";
    return false;
  }
  return true;
}

double SimDispatcher::next_time() const {
  return events_.empty() ? std::numeric_limits<double>::infinity()
                         : events_.top().time;
}

}  // namespace plbhec::rt
