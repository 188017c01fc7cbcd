#include "plbhec/svc/job_manager.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <queue>
#include <string_view>
#include <utility>

#include "plbhec/common/contracts.hpp"
#include "plbhec/obs/events.hpp"
#include "plbhec/rt/sim_dispatch.hpp"

namespace plbhec::svc {
namespace {

/// Bounded preemption latency: the block cap each epoch's PLB-HeC gets,
/// in execution windows of its job on the cluster's best unit (see
/// job_manager.hpp and best_window_seconds).
constexpr double kPreemptWindows = 16.0;

/// A unit's lease; its dispatch state lives in the rt::SimDispatcher.
struct UnitRt {
  bool leased = false;
  /// Lease marked for revocation at this unit's next block boundary.
  bool revoke_pending = false;
};

enum class JobPhase : std::uint8_t {
  kPending,   ///< arriving, or in the admission queue
  kForming,   ///< admitted, assembling its unit lease
  kRunning,   ///< scheduler active
  kDraining,  ///< lease grew: no new blocks until in-flight work drains
  kDone,
};

struct JobRt {
  JobPhase phase = JobPhase::kPending;
  std::unique_ptr<rt::Workload> workload;
  /// Grain pool, block costs and the current epoch's units (local id i is
  /// global unit sim.units[i]), dispatched by the service's SimDispatcher.
  rt::SimJob sim;
  std::size_t target = 0;  ///< lease policy's current unit entitlement
  std::vector<rt::UnitId> held;     ///< sorted global ids (incl. pending)
  std::vector<rt::UnitId> pending;  ///< granted but not yet integrated
  std::unique_ptr<core::PlbHecScheduler> scheduler;
  /// Service-side observation log in the *job* fraction domain (x =
  /// grains / total), per global unit — the warm seed for epoch restarts
  /// and the job's store entries. Held from admission until the entries
  /// are put.
  std::vector<fit::SampleSet> exec_obs;
  std::vector<fit::SampleSet> transfer_obs;
};

/// Sorted-vector set of unit or job ids (both std::size_t).
void insert_sorted(std::vector<std::size_t>& v, std::size_t id) {
  v.insert(std::lower_bound(v.begin(), v.end(), id), id);
}

void erase_sorted(std::vector<std::size_t>& v, std::size_t id) {
  const auto it = std::lower_bound(v.begin(), v.end(), id);
  if (it != v.end() && *it == id) v.erase(it);
}

/// Admission order: priority class first, then submission id (FIFO within
/// class; ids follow submission order). As the admission queue's
/// comparator it says whether `a` leaves *after* `b`, so top() is the next
/// job to admit.
struct AdmitLater {
  const std::vector<JobSpec>* specs = nullptr;
  [[nodiscard]] bool before(JobId a, JobId b) const {
    const auto pa = static_cast<std::uint8_t>((*specs)[a].priority);
    const auto pb = static_cast<std::uint8_t>((*specs)[b].priority);
    return pa != pb ? pa < pb : a < b;
  }
  bool operator()(JobId a, JobId b) const { return before(b, a); }
};

/// The whole per-run state; constructed fresh inside run() so the event
/// loop's working set dies with it. Not copyable or movable: the
/// dispatcher calls back into it.
struct ServiceSim {
  const sim::SimCluster& cluster;
  const ServiceOptions& options;
  const std::vector<JobSpec>& specs;
  ProfileStore& store;

  const std::size_t n;
  std::vector<UnitRt> units;
  std::vector<JobRt> jobs;
  const AdmitLater admit;
  std::priority_queue<JobId, std::vector<JobId>, AdmitLater> queue;
  rt::SimDispatcher dispatch;
  std::vector<JobId> active;  ///< sorted; phases forming/running/draining
  ServiceResult res;

  ServiceSim(const sim::SimCluster& c, const ServiceOptions& o,
             const std::vector<JobSpec>& s, ProfileStore& st)
      : cluster(c),
        options(o),
        specs(s),
        store(st),
        n(c.size()),
        units(n),
        admit{&s},
        queue(admit),
        dispatch(c, o.noise, o.seed, o.sink,
                 [this](rt::SimJob& job, rt::UnitId g) {
                   end_lease(job.id, g);
                 }) {}
  ServiceSim(const ServiceSim&) = delete;
  ServiceSim& operator=(const ServiceSim&) = delete;

  // ---- helpers ---------------------------------------------------------

  [[nodiscard]] double now() const { return dispatch.now(); }

  [[nodiscard]] std::size_t alive_units() const {
    std::size_t count = 0;
    for (rt::UnitId g = 0; g < n; ++g) {
      if (!dispatch.dead(g)) ++count;
    }
    return count;
  }

  [[nodiscard]] std::string device_kind(rt::UnitId g) const {
    return cluster.unit(g).device->description();
  }

  /// held minus the units already marked to leave at their block boundary.
  [[nodiscard]] std::size_t effective_held(const JobRt& job) const {
    std::size_t away = 0;
    for (rt::UnitId g : job.held) {
      if (units[g].revoke_pending) ++away;
    }
    return job.held.size() - away;
  }

  void fail(std::string message) {
    if (res.error.empty()) res.error = std::move(message);
  }

  // ---- lease bookkeeping ----------------------------------------------

  /// Takes an *idle* unit away from `job` immediately (block boundary
  /// already reached). Notifies the job's scheduler so PLB-HeC re-solves
  /// the distribution over the survivors.
  void revoke_now(JobId id, rt::UnitId g) {
    PLBHEC_ASSERT(std::binary_search(jobs[id].held.begin(),
                                     jobs[id].held.end(), g));
    dispatch.release(g);
    end_lease(id, g);
    ++res.leases_revoked;
    PLBHEC_OBS_RECORD(options.sink,
                      {now(), obs::EventKind::kLeaseRevoked,
                       static_cast<std::uint32_t>(g), 0.0, 0.0, id,
                       jobs[id].held.size()});
  }

  /// Unit g leaves job `id`'s lease: revoked, or dead (the dispatcher's
  /// unit-lost callback).
  void end_lease(JobId id, rt::UnitId g) {
    JobRt& job = jobs[id];
    erase_sorted(job.held, g);
    erase_sorted(job.pending, g);
    units[g].leased = false;
    units[g].revoke_pending = false;
  }

  void grant(JobId id, rt::UnitId g) {
    JobRt& job = jobs[id];
    UnitRt& un = units[g];
    PLBHEC_ASSERT(!un.leased && !dispatch.busy(g) && !dispatch.dead(g));
    un.leased = true;
    insert_sorted(job.held, g);
    ++res.leases_granted;
    res.jobs[id].max_units_held =
        std::max(res.jobs[id].max_units_held, job.held.size());
    PLBHEC_OBS_RECORD(options.sink,
                      {now(), obs::EventKind::kLeaseGranted,
                       static_cast<std::uint32_t>(g), 0.0, 0.0, id,
                       job.held.size()});
    if (job.phase == JobPhase::kForming) {
      if (job.target > 0 && job.held.size() >= job.target) start_epoch(id);
    } else {
      // Running/draining: integrate at the drain boundary.
      insert_sorted(job.pending, g);
      if (job.phase == JobPhase::kRunning) job.phase = JobPhase::kDraining;
      if (job.sim.in_flight == 0) start_epoch(id);
    }
  }

  /// Accumulates the scheduler's warm/probing statistics into the job
  /// outcome; called once per scheduler instance, before it is replaced.
  void harvest(JobId id) { res.jobs[id] += jobs[id].scheduler->stats(); }

  [[nodiscard]] rt::WarmProfile warm_for(const JobRt& job, JobId id,
                                         rt::UnitId g) const {
    // Prefer the job's own observations (same workload instance, same
    // unit) over the cross-job store; they exist from the second epoch on.
    // Having them means grains completed, so the new epoch's total is below
    // job.total and ProfileDb::seed replays them rescaled; the selection
    // only gates the seed.
    if (job.exec_obs[g].size() >= 4) {
      rt::WarmProfile warm;
      warm.exec = job.exec_obs[g];
      warm.transfer = job.transfer_obs[g];
      warm.total_grains = static_cast<double>(job.sim.total);
      warm.fit = fit::select_model(warm.exec, options.scheduler.fit);
      return warm;
    }
    return store.warm_profile(specs[id].app_kind, device_kind(g));
  }

  /// Exec time of one step_fraction window of this job on the fastest
  /// unit of the *whole cluster* (not just the job's lease) — the
  /// yardstick for the bounded-preemption block cap. Using the cluster
  /// best means a job stranded on a slow lease keeps hitting block
  /// boundaries at the rate a good unit could serve it, so a grant or
  /// revocation never waits on one monster block. Liveness and speed come
  /// from each unit's static timeline at `at`, through the same device
  /// model call as sim::cost_block.
  [[nodiscard]] double best_window_seconds(const JobRt& job,
                                           double at) const {
    const auto window_grains = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               options.scheduler.step_fraction *
               static_cast<double>(job.sim.total))));
    double best = 0.0;
    for (rt::UnitId g = 0; g < n; ++g) {
      const sim::SimUnit& su = cluster.unit(g);
      if (su.failed_at(at)) continue;
      const double s = su.device->execution_seconds(
          job.sim.profile, static_cast<double>(window_grains),
          su.speed_factor(at));
      if (best == 0.0 || s < best) best = s;
    }
    return best;
  }

  /// (Re)starts the job's scheduler over its current lease with the
  /// remaining grains as the work total. Requires no in-flight tasks.
  void start_epoch(JobId id) {
    JobRt& job = jobs[id];
    PLBHEC_ASSERT(!job.held.empty());
    const bool restart = job.scheduler != nullptr;
    if (restart) {
      harvest(id);
      ++res.jobs[id].lease_restarts;
      ++res.scheduler_restarts;
    }
    job.pending.clear();
    dispatch.attach(job.sim, job.held);  // held is sorted: dense local ids
    std::vector<rt::UnitInfo> infos;
    infos.reserve(job.held.size());
    std::vector<rt::WarmProfile> warm;
    warm.reserve(job.held.size());
    for (rt::UnitId local = 0; local < job.held.size(); ++local) {
      const rt::UnitId g = job.held[local];
      infos.push_back(rt::sim_unit_info(cluster, g, local));
      warm.push_back(warm_for(job, id, g));
    }

    const std::size_t remaining = job.sim.total - job.sim.completed;
    PLBHEC_ASSERT(remaining > 0);
    const rt::WorkInfo work = rt::sim_work_info(*job.workload, remaining);

    core::PlbHecOptions opt = options.scheduler;
    opt.warm = std::move(warm);
    if (opt.max_block_seconds <= 0.0) {
      opt.max_block_seconds = kPreemptWindows * best_window_seconds(job, now());
    }
    job.scheduler = std::make_unique<core::PlbHecScheduler>(std::move(opt));
    job.sim.scheduler = job.scheduler.get();
    job.scheduler->set_event_sink(options.sink);
    job.scheduler->start(infos, work);
    job.phase = JobPhase::kRunning;
  }

  // ---- admission & lease renegotiation --------------------------------

  /// Admits queued jobs up to one per live unit, then recomputes every
  /// active job's unit target and moves leases toward the targets. Called
  /// whenever the active-job set or the live unit count changes.
  void renegotiate() {
    const std::size_t supply = alive_units();

    while (!queue.empty() && active.size() < supply) {
      const JobId id = queue.top();
      queue.pop();
      jobs[id].phase = JobPhase::kForming;
      jobs[id].exec_obs.resize(n);
      jobs[id].transfer_obs.resize(n);
      res.jobs[id].admitted = now();
      PLBHEC_OBS_RECORD(options.sink,
                        {now(), obs::EventKind::kJobAdmitted, obs::kNoUnit,
                         now() - res.jobs[id].arrival, 0.0, id,
                         queue.size()});
      insert_sorted(active, id);
    }
    if (active.empty()) return;

    // Unit targets: the first `supply` actives in admission order share
    // the live units under the fairness floor; any beyond (possible only
    // after unit deaths shrank supply below the admitted count) wait at
    // target 0 for capacity to free up.
    std::vector<JobId> entitled = active;
    if (entitled.size() > supply) {
      std::sort(entitled.begin(), entitled.end(),
                [&](JobId a, JobId b) { return admit.before(a, b); });
      entitled.resize(supply);
      std::sort(entitled.begin(), entitled.end());
    }
    for (JobId id : active) jobs[id].target = 0;
    if (!entitled.empty() && supply > 0) {
      std::vector<ActiveJobView> views;
      views.reserve(entitled.size());
      for (JobId id : entitled) {
        views.push_back({id, specs[id].priority});
      }
      const std::vector<std::size_t> targets = lease_targets(views, supply);
      for (std::size_t i = 0; i < entitled.size(); ++i) {
        jobs[entitled[i]].target = targets[i];
      }
    }
    rebalance();
  }

  void rebalance() {
    // Phase A: shed surplus. Idle units are revoked at once (they are at a
    // block boundary by definition); busy units are marked and handed over
    // when their current task completes. A victim is the highest-id
    // unmarked unit: unintegrated idle, then integrated idle, then busy.
    const auto last = [&](const std::vector<rt::UnitId>& from, bool busy) {
      const auto it =
          std::find_if(from.rbegin(), from.rend(), [&](rt::UnitId g) {
            return dispatch.busy(g) == busy && !units[g].revoke_pending;
          });
      return it == from.rend() ? std::optional<rt::UnitId>() : *it;
    };
    for (JobId id : active) {
      JobRt& job = jobs[id];
      while (effective_held(job) > job.target) {
        std::optional<rt::UnitId> idle = last(job.pending, false);
        if (!idle) idle = last(job.held, false);
        if (idle) {
          revoke_now(id, *idle);
        } else if (const auto busy = last(job.held, true)) {
          units[*busy].revoke_pending = true;
        } else {
          break;  // nothing left to shed
        }
      }
    }

    // Phase B: grant free units to jobs under target, neediest-priority
    // first (admission order).
    std::vector<JobId> order = active;
    std::sort(order.begin(), order.end(),
              [&](JobId a, JobId b) { return admit.before(a, b); });
    for (JobId id : order) {
      JobRt& job = jobs[id];
      while (effective_held(job) < job.target) {
        rt::UnitId free_unit = rt::UnitId(-1);
        for (rt::UnitId g = 0; g < n; ++g) {
          if (!units[g].leased && !dispatch.dead(g) && !dispatch.busy(g)) {
            free_unit = g;
            break;
          }
        }
        if (free_unit == rt::UnitId(-1)) break;  // wait for boundaries
        grant(id, free_unit);
      }
    }
  }

  // ---- dispatch & completion -------------------------------------------

  void assign_work() {
    for (JobId id : active) {
      JobRt& job = jobs[id];
      if (job.phase != JobPhase::kRunning) continue;
      if (job.held.empty()) {
        // Every unit was revoked between boundaries; wait for new grants.
        if (job.sim.in_flight == 0) job.phase = JobPhase::kForming;
        continue;
      }
      if (dispatch.dispatch(job.sim) ==
          rt::SimDispatcher::Outcome::kRefused) {
        fail("scheduler for job '" + specs[id].name +
             "' refused to assign work after a barrier");
      }
    }
  }

  void complete_job(JobId id) {
    JobRt& job = jobs[id];
    harvest(id);
    JobOutcome& out = res.jobs[id];
    out.finished = now();
    out.ok = true;
    res.completion_order.push_back(id);
    PLBHEC_OBS_RECORD(options.sink,
                      {now(), obs::EventKind::kJobCompleted, obs::kNoUnit,
                       now() - out.admitted, out.queue_wait(), id,
                       job.sim.total});

    // Merge this job's best-profiled unit of every device kind into the
    // store — the warm-start capital for future jobs — and persist it.
    std::map<std::string, rt::UnitId> best;
    for (rt::UnitId g = 0; g < n; ++g) {
      const std::size_t size = job.exec_obs[g].size();
      if (size < 4) continue;
      const std::string kind = device_kind(g);
      const auto it = best.find(kind);
      if (it == best.end() || size > job.exec_obs[it->second].size()) {
        best[kind] = g;
      }
    }
    for (const auto& [kind, g] : best) {
      store.put(make_entry(specs[id].app_kind, kind, job.exec_obs[g],
                           job.transfer_obs[g],
                           static_cast<double>(job.sim.total)));
    }
    if (!options.store_path.empty() && !store.save(options.store_path) &&
        options.counters != nullptr) {
      options.counters->add("svc.store.save_failed");
    }
    job.exec_obs = {};
    job.transfer_obs = {};

    while (!job.held.empty()) end_lease(id, job.held.back());
    dispatch.attach(job.sim, {});
    job.sim.scheduler = nullptr;
    job.scheduler.reset();
    job.phase = JobPhase::kDone;
    erase_sorted(active, id);
    renegotiate();
  }

  /// The lease side of a block the dispatcher retired: its scheduler has
  /// already heard of the completion or the failure.
  void retire(const rt::SimDispatcher::Retired& retired) {
    const JobId id = retired.job->id;
    JobRt& job = jobs[id];
    if (retired.failed) {
      renegotiate();  // the dead unit's lease already ended
    } else {
      const rt::TaskObservation& task = retired.task;
      JobOutcome& out = res.jobs[id];
      ++out.tasks;
      out.busy_seconds += task.transfer_seconds + task.exec_seconds;
      res.busy_unit_seconds += task.transfer_seconds + task.exec_seconds;
      const double x = static_cast<double>(task.grains) /
                       static_cast<double>(job.sim.total);
      job.exec_obs[retired.unit].add(x, task.exec_seconds);
      job.transfer_obs[retired.unit].add(x, task.transfer_seconds);
      if (job.sim.completed == job.sim.total) {
        complete_job(id);
        assign_work();
        return;
      }
      if (units[retired.unit].revoke_pending) {
        revoke_now(id, retired.unit);
        renegotiate();
      }
    }
    if (job.phase == JobPhase::kDraining && job.sim.in_flight == 0 &&
        !job.held.empty()) {
      start_epoch(id);
    }
    assign_work();
  }

  // ---- the event loop --------------------------------------------------

  void run() {
    jobs.resize(specs.size());
    res.jobs.resize(specs.size());
    for (JobId id = 0; id < specs.size(); ++id) {
      const JobSpec& spec = specs[id];
      JobRt& job = jobs[id];
      job.workload = spec.make_workload();
      PLBHEC_EXPECTS(job.workload != nullptr);
      job.sim = rt::SimJob(id, *job.workload);
      PLBHEC_EXPECTS(job.sim.total > 0);
      JobOutcome& out = res.jobs[id];
      out.id = id;
      out.name = spec.name;
      out.app_kind = spec.app_kind;
      out.priority = spec.priority;
      out.arrival = spec.arrival_time;
      out.total_grains = job.sim.total;
    }

    // Arrivals fire in (time, submission) order, each before any block
    // event at the same virtual time.
    std::vector<JobId> by_arrival(specs.size());
    for (JobId id = 0; id < specs.size(); ++id) by_arrival[id] = id;
    std::stable_sort(by_arrival.begin(), by_arrival.end(),
                     [&](JobId a, JobId b) {
                       return specs[a].arrival_time < specs[b].arrival_time;
                     });
    auto next_arrival = by_arrival.begin();
    while (res.error.empty()) {
      if (next_arrival != by_arrival.end() &&
          specs[*next_arrival].arrival_time <= dispatch.next_time()) {
        if (!dispatch.advance(specs[*next_arrival].arrival_time)) break;
        queue.push(*next_arrival++);
        renegotiate();
        assign_work();
      } else if (const auto retired = dispatch.step()) {
        retire(*retired);
      } else {
        break;
      }
    }
    if (!dispatch.error().empty()) fail(dispatch.error());
    finalize();
  }

  void finalize() {
    if (res.error.empty()) {
      for (JobId id = 0; id < jobs.size(); ++id) {
        if (jobs[id].phase != JobPhase::kDone) {
          res.error = "job '" + specs[id].name +
                      "' never completed (service stalled)";
          break;
        }
      }
    }
    res.ok = res.error.empty();

    for (const JobOutcome& out : res.jobs) {
      res.makespan = std::max(res.makespan, out.finished);
      res += out;
    }
    if (res.makespan > 0.0 && n > 0) {
      res.utilization =
          res.busy_unit_seconds / (static_cast<double>(n) * res.makespan);
    }
  }
};

/// The end-of-run ServiceResult totals JobManager::run publishes to the
/// counter registry, under their svc.* names.
constexpr std::pair<std::string_view, std::size_t ServiceResult::*>
    kPublishedTotals[] = {
        {"svc.leases_granted", &ServiceResult::leases_granted},
        {"svc.leases_revoked", &ServiceResult::leases_revoked},
        {"svc.scheduler_restarts", &ServiceResult::scheduler_restarts},
        {"svc.warmstart.hits", &ServiceResult::warm_hits},
        {"svc.warmstart.misses", &ServiceResult::warm_misses},
        {"svc.warmstart.stale_skips", &ServiceResult::warm_stale_skips},
        {"svc.adapt.drift_detections", &ServiceResult::drift_detections},
        {"svc.adapt.reprobe_blocks", &ServiceResult::reprobe_blocks},
        {"svc.adapt.reprobe_swaps", &ServiceResult::reprobe_swaps},
        {"svc.probe_blocks", &ServiceResult::probe_blocks},
        {"svc.probe_blocks_saved", &ServiceResult::probe_blocks_saved},
};

}  // namespace

JobManager::JobManager(const sim::SimCluster& cluster, ServiceOptions options)
    : cluster_(cluster), options_(std::move(options)) {
  PLBHEC_EXPECTS(options_.shards == 1);
  if (!options_.store_path.empty()) {
    store_status_ = ProfileStore::load(options_.store_path, store_);
    if (store_status_ != StoreLoadStatus::kOk &&
        store_status_ != StoreLoadStatus::kMissing &&
        options_.counters != nullptr) {
      options_.counters->add("svc.store.load_failed");
    }
  }
}

JobId JobManager::submit(JobSpec spec) {
  PLBHEC_EXPECTS(!ran_);
  PLBHEC_EXPECTS(spec.make_workload != nullptr);
  specs_.push_back(std::move(spec));
  return specs_.size() - 1;
}

ServiceResult JobManager::run() {
  PLBHEC_EXPECTS(!ran_);
  ran_ = true;
  ServiceSim sim(cluster_, options_, specs_, store_);
  sim.res.store_status = store_status_;
  if (specs_.empty()) {
    sim.res.ok = true;
    return std::move(sim.res);
  }
  sim.run();
  if (obs::CounterRegistry* reg = options_.counters) {
    reg->add("svc.jobs_submitted", specs_.size());
    reg->add("svc.jobs_completed", sim.res.completion_order.size());
    for (const auto& [name, field] : kPublishedTotals) {
      reg->add(name, sim.res.*field);
    }
  }
  return std::move(sim.res);
}

}  // namespace plbhec::svc
