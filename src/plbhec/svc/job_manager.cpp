#include "plbhec/svc/job_manager.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <queue>
#include <string_view>
#include <utility>

#include "plbhec/common/contracts.hpp"
#include "plbhec/common/rng.hpp"
#include "plbhec/obs/events.hpp"

namespace plbhec::svc {
namespace {

enum class EvKind { kArrival, kCompletion, kFailure };

struct Ev {
  double time = 0.0;
  std::uint64_t seq = 0;  ///< tie-break: earlier-pushed event fires first
  EvKind kind = EvKind::kArrival;
  JobId job = 0;
  rt::UnitId unit = 0;
};

struct EvLater {
  bool operator()(const Ev& a, const Ev& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

struct InFlight {
  JobId job = 0;
  rt::UnitId local = 0;
  std::size_t grains = 0;
  double start = 0.0;
  double transfer_s = 0.0;
  double exec_s = 0.0;
};

struct UnitRt {
  bool busy = false;
  bool dead = false;
  bool leased = false;
  JobId owner = 0;
  /// Lease marked for revocation at this unit's next block boundary.
  bool revoke_pending = false;
  InFlight task;
};

enum class JobPhase : std::uint8_t {
  kPending,   ///< not yet arrived
  kQueued,    ///< in the admission queue
  kForming,   ///< admitted, assembling its unit lease
  kRunning,   ///< scheduler active
  kDraining,  ///< lease grew: no new blocks until in-flight work drains
  kDone,
};

struct JobRt {
  JobPhase phase = JobPhase::kPending;
  std::unique_ptr<rt::Workload> workload;
  sim::WorkloadProfile profile;
  double bytes_per_grain = 0.0;
  std::size_t total = 0;
  std::size_t completed = 0;
  std::size_t issued = 0;
  std::size_t target = 0;  ///< lease policy's current unit entitlement
  std::vector<rt::UnitId> held;     ///< sorted global ids (incl. pending)
  std::vector<rt::UnitId> pending;  ///< granted but not yet integrated
  std::map<rt::UnitId, rt::UnitId> global_to_local;  ///< current epoch
  std::vector<rt::UnitId> local_to_global;
  std::unique_ptr<rt::Scheduler> scheduler;
  core::PlbHecScheduler* plb = nullptr;  ///< stats view; null once harvested
  std::size_t in_flight = 0;
  /// Service-side observation log in the *job* fraction domain (x =
  /// grains / total), per global unit — the warm seed for epoch restarts
  /// and the job's store entries. Held from admission until the entries
  /// are put.
  std::vector<fit::SampleSet> exec_obs;
  std::vector<fit::SampleSet> transfer_obs;

  [[nodiscard]] std::size_t unassigned() const { return total - issued; }
};

void insert_sorted(std::vector<rt::UnitId>& v, rt::UnitId g) {
  v.insert(std::lower_bound(v.begin(), v.end(), g), g);
}

void erase_sorted(std::vector<rt::UnitId>& v, rt::UnitId g) {
  const auto it = std::lower_bound(v.begin(), v.end(), g);
  if (it != v.end() && *it == g) v.erase(it);
}

void insert_sorted_job(std::vector<JobId>& v, JobId id) {
  v.insert(std::lower_bound(v.begin(), v.end(), id), id);
}

void erase_sorted_job(std::vector<JobId>& v, JobId id) {
  const auto it = std::lower_bound(v.begin(), v.end(), id);
  if (it != v.end() && *it == id) v.erase(it);
}

/// Admission order: priority class first, then submission id (FIFO within
/// class). Returns true when `a` should leave the queue *after* `b`, i.e.
/// the priority_queue's top() is the next job to admit.
struct AdmitLater {
  const std::vector<JobSpec>* specs = nullptr;
  bool operator()(JobId a, JobId b) const {
    const auto pa = static_cast<std::uint8_t>((*specs)[a].priority);
    const auto pb = static_cast<std::uint8_t>((*specs)[b].priority);
    if (pa != pb) return pa > pb;
    return a > b;
  }
};

/// The whole per-run state; constructed fresh inside run() so the event
/// loop's working set dies with it.
struct ServiceSim {
  const sim::SimCluster& cluster;
  const ServiceOptions& options;
  const std::vector<JobSpec>& specs;
  ProfileStore& store;

  std::size_t n = 0;
  std::vector<UnitRt> units;
  std::vector<Rng> unit_rng;
  std::vector<JobRt> jobs;
  std::priority_queue<JobId, std::vector<JobId>, AdmitLater> queue;
  std::priority_queue<Ev, std::vector<Ev>, EvLater> events;
  std::uint64_t seq = 0;
  double now = 0.0;
  std::size_t processed = 0;
  std::size_t barriers = 0;   ///< scheduler barriers reached, all jobs
  std::vector<JobId> active;  ///< sorted; phases forming/running/draining
  ServiceResult res;

  ServiceSim(const sim::SimCluster& c, const ServiceOptions& o,
             const std::vector<JobSpec>& s, ProfileStore& st)
      : cluster(c), options(o), specs(s), store(st), queue(AdmitLater{&s}) {}

  // ---- helpers ---------------------------------------------------------

  [[nodiscard]] std::size_t alive_units() const {
    std::size_t count = 0;
    for (const UnitRt& un : units) {
      if (!un.dead) ++count;
    }
    return count;
  }

  [[nodiscard]] bool admission_before(JobId a, JobId b) const {
    const auto pa = static_cast<std::uint8_t>(specs[a].priority);
    const auto pb = static_cast<std::uint8_t>(specs[b].priority);
    if (pa != pb) return pa < pb;
    return a < b;  // FIFO within class (ids follow submission order)
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
    JobRt& job = jobs[id];
    UnitRt& un = units[g];
    PLBHEC_ASSERT(!un.busy && un.leased && un.owner == id);
    const auto it = job.global_to_local.find(g);
    if (it != job.global_to_local.end()) {
      if (job.scheduler) job.scheduler->on_unit_failed(it->second, 0, now);
      job.global_to_local.erase(it);
    }
    erase_sorted(job.held, g);
    erase_sorted(job.pending, g);
    un.leased = false;
    un.revoke_pending = false;
    ++res.leases_revoked;
    PLBHEC_OBS_RECORD(options.sink,
                      {now, obs::EventKind::kLeaseRevoked,
                       static_cast<std::uint32_t>(g), 0.0, 0.0, id,
                       job.held.size()});
  }

  void grant(JobId id, rt::UnitId g) {
    JobRt& job = jobs[id];
    UnitRt& un = units[g];
    PLBHEC_ASSERT(!un.leased && !un.busy && !un.dead);
    un.leased = true;
    un.owner = id;
    insert_sorted(job.held, g);
    ++res.leases_granted;
    res.jobs[id].max_units_held =
        std::max(res.jobs[id].max_units_held, job.held.size());
    PLBHEC_OBS_RECORD(options.sink,
                      {now, obs::EventKind::kLeaseGranted,
                       static_cast<std::uint32_t>(g), 0.0, 0.0, id,
                       job.held.size()});
    if (job.phase == JobPhase::kForming) {
      if (job.target > 0 && job.held.size() >= job.target) start_epoch(id);
    } else {
      // Running/draining: integrate at the drain boundary.
      insert_sorted(job.pending, g);
      if (job.phase == JobPhase::kRunning) job.phase = JobPhase::kDraining;
      if (job.in_flight == 0) start_epoch(id);
    }
  }

  /// Accumulates the scheduler's warm/probing statistics into the job
  /// outcome (once per scheduler instance).
  void harvest(JobId id) {
    JobRt& job = jobs[id];
    if (job.plb == nullptr) return;
    res.jobs[id] += job.plb->stats();
    job.plb = nullptr;
  }

  [[nodiscard]] rt::WarmProfile warm_for(const JobRt& job, JobId id,
                                         rt::UnitId g) const {
    if (!options.warm_start) return {};
    // Prefer the job's own observations (same workload instance, same
    // unit) over the cross-job store; they exist from the second epoch on.
    // Having them means grains completed, so the new epoch's total is below
    // job.total and ProfileDb::seed replays them rescaled; the selection
    // only gates the seed.
    if (job.exec_obs[g].size() >= 4) {
      rt::WarmProfile warm;
      warm.exec = job.exec_obs[g];
      warm.transfer = job.transfer_obs[g];
      warm.total_grains = static_cast<double>(job.total);
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
               static_cast<double>(job.total))));
    double best = 0.0;
    for (rt::UnitId g = 0; g < n; ++g) {
      const sim::SimUnit& su = cluster.unit(g);
      if (su.failed_at(at)) continue;
      const double s = su.device->execution_seconds(
          job.profile, static_cast<double>(window_grains),
          su.speed_factor(at));
      if (best == 0.0 || s < best) best = s;
    }
    return best;
  }

  /// (Re)starts the job's scheduler over its current lease with the
  /// remaining grains as the work total. Requires no in-flight tasks.
  void start_epoch(JobId id) {
    JobRt& job = jobs[id];
    PLBHEC_ASSERT(job.in_flight == 0);
    PLBHEC_ASSERT(!job.held.empty());
    const bool restart = job.scheduler != nullptr;
    if (restart) {
      harvest(id);
      ++res.jobs[id].lease_restarts;
      ++res.scheduler_restarts;
    }
    job.pending.clear();
    job.local_to_global = job.held;  // held is sorted: dense local ids
    job.global_to_local.clear();
    std::vector<rt::UnitInfo> infos;
    infos.reserve(job.held.size());
    std::vector<rt::WarmProfile> warm;
    warm.reserve(job.held.size());
    for (rt::UnitId local = 0; local < job.local_to_global.size(); ++local) {
      const rt::UnitId g = job.local_to_global[local];
      job.global_to_local[g] = local;
      const sim::SimUnit& su = cluster.unit(g);
      rt::UnitInfo info;
      info.id = local;
      info.name = su.name;
      info.kind = su.device->kind() == sim::DeviceKind::kGpu
                      ? rt::ProcKind::kGpu
                      : rt::ProcKind::kCpu;
      info.machine = su.machine_index;
      infos.push_back(std::move(info));
      warm.push_back(warm_for(job, id, g));
    }

    const std::size_t remaining = job.total - job.completed;
    PLBHEC_ASSERT(remaining > 0);
    job.issued = job.completed;  // lost in-flight grains are back in the pool
    rt::WorkInfo work;
    work.name = job.workload->name();
    work.total_grains = remaining;
    work.bytes_per_grain = job.bytes_per_grain;
    work.initial_block = std::max<std::size_t>(1, remaining / 512);

    if (options.make_scheduler) {
      job.scheduler =
          options.make_scheduler(specs[id], infos, work, std::move(warm));
      job.plb = dynamic_cast<core::PlbHecScheduler*>(job.scheduler.get());
    } else {
      core::PlbHecOptions opt = options.scheduler;
      opt.warm = std::move(warm);
      if (opt.max_block_seconds <= 0.0 && options.preempt_windows > 0.0) {
        opt.max_block_seconds =
            options.preempt_windows * best_window_seconds(job, now);
      }
      auto plb = std::make_unique<core::PlbHecScheduler>(std::move(opt));
      job.plb = plb.get();
      job.scheduler = std::move(plb);
    }
    job.scheduler->set_event_sink(options.sink);
    job.scheduler->start(infos, work);
    job.phase = JobPhase::kRunning;
  }

  // ---- admission & lease renegotiation --------------------------------

  /// Admits queued jobs up to the concurrency cap, then recomputes every
  /// active job's unit target and moves leases toward the targets. Called
  /// whenever the active-job set or the live unit count changes.
  void renegotiate() {
    const std::size_t supply = alive_units();

    std::size_t cap = options.lease.max_active_jobs == 0
                          ? supply
                          : std::min(options.lease.max_active_jobs, supply);
    while (!queue.empty() && active.size() < cap) {
      const JobId id = queue.top();
      queue.pop();
      jobs[id].phase = JobPhase::kForming;
      jobs[id].exec_obs.resize(n);
      jobs[id].transfer_obs.resize(n);
      res.jobs[id].admitted = now;
      PLBHEC_OBS_RECORD(options.sink,
                        {now, obs::EventKind::kJobAdmitted, obs::kNoUnit,
                         now - res.jobs[id].arrival, 0.0, id, queue.size()});
      insert_sorted_job(active, id);
    }
    if (active.empty()) return;

    // Unit targets: the first `supply` actives in admission order share
    // the live units under the fairness floor; any beyond (possible only
    // after unit deaths shrank supply below the admitted count) wait at
    // target 0 for capacity to free up.
    std::vector<JobId> entitled = active;
    if (entitled.size() > supply) {
      std::sort(entitled.begin(), entitled.end(),
                [&](JobId a, JobId b) { return admission_before(a, b); });
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
      const std::vector<std::size_t> targets =
          lease_targets(views, supply, options.lease);
      for (std::size_t i = 0; i < entitled.size(); ++i) {
        jobs[entitled[i]].target = targets[i];
      }
    }
    rebalance();
  }

  void rebalance() {
    // Phase A: shed surplus. Idle units are revoked at once (they are at a
    // block boundary by definition); busy units are marked and handed over
    // when their current task completes.
    for (JobId id : active) {
      JobRt& job = jobs[id];
      while (effective_held(job) > job.target) {
        rt::UnitId victim = rt::UnitId(-1);
        bool victim_idle = false;
        // Prefer (highest-id): unintegrated idle, then integrated idle,
        // then busy not yet marked.
        for (auto it = job.pending.rbegin(); it != job.pending.rend(); ++it) {
          if (!units[*it].busy && !units[*it].revoke_pending) {
            victim = *it;
            victim_idle = true;
            break;
          }
        }
        if (victim == rt::UnitId(-1)) {
          for (auto it = job.held.rbegin(); it != job.held.rend(); ++it) {
            if (!units[*it].busy && !units[*it].revoke_pending) {
              victim = *it;
              victim_idle = true;
              break;
            }
          }
        }
        if (victim == rt::UnitId(-1)) {
          for (auto it = job.held.rbegin(); it != job.held.rend(); ++it) {
            if (units[*it].busy && !units[*it].revoke_pending) {
              victim = *it;
              break;
            }
          }
        }
        if (victim == rt::UnitId(-1)) break;  // nothing left to shed
        if (victim_idle) {
          revoke_now(id, victim);
        } else {
          units[victim].revoke_pending = true;
        }
      }
    }

    // Phase B: grant free units to jobs under target, neediest-priority
    // first (admission order).
    std::vector<JobId> order = active;
    std::sort(order.begin(), order.end(),
              [&](JobId a, JobId b) { return admission_before(a, b); });
    for (JobId id : order) {
      JobRt& job = jobs[id];
      while (effective_held(job) < job.target) {
        rt::UnitId free_unit = rt::UnitId(-1);
        for (rt::UnitId g = 0; g < n; ++g) {
          if (!units[g].leased && !units[g].dead && !units[g].busy) {
            free_unit = g;
            break;
          }
        }
        if (free_unit == rt::UnitId(-1)) break;  // wait for boundaries
        grant(id, free_unit);
      }
    }
  }

  // ---- task issue & completion -----------------------------------------

  void retire_unit(JobId id, rt::UnitId g, std::size_t lost_grains) {
    JobRt& job = jobs[id];
    UnitRt& un = units[g];
    un.dead = true;
    un.leased = false;
    un.revoke_pending = false;
    const auto it = job.global_to_local.find(g);
    if (it != job.global_to_local.end()) {
      if (job.scheduler) {
        job.scheduler->on_unit_failed(it->second, lost_grains, now);
      }
      job.global_to_local.erase(it);
    }
    erase_sorted(job.held, g);
    erase_sorted(job.pending, g);
    PLBHEC_OBS_RECORD(options.sink,
                      {now, obs::EventKind::kUnitFailed,
                       static_cast<std::uint32_t>(g), 0.0, 0.0, lost_grains,
                       id});
  }

  void issue(JobId id, rt::UnitId g, rt::UnitId local, std::size_t grains) {
    JobRt& job = jobs[id];
    UnitRt& un = units[g];
    const sim::BlockCost cost =
        sim::cost_block(cluster.unit(g), job.profile, job.bytes_per_grain,
                        grains, now, options.noise, unit_rng[g]);
    un.busy = true;
    un.task = {id, local, grains, now, cost.transfer_s, cost.exec_s};
    job.issued += grains;
    ++job.in_flight;
    PLBHEC_OBS_RECORD(options.sink,
                      {now, obs::EventKind::kBlockDispatched,
                       static_cast<std::uint32_t>(g), 0.0, 0.0, grains, seq});
    events.push({cost.event_s, seq++,
                 cost.fails ? EvKind::kFailure : EvKind::kCompletion, id, g});
  }

  /// One assignment sweep over a job's leased units; returns the number of
  /// tasks issued.
  std::size_t assignment_round(JobId id) {
    JobRt& job = jobs[id];
    std::size_t assigned = 0;
    for (rt::UnitId local = 0; local < job.local_to_global.size(); ++local) {
      const rt::UnitId g = job.local_to_global[local];
      const auto it = job.global_to_local.find(g);
      if (it == job.global_to_local.end()) continue;  // revoked this epoch
      UnitRt& un = units[g];
      if (un.busy || un.dead) continue;
      if (cluster.unit(g).failed_at(now)) {  // failed while idle
        retire_unit(id, g, 0);
        continue;
      }
      if (job.unassigned() == 0) break;
      std::size_t grains = job.scheduler->next_block(local, now);
      grains = std::min(grains, job.unassigned());
      if (grains == 0) continue;
      issue(id, g, local, grains);
      ++assigned;
    }
    return assigned;
  }

  void assign_work() {
    for (JobId id : active) {
      JobRt& job = jobs[id];
      if (job.phase != JobPhase::kRunning) continue;
      if (job.held.empty()) {
        // Every unit was revoked between boundaries; wait for new grants.
        if (job.in_flight == 0) job.phase = JobPhase::kForming;
        continue;
      }
      std::size_t assigned = assignment_round(id);
      // Engine barrier protocol, per job: all units idle + work remains.
      if (assigned == 0 && job.in_flight == 0 && job.unassigned() > 0) {
        job.scheduler->on_barrier(now);
        ++barriers;
        PLBHEC_OBS_RECORD(options.sink,
                          {now, obs::EventKind::kBarrier, obs::kNoUnit, 0.0,
                           0.0, barriers, id});
        assigned = assignment_round(id);
        if (assigned == 0 && job.in_flight == 0 &&
            !job.global_to_local.empty()) {
          fail("scheduler for job '" + specs[id].name +
               "' refused to assign work after a barrier");
        }
      }
    }
  }

  void complete_job(JobId id) {
    JobRt& job = jobs[id];
    harvest(id);
    JobOutcome& out = res.jobs[id];
    out.finished = now;
    out.ok = true;
    res.completion_order.push_back(id);
    PLBHEC_OBS_RECORD(options.sink,
                      {now, obs::EventKind::kJobCompleted, obs::kNoUnit,
                       now - out.admitted, out.queue_wait(), id, job.total});

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
                           static_cast<double>(job.total)));
    }
    if (!options.store_path.empty() && !store.save(options.store_path) &&
        options.counters != nullptr) {
      options.counters->add("svc.store.save_failed");
    }
    job.exec_obs = {};
    job.transfer_obs = {};

    for (const rt::UnitId g : std::vector<rt::UnitId>(job.held)) {
      units[g].leased = false;
      units[g].revoke_pending = false;
    }
    job.held.clear();
    job.pending.clear();
    job.global_to_local.clear();
    job.scheduler.reset();
    job.phase = JobPhase::kDone;
    erase_sorted_job(active, id);
    renegotiate();
  }

  void handle_completion(const Ev& ev, bool failed) {
    UnitRt& un = units[ev.unit];
    PLBHEC_ASSERT(un.busy);
    un.busy = false;
    const InFlight task = un.task;
    JobRt& job = jobs[task.job];
    --job.in_flight;

    if (failed) {
      job.issued -= task.grains;  // grains return to the pool
      retire_unit(task.job, ev.unit, task.grains);
      renegotiate();
    } else {
      job.completed += task.grains;
      JobOutcome& out = res.jobs[task.job];
      ++out.tasks;
      out.busy_seconds += task.transfer_s + task.exec_s;
      res.busy_unit_seconds += task.transfer_s + task.exec_s;
      if (task.grains > 0) {
        const double x = static_cast<double>(task.grains) /
                         static_cast<double>(job.total);
        job.exec_obs[ev.unit].add(x, task.exec_s);
        job.transfer_obs[ev.unit].add(x, task.transfer_s);
      }
      if (job.scheduler) {
        job.scheduler->on_complete({task.local, task.grains, task.transfer_s,
                                    task.exec_s, task.start, now});
      }
      if (job.completed >= job.total) {
        complete_job(task.job);
        assign_work();
        return;
      }
      if (un.revoke_pending && !un.dead) {
        revoke_now(task.job, ev.unit);
        renegotiate();
      }
    }
    if (job.phase == JobPhase::kDraining && job.in_flight == 0 &&
        !job.held.empty()) {
      start_epoch(task.job);
    }
    assign_work();
  }

  // ---- the event loop --------------------------------------------------

  /// Fires the next event. Callers guarantee the queue is non-empty and
  /// the run has not failed.
  void step() {
    const Ev ev = events.top();
    events.pop();
    PLBHEC_ASSERT(ev.time >= now);
    now = ev.time;
    if (++processed > sim::kMaxEvents) {
      fail("service exceeded the event watchdog");
      return;
    }
    if (now > sim::kMaxSimSeconds) {
      fail("service exceeded the simulated-time watchdog");
      return;
    }
    switch (ev.kind) {
      case EvKind::kArrival:
        jobs[ev.job].phase = JobPhase::kQueued;
        queue.push(ev.job);
        renegotiate();
        assign_work();
        break;
      case EvKind::kCompletion:
        handle_completion(ev, /*failed=*/false);
        break;
      case EvKind::kFailure:
        handle_completion(ev, /*failed=*/true);
        break;
    }
  }

  void run() {
    n = cluster.size();
    units.assign(n, {});
    unit_rng.clear();
    unit_rng.reserve(n);
    Rng master(options.seed);
    for (rt::UnitId g = 0; g < n; ++g) unit_rng.push_back(master.fork(g + 1));

    jobs.resize(specs.size());
    res.jobs.resize(specs.size());
    res.ok = true;
    for (JobId id = 0; id < specs.size(); ++id) {
      const JobSpec& spec = specs[id];
      JobRt& job = jobs[id];
      job.workload = spec.make_workload();
      PLBHEC_EXPECTS(job.workload != nullptr);
      job.total = job.workload->total_grains();
      PLBHEC_EXPECTS(job.total > 0);
      job.profile = job.workload->profile();
      job.bytes_per_grain = job.workload->bytes_per_grain();
      JobOutcome& out = res.jobs[id];
      out.id = id;
      out.name = spec.name;
      out.app_kind = spec.app_kind;
      out.priority = spec.priority;
      out.arrival = spec.arrival_time;
      out.total_grains = job.total;
    }

    // Arrival events, sequenced by (time, submission order).
    std::vector<JobId> by_arrival(specs.size());
    for (JobId id = 0; id < specs.size(); ++id) by_arrival[id] = id;
    std::stable_sort(by_arrival.begin(), by_arrival.end(),
                     [&](JobId a, JobId b) {
                       return specs[a].arrival_time < specs[b].arrival_time;
                     });
    for (JobId id : by_arrival) {
      events.push({specs[id].arrival_time, seq++, EvKind::kArrival, id, 0});
    }

    while (!events.empty() && res.error.empty()) step();
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
