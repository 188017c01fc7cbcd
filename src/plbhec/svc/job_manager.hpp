#pragma once
/// \file job_manager.hpp
/// Multi-tenant scheduling service on top of the single-job runtime: jobs
/// arrive over virtual time into an admission queue (FIFO within priority
/// class), up to one admitted job per live unit, each admitted job runs its
/// own PLB-HeC instance against a *leased* subset of the cluster's
/// processing units, and the lease policy (lease.hpp) rebalances unit
/// targets whenever the active-job set changes.
///
/// Leasing protocol: schedulers are never told about tenancy — each sees a
/// dense local unit-id space the service remaps to global units.
///  - Revocation happens at a block boundary: a unit owed to another job
///    finishes its in-flight task, the owner's scheduler gets
///    on_unit_failed(local, 0) (PLB-HeC natively redistributes the load),
///    and the unit moves to the needy job.
///  - Growth drains: the job stops receiving new blocks, and once its
///    in-flight tasks complete, the service restarts a fresh scheduler
///    over the enlarged lease with the *remaining* grains as the total —
///    warm-seeded from the job's own observation log, so the restarted
///    modeling phase is one validation block per already-profiled unit.
///
/// Warm start across jobs: at admission the per-(app kind, device kind)
/// profiles loaded from the ProfileStore are handed to PLB-HeC, which
/// replaces the exponential probing schedule with a single validation
/// block when the stored fit still holds (see PlbHecOptions::warm). On
/// completion the job's samples are put back and persisted; a failed
/// write bumps the svc.store.save_failed counter.
///
/// Bounded preemption latency: unless the base options set their own
/// PlbHecOptions::max_block_seconds, each epoch's scheduler gets 16
/// execution windows of this job on the cluster's best unit, so block
/// boundaries — the only points where leases can be revoked or grown —
/// arrive at the rate the *cluster* could serve the job, not the rate of
/// whichever slow unit its current lease happens to hold. Without it, a
/// job admitted on a one-unit lease skipped the probing ramp and issued a
/// quarter of its grains as a single unpreemptible block (see
/// EXPERIMENTS.md).
///
/// One event loop: arrivals, block completions and unit failures fire in
/// virtual-time order. Each job's lease is dispatched by rt::SimDispatcher,
/// as rt::SimEngine's one job is, so a job alone on the cluster is the
/// engine's run and every fault reaches a service job as it reaches it.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "plbhec/core/plb_hec.hpp"
#include "plbhec/obs/counters.hpp"
#include "plbhec/obs/sink.hpp"
#include "plbhec/rt/workload.hpp"
#include "plbhec/sim/cluster.hpp"
#include "plbhec/svc/lease.hpp"
#include "plbhec/svc/profile_store.hpp"

namespace plbhec::svc {

/// One job submitted to the service.
struct JobSpec {
  std::string name;      ///< display name, e.g. "mm-0"
  std::string app_kind;  ///< ProfileStore key, e.g. "matmul-2048"
  PriorityClass priority = PriorityClass::kNormal;
  double arrival_time = 0.0;  ///< virtual seconds
  /// Factory for the job's workload (invoked once, at submit).
  std::function<std::unique_ptr<rt::Workload>()> make_workload;
};

/// Per-job outcome of one service run; the probe, warm and drift counters
/// (core::ProbeStats) sum every scheduler epoch of the job.
struct JobOutcome : core::ProbeStats {
  JobId id = 0;
  std::string name;
  std::string app_kind;
  PriorityClass priority = PriorityClass::kNormal;
  double arrival = 0.0;
  double admitted = -1.0;  ///< when the job left the admission queue
  double finished = -1.0;
  std::size_t total_grains = 0;
  std::size_t tasks = 0;
  double busy_seconds = 0.0;  ///< transfer + exec over all its tasks
  std::size_t lease_restarts = 0;  ///< drain-and-regrow scheduler restarts
  std::size_t max_units_held = 0;
  bool ok = false;

  [[nodiscard]] double queue_wait() const { return admitted - arrival; }
  [[nodiscard]] double turnaround() const { return finished - arrival; }
};

/// Outcome of one service run; the probe, warm and drift counters
/// (core::ProbeStats) sum every job's.
struct ServiceResult : core::ProbeStats {
  bool ok = false;
  std::string error;
  double makespan = 0.0;  ///< finish time of the last job (virtual seconds)
  std::vector<JobOutcome> jobs;  ///< indexed by JobId (submission order)
  std::vector<JobId> completion_order;
  double busy_unit_seconds = 0.0;
  double utilization = 0.0;  ///< busy_unit_seconds / (units * makespan)
  std::size_t leases_granted = 0;
  std::size_t leases_revoked = 0;
  std::size_t scheduler_restarts = 0;
  StoreLoadStatus store_status = StoreLoadStatus::kMissing;
};

struct ServiceOptions {
  sim::NoiseModel noise;
  std::uint64_t seed = 42;
  /// Base options for every per-job PLB-HeC instance; the service fills in
  /// the `warm` vector per epoch, and max_block_seconds when it is 0 (see
  /// "Bounded preemption latency" above).
  core::PlbHecOptions scheduler;
  /// On-disk ProfileStore path; empty = in-memory only (still carries
  /// profiles across jobs within this service instance).
  std::string store_path;
  /// Must be 1: the service runs one event loop, and the JobManager
  /// constructor rejects any other value. Kept only for callers that
  /// still set it; it will be removed with them.
  std::size_t shards = 1;
  obs::EventSink* sink = nullptr;             ///< not owned; may be null
  obs::CounterRegistry* counters = nullptr;   ///< not owned; may be null
};

/// The service: submit jobs, then run the discrete-event loop to
/// completion. Deterministic for fixed (specs, seed, store image): event
/// ties break on sequence numbers and every unit draws noise from its own
/// forked RNG stream.
class JobManager {
 public:
  /// Loads the ProfileStore from options.store_path (when set); any load
  /// failure leaves the store empty — cold-start fallback, never an error.
  /// Requires options.shards == 1.
  JobManager(const sim::SimCluster& cluster, ServiceOptions options = {});

  /// Registers a job (before run()). Returns its JobId.
  JobId submit(JobSpec spec);

  /// Runs every submitted job to completion and returns the outcomes.
  /// May be called once per JobManager instance.
  [[nodiscard]] ServiceResult run();

  [[nodiscard]] const ProfileStore& store() const { return store_; }
  [[nodiscard]] StoreLoadStatus store_status() const { return store_status_; }

 private:
  const sim::SimCluster& cluster_;
  ServiceOptions options_;
  std::vector<JobSpec> specs_;
  ProfileStore store_;
  StoreLoadStatus store_status_ = StoreLoadStatus::kMissing;
  bool ran_ = false;
};

}  // namespace plbhec::svc
