#pragma once
/// \file thread_engine.hpp
/// Real-execution engine: each processing unit is an ExecUnit driven by a
/// persistent host thread — in-process kernel execution (LocalExecUnit) or
/// a worker daemon across a socket (net::RemoteUnit). The identical
/// Scheduler implementations run unmodified under this engine and the
/// discrete-event SimEngine — the scheduler only ever sees (block size,
/// transfer time, execution time) observations.
///
/// Heterogeneity on a homogeneous host is emulated with per-unit slowdown
/// factors (a unit with slowdown 3 spins until the kernel time has been
/// stretched 3x), which yields genuinely different performance curves for
/// the balancer to learn.
///
/// Each unit is hosted on a persistent, pinned worker thread created when
/// the engine is constructed and reused across run() calls, so the probe
/// blocks of the modeling phase never include OS thread-creation latency
/// in the F_p(x) samples the least-squares fit learns from.
///
/// The unit count is NOT fixed for the engine's lifetime: detach_unit()
/// (or an ExecUnit reporting failure) removes a unit at a block boundary.
/// The failed unit's in-flight grain range is requeued and reassigned to
/// the survivors, so no grain is ever lost — the zero-lost-grains
/// guarantee the distributed transport's heartbeat demotion relies on.

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "plbhec/exec/worker_set.hpp"
#include "plbhec/rt/engine.hpp"  // RunResult, UnitStats, EngineOptions
#include "plbhec/rt/exec_unit.hpp"

namespace plbhec::rt {

struct ThreadEngineOptions {
  /// Per-unit slowdown factors (>= 1.0). Size defines the unit count when
  /// no explicit ExecUnit set is supplied; ignored otherwise.
  std::vector<double> slowdowns = {1.0, 2.0};
  /// Best-effort pin each unit's worker to a core (Linux only).
  bool pin_workers = true;
  /// Observability sink for dispatch/barrier/failure events; also handed
  /// to the scheduler before start(). Null = record nothing. Not owned.
  obs::EventSink* sink = nullptr;
};

class ThreadEngine {
 public:
  /// Local-only engine: one LocalExecUnit per slowdown entry, named
  /// "host.cpu<i>".
  explicit ThreadEngine(ThreadEngineOptions options = {});

  /// Engine over an explicit unit set (local and/or remote); ids are
  /// assigned in vector order. `options.slowdowns` is ignored.
  ThreadEngine(ThreadEngineOptions options,
               std::vector<std::unique_ptr<ExecUnit>> units);

  /// Runs the workload on the persistent unit workers; requires
  /// workload.supports_real_execution() and at least one attached unit.
  [[nodiscard]] RunResult run(Workload& workload, Scheduler& scheduler);

  [[nodiscard]] const std::vector<UnitInfo>& units() const { return units_; }

  /// Permanently removes `unit` from service. Thread-safe and callable
  /// mid-run (heartbeat monitors demote dead remote workers this way):
  /// the unit leaves at its next block boundary, any in-flight range is
  /// requeued for the survivors, and the scheduler is told through
  /// on_unit_failed. Detaching an out-of-range or already-detached unit
  /// is a contract violation (aborts).
  void detach_unit(UnitId unit);

  /// True once `unit` has been detached (explicitly or by failure).
  [[nodiscard]] bool is_detached(UnitId unit) const;

  /// Units still in service.
  [[nodiscard]] std::size_t active_unit_count() const;

  /// Lifetime count of OS threads backing the units — stays at the unit
  /// count however many runs execute (thread startup is paid once, in the
  /// constructor, never inside a probe).
  [[nodiscard]] std::size_t worker_threads_created() const {
    return workers_->threads_created();
  }

 private:
  ThreadEngineOptions options_;
  std::vector<std::unique_ptr<ExecUnit>> impls_;
  std::vector<UnitInfo> units_;
  std::unique_ptr<exec::WorkerSet> workers_;

  /// Guards detached_ and, during run(), the shared dispatch state; the
  /// run loop's condition variable lives here so detach_unit() can wake
  /// parked workers.
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<char> detached_;
};

}  // namespace plbhec::rt
