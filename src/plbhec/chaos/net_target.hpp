#pragma once
/// \file net_target.hpp
/// FaultTarget over a rig of real worker daemons, plus the wall-clock
/// ScriptPlayer that delivers a FaultScript against it. Together they are
/// the other side of the seam: the same script object that pre-registers
/// virtual-time events on a SimCluster drives kill()/freeze()/
/// set_slowdown() on live plbhec-workerd processes — the hooks the
/// failover tests in test_net.cpp already exercise by hand.
///
/// Kind mapping:
///  * kill      -> WorkerDaemon::kill() (connections cut; RemoteUnit sees
///                 I/O errors, reconnect fails, demotion)
///  * freeze    -> WorkerDaemon::freeze() (open but silent; heartbeat
///                 timeout, demotion)
///  * partition -> WorkerDaemon::freeze() as well — a blackholed network
///                 path and a hung process are indistinguishable from the
///                 coordinator side (open connections, silence), and both
///                 resolve through the heartbeat-timeout demotion path.
///  * slow-down -> WorkerDaemon::set_slowdown(nominal / factor): the unit
///                 runs at `factor` of its nominal speed from then on.
///  * link-degrade is NOT supported: a real loopback socket has no
///                 scriptable bandwidth. supports() says so and the
///                 validation in fault.hpp rejects such scripts up front.
///
/// Units map to daemons positionally; entries may be nullptr for units
/// that are local to the coordinator (a LocalExecUnit) — scripting a fault
/// on those is rejected by deliver() (contract violation), since the local
/// unit is not behind the seam.

#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "plbhec/chaos/fault.hpp"
#include "plbhec/net/workerd.hpp"

namespace plbhec::chaos {

class NetFaultTarget final : public FaultTarget {
 public:
  /// `daemons[i]` backs unit i; nullptr marks a coordinator-local unit.
  /// Daemons are borrowed, not owned.
  explicit NetFaultTarget(std::vector<net::WorkerDaemon*> daemons)
      : daemons_(std::move(daemons)) {}

  [[nodiscard]] std::size_t unit_count() const override {
    return daemons_.size();
  }
  [[nodiscard]] bool supports(FaultKind kind) const override {
    return kind != FaultKind::kLinkDegrade;
  }
  void deliver(const FaultEvent& event) override;

 private:
  std::vector<net::WorkerDaemon*> daemons_;
};

/// Replays a FaultScript against a wall-clock target from a background
/// thread. Script seconds become wall seconds from the moment the `armed`
/// predicate (polled every millisecond) first returns true — typically
/// "the run is demonstrably in flight" (first block served), the same
/// anchor the hand-written failover tests use, so fault delivery cannot
/// race run startup.
class ScriptPlayer {
 public:
  struct Options {
    /// Polled until true before the clock starts. Default: armed at once.
    std::function<bool()> armed;
    /// Give up arming after this long (the run finished too fast); the
    /// remaining events are dropped and dropped_events() reports them.
    std::chrono::milliseconds arm_timeout{10'000};
  };

  /// Validates eagerly: aborts on a script the target cannot realize
  /// (fault.hpp validate()), so a bad rig is a test bug, not a silent
  /// no-op chaos run.
  ScriptPlayer(FaultScript script, FaultTarget& target, Options options);
  ~ScriptPlayer();
  ScriptPlayer(const ScriptPlayer&) = delete;
  ScriptPlayer& operator=(const ScriptPlayer&) = delete;

  /// Starts the delivery thread (idempotent).
  void start();
  /// Waits for every event to be delivered (or dropped by arm timeout).
  void join();

  [[nodiscard]] std::size_t delivered_events() const { return delivered_; }
  [[nodiscard]] std::size_t dropped_events() const { return dropped_; }

 private:
  void run();

  FaultScript script_;
  FaultTarget& target_;
  Options options_;
  std::thread thread_;
  bool started_ = false;
  std::size_t delivered_ = 0;  ///< written by the thread, read after join()
  std::size_t dropped_ = 0;
};

}  // namespace plbhec::chaos
