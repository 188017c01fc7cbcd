#pragma once
/// \file workerd.hpp
/// The worker daemon: listens for coordinator connections and executes
/// assigned blocks of a workload rebuilt locally from its remote_spec()
/// string (apps/registry.hpp), shipping result bytes and kernel timings
/// back.
///
/// Architecture: a single *epoll reactor thread* multiplexes the listener
/// and every coordinator connection. The reactor does all socket I/O —
/// incremental frame decode on the inbound side, a per-connection outbox
/// of encoded frames flushed via non-blocking writes (EPOLLOUT armed only
/// while a partial frame is pending) on the outbound side — and answers
/// pure control traffic (handshakes, heartbeats) inline, so liveness
/// probes are never queued behind kernels. Workload construction and
/// block execution run on a small shared executor pool with strict
/// per-connection FIFO ordering (at most one in-flight task per
/// connection); finished results come back to the reactor through a
/// completion queue + eventfd wake, where small ones are coalesced into
/// kBlockResultBatch frames exactly like the old per-connection sender
/// did. There are no sleep/yield polls anywhere: the reactor blocks in
/// epoll_wait, executors block on a condition variable, and the
/// heterogeneity stretch is an interruptible timed wait.
///
/// For failure-injection tests the daemon can be killed (connections cut
/// mid-block, as if the process died) or frozen (connections stay open
/// but nothing is answered — the heartbeat-timeout path; implemented by
/// dropping every connection from the epoll interest set and gating the
/// executors until unfreeze()).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "plbhec/net/socket.hpp"
#include "plbhec/net/wire.hpp"

namespace plbhec::obs {
class CounterRegistry;
}

namespace plbhec::net {

struct WorkerDaemonOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  std::string name = "workerd";
  /// Artificially slow served kernels by this factor (>= 1.0), so a
  /// single-host test cluster exhibits real heterogeneity across daemons.
  double slowdown = 1.0;
  /// Kernel lanes shared by all connections (each connection's tasks stay
  /// FIFO and never run concurrently with each other). Clamped to >= 1.
  std::size_t executor_threads = 4;
  /// When set, stop() publishes reactor/executor lifetime counters under
  /// "net.<name>.". Not owned; may be null.
  obs::CounterRegistry* counters = nullptr;
};

class WorkerDaemon {
 public:
  /// Binds, then starts the reactor and executor threads; aborts on bind
  /// failure (a daemon that cannot listen has no purpose — and tests pass
  /// port 0).
  explicit WorkerDaemon(WorkerDaemonOptions options);
  ~WorkerDaemon();
  WorkerDaemon(const WorkerDaemon&) = delete;
  WorkerDaemon& operator=(const WorkerDaemon&) = delete;

  [[nodiscard]] std::uint16_t port() const;

  /// Graceful stop: closes the listener, cancels all connections, joins
  /// the reactor and executors, publishes counters. Idempotent.
  void stop();

  /// Simulates a daemon crash: cuts every connection and the listener
  /// without draining in-flight blocks. The object stays joinable/usable
  /// for inspection; a coordinator sees I/O errors and missed heartbeats.
  void kill();

  /// Simulates a hung process: connections stay open but every serving
  /// thread stops reading/answering (including heartbeats) until
  /// unfreeze(). The heartbeat-timeout demotion path in RemoteUnit is
  /// exercised with this.
  void freeze();
  void unfreeze();

  /// Changes the heterogeneity stretch at runtime (>= 1.0). Chaos scripts
  /// deliver QoS-degradation events through this: blocks started after the
  /// call are padded to the new factor, which the coordinator observes as
  /// the unit's performance curve drifting — no demotion involved.
  void set_slowdown(double slowdown);
  [[nodiscard]] double slowdown() const {
    return slowdown_.load(std::memory_order_relaxed);
  }

  /// Lifetime counters (for tests/bench).
  [[nodiscard]] std::uint64_t blocks_served() const {
    return blocks_served_.load();
  }
  [[nodiscard]] std::uint64_t connections_accepted() const {
    return connections_accepted_.load();
  }
  /// Block results the reactor coalesced into kBlockResultBatch frames
  /// (0 when every result shipped alone).
  [[nodiscard]] std::uint64_t results_batched() const {
    return results_batched_.load();
  }
  /// epoll_wait returns on the reactor thread.
  [[nodiscard]] std::uint64_t reactor_wakeups() const {
    return reactor_wakeups_.load();
  }
  /// Complete frames decoded from coordinator connections.
  [[nodiscard]] std::uint64_t frames_received() const {
    return frames_received_.load();
  }
  /// Most connections multiplexed by the reactor at any one time.
  [[nodiscard]] std::uint64_t peak_connections() const {
    return peak_connections_.load();
  }

 private:
  struct ConnState;
  struct Task;
  struct Done;

  void reactor_loop();
  void executor_loop();
  void wake();

  // Reactor-side helpers (reactor thread only).
  void accept_ready();
  void register_conn(std::unique_ptr<TcpConn> conn);
  void close_conn(const std::shared_ptr<ConnState>& state);
  void handle_readable(const std::shared_ptr<ConnState>& state);
  bool process_frame(const std::shared_ptr<ConnState>& state, Frame frame);
  void enqueue_frame(const std::shared_ptr<ConnState>& state, MsgType type,
                     std::span<const std::uint8_t> payload);
  void flush_writes(const std::shared_ptr<ConnState>& state);
  void update_interest(ConnState& state);
  void drain_completions();
  void apply_freeze(bool frozen);
  void push_exec_task(const std::shared_ptr<ConnState>& state, Task task);

  // Executor-side helpers.
  void run_task(const std::shared_ptr<ConnState>& state, Task& task);
  void stretch_interruptible(double measured_seconds);

  WorkerDaemonOptions options_;
  std::unique_ptr<TcpListener> listener_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread reactor_thread_;
  std::vector<std::thread> executor_threads_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> frozen_{false};
  std::atomic<double> slowdown_{1.0};  ///< live stretch factor (see above)
  std::atomic<bool> counters_published_{false};
  std::atomic<std::uint64_t> blocks_served_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> results_batched_{0};
  std::atomic<std::uint64_t> reactor_wakeups_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> peak_connections_{0};

  /// Reactor-owned connection table (fd -> state). Never touched off the
  /// reactor thread; kill() reaches connections through conns_ below.
  std::unordered_map<int, std::shared_ptr<ConnState>> by_fd_;

  /// Executor handoff: per-connection task queues feed a ready-list of
  /// connections; a connection is on the list iff it has tasks and no
  /// executor is currently serving it.
  std::mutex exec_mutex_;
  std::condition_variable exec_cv_;
  std::deque<std::shared_ptr<ConnState>> exec_ready_;

  /// Finished work travelling back to the reactor (+ eventfd wake).
  std::mutex done_mutex_;
  std::vector<Done> done_;

  std::mutex mutex_;  ///< guards conns_
  std::vector<TcpConn*> conns_;  ///< live sockets, for kill() cancellation
};

}  // namespace plbhec::net
