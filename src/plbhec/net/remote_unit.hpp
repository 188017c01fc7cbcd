#pragma once
/// \file remote_unit.hpp
/// Coordinator-side ExecUnit backed by a worker daemon across TCP. The
/// ThreadEngine drives it exactly like a local unit; each block becomes an
/// AssignBlock/BlockResult round-trip, and the observation fed back to the
/// scheduler splits the measured wall time into the daemon's reported
/// kernel time (-> F_p(x) samples) and the remainder — serialization,
/// wire, deserialization — as transfer time (-> G_p(x) samples). The
/// transfer model the paper fits per unit is therefore learned from real
/// wire behavior, not an emulated memcpy.
///
/// Robustness: a dedicated heartbeat connection probes the daemon at a
/// fixed interval; after `max_missed_heartbeats` consecutive misses the
/// link is demoted and any blocked BlockResult wait is cancelled, so the
/// engine requeues the in-flight range (zero lost grains). Transient
/// connection drops are retried with bounded exponential backoff before
/// the unit gives up and reports permanent failure.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "plbhec/net/socket.hpp"
#include "plbhec/obs/sink.hpp"
#include "plbhec/rt/exec_unit.hpp"

namespace plbhec::obs {
class CounterRegistry;
}  // namespace plbhec::obs

namespace plbhec::net {

struct RemoteUnitOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string name = "remote.worker";
  std::uint32_t machine = 1;  ///< UnitInfo machine id (0 = coordinator host)
  double connect_timeout_seconds = 2.0;
  /// Bound on handshake/ack round-trips (not on block execution, whose
  /// liveness the heartbeat monitor owns).
  double control_timeout_seconds = 2.0;
  double heartbeat_interval_seconds = 0.05;
  std::size_t max_missed_heartbeats = 3;
  std::size_t max_reconnect_attempts = 3;
  double backoff_initial_seconds = 0.05;
  double backoff_max_seconds = 1.0;
  /// Event sink for msg/heartbeat/reconnect events; null = record
  /// nothing. Not owned.
  obs::EventSink* sink = nullptr;
  /// Unit id stamped on this link's events (the engine assigns ids in
  /// construction order, so the caller knows it).
  std::uint32_t event_unit = 0xffff'ffffu;
  /// Data-plane pipelining: how many chunk frames the unit keeps in
  /// flight on the data connection. Every block runs through one windowed
  /// loop. At 1 a block is one chunk: one AssignBlock/BlockResult
  /// round-trip, with transfer = wall - kernel time. N > 1 splits every
  /// block of at least 8 grains into up to 2N sequence-numbered chunks of
  /// at least 4 grains, so the wire time of one chunk overlaps the
  /// daemon's kernel on another; shorter blocks (probing blocks, tail
  /// blocks) stay one chunk, keeping modeling-phase samples
  /// pipeline-free. Chunk results are buffered and applied to the
  /// workload only once the whole block completed — a failed block
  /// leaves the workload untouched and the engine requeues the full
  /// range.
  std::size_t pipeline_depth = 1;
};

class RemoteUnit final : public rt::ExecUnit {
 public:
  explicit RemoteUnit(RemoteUnitOptions options);
  ~RemoteUnit() override;

  [[nodiscard]] rt::UnitInfo describe() const override;
  [[nodiscard]] bool begin_run(rt::Workload& workload) override;
  [[nodiscard]] bool execute(rt::Workload& workload, std::size_t begin,
                             std::size_t end,
                             rt::BlockTiming& timing) override;
  void end_run() override;

  /// Permanently out of service (heartbeat timeout or exhausted
  /// reconnects).
  [[nodiscard]] bool demoted() const {
    return demoted_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t reconnects_attempted() const {
    return reconnects_.load();
  }
  [[nodiscard]] std::uint64_t heartbeats_missed() const {
    return heartbeats_missed_.load();
  }

  /// Wire/pipeline statistics accumulated across execute() calls.
  /// Written by the engine worker thread that owns this unit during a
  /// run; read them after the run ended (the engine's thread joins
  /// establish the ordering).
  struct WireStats {
    std::uint64_t chunks_pipelined = 0;  ///< chunk frames sent windowed
    std::uint64_t batched_results = 0;   ///< results arrived in batches
    std::uint64_t inflight_peak = 0;     ///< max chunks in flight at once
    double overlap_saved_seconds = 0.0;  ///< sum of transfer+exec-wall
    double overlap_floor_seconds = 0.0;  ///< sum of min(transfer, exec)
  };
  [[nodiscard]] const WireStats& wire_stats() const { return wire_stats_; }
  /// Measured overlap fraction in [0, 1]: the share of the smaller phase
  /// (wire vs kernel) the pipeline hid. 0 when every block ran as one
  /// chunk.
  [[nodiscard]] double overlap_fraction() const;
  /// Publishes this link's wire-health counters ("net.<name>.*").
  void publish_counters(obs::CounterRegistry& registry) const;

 private:
  enum class BlockOutcome { kOk, kIoError, kFatal };

  /// Opens a connection and completes the Hello round-trip, bounding both
  /// the connect and the HelloAck wait by `timeout_seconds`. Control paths
  /// pass the control timeout; the heartbeat loop passes its own interval
  /// so a probe can never outlast the liveness budget it is measuring.
  [[nodiscard]] std::unique_ptr<TcpConn> dial(double timeout_seconds);
  /// Sends BeginRun on `conn` and waits for a positive RunAck.
  [[nodiscard]] bool start_run_on(TcpConn& conn);
  /// Runs one engine block through the windowed data plane: one chunk
  /// (a synchronous round-trip) or several pipelined ones; see
  /// RemoteUnitOptions::pipeline_depth.
  [[nodiscard]] BlockOutcome try_block(rt::Workload& workload,
                                       std::size_t begin, std::size_t end,
                                       rt::BlockTiming& timing);
  /// Bounded-backoff re-dial + re-BeginRun; false when exhausted.
  [[nodiscard]] bool reconnect();
  void heartbeat_loop();
  /// Timed wait that end_run() (and, when `wake_on_demote`, a demotion)
  /// interrupts immediately — backoff and heartbeat pacing never hold a
  /// teardown hostage for a full interval.
  void interruptible_sleep(double seconds, bool wake_on_demote);

  RemoteUnitOptions options_;
  std::string spec_;        ///< current run's workload spec
  std::uint64_t run_id_ = 0;
  /// Monotonic frame sequence for the data plane; pipelined chunks are
  /// matched to their (possibly out-of-order, possibly batched) results
  /// by this number.
  std::uint64_t next_sequence_ = 0;
  WireStats wire_stats_;

  std::mutex conn_mutex_;   ///< guards data_conn_ replacement
  std::shared_ptr<TcpConn> data_conn_;

  std::thread heartbeat_thread_;
  std::atomic<bool> monitor_stop_{false};
  std::atomic<bool> demoted_{false};
  std::mutex wait_mutex_;              ///< pairs with wait_cv_ only
  std::condition_variable wait_cv_;    ///< wakes interruptible_sleep
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> heartbeats_missed_{0};
};

}  // namespace plbhec::net
