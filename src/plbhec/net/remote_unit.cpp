#include "plbhec/net/remote_unit.hpp"

#include <algorithm>
#include <chrono>

#include "plbhec/common/contracts.hpp"
#include "plbhec/net/wire.hpp"
#include "plbhec/obs/counters.hpp"

namespace plbhec::net {
namespace {

using Clock = std::chrono::steady_clock;

/// Smallest chunk worth a frame of its own; blocks shorter than two
/// minimum chunks (probing blocks, tail blocks) go out as one chunk,
/// keeping modeling-phase samples pipeline-free.
constexpr std::size_t kMinChunkGrains = 4;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

RemoteUnit::RemoteUnit(RemoteUnitOptions options)
    : options_(std::move(options)) {
  PLBHEC_EXPECTS(options_.heartbeat_interval_seconds > 0.0);
  PLBHEC_EXPECTS(options_.max_missed_heartbeats > 0);
}

RemoteUnit::~RemoteUnit() { end_run(); }

rt::UnitInfo RemoteUnit::describe() const {
  rt::UnitInfo info;
  info.name = options_.name;
  info.kind = rt::ProcKind::kCpu;
  info.machine = options_.machine;
  return info;
}

std::unique_ptr<TcpConn> RemoteUnit::dial(double timeout_seconds) {
  std::unique_ptr<TcpConn> conn = TcpConn::connect(
      options_.host, options_.port,
      std::min(timeout_seconds, options_.connect_timeout_seconds));
  if (conn == nullptr) return nullptr;

  HelloMsg hello;
  hello.node = "coordinator";
  if (!write_frame(*conn, MsgType::kHello, hello.encode())) return nullptr;
  Frame frame;
  if (read_frame(*conn, &frame, timeout_seconds) != FrameStatus::kOk ||
      frame.type != MsgType::kHelloAck)
    return nullptr;
  const auto ack = HelloAckMsg::decode(frame.payload);
  if (!ack || ack->protocol != kProtocolVersion) return nullptr;
  return conn;
}

bool RemoteUnit::start_run_on(TcpConn& conn) {
  BeginRunMsg begin;
  begin.run_id = run_id_;
  begin.spec = spec_;
  if (!write_frame(conn, MsgType::kBeginRun, begin.encode())) return false;
  Frame frame;
  if (read_frame(conn, &frame, options_.control_timeout_seconds) !=
          FrameStatus::kOk ||
      frame.type != MsgType::kRunAck)
    return false;
  const auto ack = RunAckMsg::decode(frame.payload);
  return ack && ack->ok && ack->run_id == run_id_;
}

bool RemoteUnit::begin_run(rt::Workload& workload) {
  end_run();  // defensive: retire any previous run's monitor/connection
  spec_ = workload.remote_spec();
  if (spec_.empty()) return false;  // workload cannot execute remotely
  ++run_id_;
  demoted_.store(false, std::memory_order_release);

  std::unique_ptr<TcpConn> conn = dial(options_.control_timeout_seconds);
  if (conn == nullptr || !start_run_on(*conn)) return false;
  {
    std::lock_guard lock(conn_mutex_);
    data_conn_ = std::move(conn);
  }

  monitor_stop_.store(false, std::memory_order_release);
  heartbeat_thread_ = std::thread([this] { heartbeat_loop(); });
  return true;
}

void RemoteUnit::end_run() {
  monitor_stop_.store(true, std::memory_order_release);
  wait_cv_.notify_all();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  std::shared_ptr<TcpConn> conn;
  {
    std::lock_guard lock(conn_mutex_);
    conn = std::move(data_conn_);
  }
  if (conn != nullptr && !conn->cancelled())
    (void)write_frame(*conn, MsgType::kShutdown, {});
}

RemoteUnit::BlockOutcome RemoteUnit::try_block(rt::Workload& workload,
                                               std::size_t begin,
                                               std::size_t end,
                                               rt::BlockTiming& timing) {
  std::shared_ptr<TcpConn> conn;
  {
    std::lock_guard lock(conn_mutex_);
    conn = data_conn_;
  }
  if (conn == nullptr || conn->cancelled()) return BlockOutcome::kIoError;

  const std::size_t depth = options_.pipeline_depth;
  const std::size_t grains = end - begin;
  // One chunk (the synchronous round-trip) at depth 1 and for blocks
  // shorter than two minimum chunks; otherwise up to two chunks per
  // window slot, so a refill is always ready the moment a result frees a
  // slot.
  const std::size_t chunks = depth > 1 && grains >= 2 * kMinChunkGrains
                                 ? std::min(2 * depth, grains / kMinChunkGrains)
                                 : 1;
  const bool pipelined = chunks > 1;

  struct Chunk {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::vector<std::uint8_t> results;
    double exec_seconds = 0.0;
    double wire_seconds = 0.0;
    bool done = false;
  };
  std::vector<Chunk> plan(chunks);
  const std::size_t chunk_base = grains / chunks;
  std::size_t extra = grains % chunks;
  std::size_t cursor = begin;
  for (Chunk& c : plan) {
    c.begin = cursor;
    c.end = cursor + chunk_base + (extra > 0 ? 1 : 0);
    if (extra > 0) --extra;
    cursor = c.end;
  }
  const std::uint64_t base_seq = next_sequence_ + 1;
  next_sequence_ += chunks;

  std::size_t completed = 0;
  std::size_t in_flight = 0;
  bool fatal = false;
  // Buffers one chunk result; nothing touches `workload` until every
  // chunk arrived, so any failure exit leaves it untouched and the
  // engine can requeue the whole [begin, end) range. A daemon-side
  // refusal (bad spec, bad range) is a configuration error a reconnect
  // cannot fix.
  const auto accept = [&](BlockResultMsg&& entry, double wire_share) {
    if (entry.run_id != run_id_ || entry.sequence < base_seq ||
        entry.sequence >= base_seq + chunks) {
      fatal = true;
      return;
    }
    Chunk& c = plan[static_cast<std::size_t>(entry.sequence - base_seq)];
    if (c.done || !entry.ok || entry.begin != c.begin || entry.end != c.end ||
        entry.results.size() != workload.result_bytes(c.begin, c.end)) {
      fatal = true;
      return;
    }
    c.results = std::move(entry.results);
    c.exec_seconds = entry.exec_seconds;
    c.wire_seconds += wire_share;
    c.done = true;
    ++completed;
    --in_flight;
  };

  // Double-buffered serialization: the frame body of chunk k+1 is
  // encoded before chunk k hits the wire, so encode overlaps send.
  std::vector<std::uint8_t> bodies[2];
  FrameScratch scratch;
  std::size_t next_send = 0;
  std::size_t encoded = 0;
  const auto encode_chunk = [&](std::size_t i) {
    AssignBlockMsg assign;
    assign.run_id = run_id_;
    assign.sequence = base_seq + i;
    assign.begin = plan[i].begin;
    assign.end = plan[i].end;
    assign.encode_into(bodies[i & 1]);
  };
  // The block's wall runs from its first send to the receipt of its last
  // result frame, before any result is decoded or applied.
  Clock::time_point t_first_send;
  Clock::time_point t_last_recv;

  while (completed < chunks) {
    while (in_flight < depth && next_send < chunks) {
      if (encoded == next_send) encode_chunk(encoded++);
      if (encoded == next_send + 1 && encoded < chunks)
        encode_chunk(encoded++);
      const std::vector<std::uint8_t>& body = bodies[next_send & 1];
      const Clock::time_point t_send = Clock::now();
      if (next_send == 0) t_first_send = t_send;
      if (!write_frame(*conn, MsgType::kAssignBlock, body, scratch))
        return BlockOutcome::kIoError;
      plan[next_send].wire_seconds += seconds_between(t_send, Clock::now());
      PLBHEC_OBS_RECORD(
          options_.sink,
          {seconds_between(t_send, Clock::now()), obs::EventKind::kMsgSent,
           options_.event_unit, 0.0, 0.0,
           kFrameHeaderBytes + body.size() + kFrameTrailerBytes,
           static_cast<std::uint64_t>(MsgType::kAssignBlock)});
      ++next_send;
      ++in_flight;
      if (pipelined) {
        wire_stats_.chunks_pipelined += 1;
        wire_stats_.inflight_peak =
            std::max<std::uint64_t>(wire_stats_.inflight_peak, in_flight);
      }
    }

    // One result frame — a single chunk or a batch, in any order. No
    // deadline of its own: the heartbeat monitor cancels the connection
    // if the daemon dies with chunks in flight.
    Frame frame;
    FrameReadTiming io;
    if (read_frame(*conn, &frame, -1.0, &io) != FrameStatus::kOk)
      return BlockOutcome::kIoError;
    t_last_recv = Clock::now();
    PLBHEC_OBS_RECORD(
        options_.sink,
        {io.wait_seconds + io.drain_seconds, obs::EventKind::kMsgReceived,
         options_.event_unit, 0.0, 0.0,
         kFrameHeaderBytes + frame.payload.size() + kFrameTrailerBytes,
         static_cast<std::uint64_t>(frame.type)});
    if (frame.type == MsgType::kBlockResult) {
      auto result = BlockResultMsg::decode(frame.payload);
      if (!result) return BlockOutcome::kFatal;
      accept(std::move(*result), io.drain_seconds);
    } else if (frame.type == MsgType::kBlockResultBatch) {
      auto batch = BlockResultBatchMsg::decode(frame.payload);
      if (!batch) return BlockOutcome::kFatal;
      // Apportion the frame's drain time by encoded-size share so the
      // per-chunk wire costs still sum to the measured drain.
      double total_weight = 0.0;
      for (const BlockResultMsg& r : batch->results)
        total_weight += static_cast<double>(r.results.size()) + 64.0;
      wire_stats_.batched_results += batch->results.size();
      for (BlockResultMsg& r : batch->results) {
        const double share =
            (static_cast<double>(r.results.size()) + 64.0) / total_weight;
        accept(std::move(r), io.drain_seconds * share);
      }
    } else {
      return BlockOutcome::kFatal;
    }
    if (fatal) return BlockOutcome::kFatal;
  }

  // Every chunk arrived: apply all results (all-or-nothing contract).
  for (const Chunk& c : plan)
    workload.read_results(c.begin, c.end, c.results.data());

  double exec_total = 0.0;
  double wire_total = 0.0;
  for (const Chunk& c : plan) {
    exec_total += c.exec_seconds;
    wire_total += c.wire_seconds;
  }
  const double wall = seconds_between(t_first_send, t_last_recv);
  timing.exec_seconds = std::min(exec_total, wall);
  if (!pipelined) {
    // One round-trip: its wall minus the daemon's kernel time is the
    // transfer cost the scheduler's G_p(x) fit learns from.
    timing.transfer_seconds = std::max(0.0, wall - timing.exec_seconds);
    return BlockOutcome::kOk;
  }
  // Under overlap wall - exec no longer equals the wire cost, so transfer
  // is measured per chunk (send + result drain).
  timing.transfer_seconds = std::clamp(wire_total, 0.0, wall);
  timing.wall_seconds = wall;

  const double lo = std::min(timing.transfer_seconds, timing.exec_seconds);
  if (lo > 0.0) {
    const double serial = timing.transfer_seconds + timing.exec_seconds;
    wire_stats_.overlap_saved_seconds += std::clamp(serial - wall, 0.0, lo);
    wire_stats_.overlap_floor_seconds += lo;
  }
  return BlockOutcome::kOk;
}

double RemoteUnit::overlap_fraction() const {
  if (wire_stats_.overlap_floor_seconds <= 0.0) return 0.0;
  return std::clamp(
      wire_stats_.overlap_saved_seconds / wire_stats_.overlap_floor_seconds,
      0.0, 1.0);
}

void RemoteUnit::publish_counters(obs::CounterRegistry& registry) const {
  const std::string prefix = "net." + options_.name + ".";
  registry.set(prefix + "chunks_pipelined", wire_stats_.chunks_pipelined);
  registry.set(prefix + "batched_results", wire_stats_.batched_results);
  registry.set(prefix + "inflight_peak", wire_stats_.inflight_peak);
  registry.set(prefix + "overlap_milli",
               static_cast<std::uint64_t>(overlap_fraction() * 1000.0 + 0.5));
  registry.set(prefix + "reconnects", reconnects_.load());
  registry.set(prefix + "heartbeats_missed", heartbeats_missed_.load());
}

void RemoteUnit::interruptible_sleep(double seconds, bool wake_on_demote) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::unique_lock lock(wait_mutex_);
  wait_cv_.wait_until(lock, deadline, [&] {
    return monitor_stop_.load(std::memory_order_acquire) ||
           (wake_on_demote && demoted_.load(std::memory_order_acquire));
  });
}

bool RemoteUnit::reconnect() {
  double backoff = options_.backoff_initial_seconds;
  for (std::size_t attempt = 1; attempt <= options_.max_reconnect_attempts;
       ++attempt) {
    if (demoted()) return false;
    interruptible_sleep(backoff, /*wake_on_demote=*/true);
    if (demoted()) return false;
    reconnects_.fetch_add(1);
    std::unique_ptr<TcpConn> conn = dial(options_.control_timeout_seconds);
    const bool ok = conn != nullptr && start_run_on(*conn);
    PLBHEC_OBS_RECORD(options_.sink,
                      {0.0, obs::EventKind::kReconnect, options_.event_unit,
                       backoff, 0.0, attempt, ok ? 1u : 0u});
    if (ok) {
      std::lock_guard lock(conn_mutex_);
      data_conn_ = std::move(conn);
      return true;
    }
    backoff = std::min(backoff * 2.0, options_.backoff_max_seconds);
  }
  return false;
}

bool RemoteUnit::execute(rt::Workload& workload, std::size_t begin,
                         std::size_t end, rt::BlockTiming& timing) {
  while (true) {
    if (demoted()) return false;
    switch (try_block(workload, begin, end, timing)) {
      case BlockOutcome::kOk:
        return true;
      case BlockOutcome::kFatal:
        demoted_.store(true, std::memory_order_release);
        return false;
      case BlockOutcome::kIoError:
        if (!reconnect()) {
          demoted_.store(true, std::memory_order_release);
          return false;
        }
        break;  // retry the block on the fresh connection
    }
  }
}

void RemoteUnit::heartbeat_loop() {
  std::unique_ptr<TcpConn> conn;  // dedicated liveness connection
  std::uint64_t sequence = 0;
  std::size_t missed = 0;
  const double interval = options_.heartbeat_interval_seconds;

  while (!monitor_stop_.load(std::memory_order_acquire)) {
    // Not demote-woken: after a self-demotion this loop is the one that
    // already returned; end_run() is the only legitimate interrupter.
    interruptible_sleep(interval, /*wake_on_demote=*/false);
    if (monitor_stop_.load(std::memory_order_acquire)) return;

    bool alive = false;
    if (conn == nullptr) conn = dial(interval);
    if (conn != nullptr) {
      HeartbeatMsg hb;
      hb.sequence = ++sequence;
      Frame frame;
      if (write_frame(*conn, MsgType::kHeartbeat, hb.encode()) &&
          read_frame(*conn, &frame, interval) == FrameStatus::kOk &&
          frame.type == MsgType::kHeartbeatAck) {
        const auto ack = HeartbeatAckMsg::decode(frame.payload);
        alive = ack && ack->sequence == hb.sequence;
      }
      if (!alive) conn.reset();  // stale acks would desync; redial next tick
    }

    if (alive) {
      missed = 0;
      continue;
    }
    ++missed;
    heartbeats_missed_.fetch_add(1);
    PLBHEC_OBS_RECORD(options_.sink,
                      {0.0, obs::EventKind::kHeartbeatMissed,
                       options_.event_unit,
                       static_cast<double>(missed) * interval, 0.0, missed,
                       sequence});
    if (missed >= options_.max_missed_heartbeats) {
      // Declare the worker dead: demote and cut the data connection so a
      // blocked BlockResult wait fails now and the engine requeues.
      demoted_.store(true, std::memory_order_release);
      wait_cv_.notify_all();  // a reconnect backoff in progress gives up now
      std::lock_guard lock(conn_mutex_);
      if (data_conn_ != nullptr) data_conn_->cancel();
      return;
    }
  }
}

}  // namespace plbhec::net
