#include "plbhec/obs/sink.hpp"

#include <algorithm>
#include <new>

namespace plbhec::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kProbeIssued: return "probe_issued";
    case EventKind::kBlockDispatched: return "block_dispatched";
    case EventKind::kModelFitted: return "model_fitted";
    case EventKind::kSolve: return "solve";
    case EventKind::kRebalanceTriggered: return "rebalance_triggered";
    case EventKind::kRefinement: return "refinement";
    case EventKind::kPhaseChange: return "phase_change";
    case EventKind::kBarrier: return "barrier";
    case EventKind::kUnitFailed: return "unit_failed";
    case EventKind::kWeightUpdate: return "weight_update";
    case EventKind::kIterationSync: return "iteration_sync";
    case EventKind::kJobAdmitted: return "job_admitted";
    case EventKind::kJobCompleted: return "job_completed";
    case EventKind::kLeaseGranted: return "lease_granted";
    case EventKind::kLeaseRevoked: return "lease_revoked";
    case EventKind::kWarmStartHit: return "warmstart_hit";
    case EventKind::kWarmStartMiss: return "warmstart_miss";
    case EventKind::kMsgSent: return "msg_sent";
    case EventKind::kMsgReceived: return "msg_received";
    case EventKind::kHeartbeatMissed: return "heartbeat_missed";
    case EventKind::kReconnect: return "reconnect";
    case EventKind::kKernelDispatch: return "kernel_dispatch";
    case EventKind::kDriftDetected: return "drift_detected";
    case EventKind::kReprobeSwap: return "reprobe_swap";
  }
  return "unknown";
}

std::array<const char*, 4> arg_names(EventKind kind) {
  // Order: names of {a, b, i, j}.
  switch (kind) {
    case EventKind::kProbeIssued:
      return {nullptr, nullptr, "grains", "round"};
    case EventKind::kBlockDispatched:
      return {nullptr, nullptr, "grains", "sequence"};
    case EventKind::kModelFitted:
      return {"r2", nullptr, "samples", "acceptable"};
    case EventKind::kSolve:
      return {"solve_seconds", "predicted_time", nullptr, nullptr};
    case EventKind::kRebalanceTriggered:
      return {"deviation", "threshold", "strikes", nullptr};
    case EventKind::kRefinement:
      return {nullptr, nullptr, "budget_left", nullptr};
    case EventKind::kPhaseChange:
      return {"consumed_grains", nullptr, "phase", nullptr};
    case EventKind::kBarrier:  // the engine's single job is job 0
      return {nullptr, nullptr, "count", "job"};
    case EventKind::kUnitFailed:
      return {nullptr, nullptr, "lost_grains", nullptr};
    case EventKind::kWeightUpdate:
      return {"weight", "rel_change", "samples", nullptr};
    case EventKind::kIterationSync:
      return {"time_spread", nullptr, "iteration", "equilibrium"};
    case EventKind::kJobAdmitted:
      return {"queue_wait", nullptr, "job", "queued"};
    case EventKind::kJobCompleted:
      return {"makespan", "queue_wait", "job", "grains"};
    case EventKind::kLeaseGranted:
      return {nullptr, nullptr, "job", "held"};
    case EventKind::kLeaseRevoked:
      return {nullptr, nullptr, "from_job", "held"};
    case EventKind::kWarmStartHit:
      return {"rel_error", "r2", "seeded_samples", nullptr};
    case EventKind::kWarmStartMiss:
      return {"rel_error", "r2", "seeded_samples", nullptr};
    case EventKind::kMsgSent:
      return {nullptr, nullptr, "bytes", "msg_type"};
    case EventKind::kMsgReceived:
      return {nullptr, nullptr, "bytes", "msg_type"};
    case EventKind::kHeartbeatMissed:
      return {"overdue_seconds", nullptr, "missed", "sequence"};
    case EventKind::kReconnect:
      return {"backoff_seconds", nullptr, "attempt", "success"};
    case EventKind::kKernelDispatch:
      return {"width", nullptr, "isa", "kernel_hash"};
    case EventKind::kDriftDetected:
      return {"cusum_stat", "residual", "observations", "trip"};
    case EventKind::kReprobeSwap:
      return {"r2", nullptr, "window_samples", "ladder_blocks"};
  }
  return {nullptr, nullptr, nullptr, nullptr};
}

#if PLBHEC_OBS_ENABLED

namespace {

/// One-entry per-thread cache of the last sink this thread recorded into.
/// The epoch makes the cache safe against sink destruction: a new sink at
/// the same address gets a fresh epoch, so a stale entry never matches.
struct TlsShardCache {
  const void* sink = nullptr;
  std::uint64_t epoch = 0;
  EventSink::Shard* shard = nullptr;
};
thread_local TlsShardCache tls_shard_cache;

std::atomic<std::uint64_t> next_sink_epoch{1};

const Event& slot(const std::byte* storage, std::size_t i) {
  return *std::launder(
      reinterpret_cast<const Event*>(storage + i * sizeof(Event)));
}

}  // namespace

EventSink::Shard::~Shard() {
  for (Chunk* c = head; c != nullptr;) {
    Chunk* next = c->next.load(std::memory_order_acquire);
    if (c != &first) delete c;
    c = next;
  }
}

void EventSink::Shard::append(const Event& event) {
  std::size_t n = tail->count.load(std::memory_order_relaxed);
  if (n == kChunkEvents) {
    Chunk* fresh = new Chunk;
    tail->next.store(fresh, std::memory_order_release);
    tail = fresh;
    n = 0;
  }
  ::new (static_cast<void*>(tail->storage + n * sizeof(Event))) Event(event);
  tail->count.store(n + 1, std::memory_order_release);
}

void EventSink::Shard::drain_into(std::vector<Event>& out) {
  for (;;) {
    // `next` before `count`: a linked successor means the count is final.
    Chunk* next = head->next.load(std::memory_order_acquire);
    const std::size_t n = head->count.load(std::memory_order_acquire);
    for (std::size_t i = head_read; i < n; ++i)
      out.push_back(slot(head->storage, i));
    head_read = n;
    if (next == nullptr) return;
    // The owner never touches a chunk again once it has linked the next.
    if (head != &first) delete head;
    head = next;
    head_read = 0;
  }
}

std::size_t EventSink::Shard::unread() const {
  std::size_t total = 0;
  std::size_t read = head_read;
  for (const Chunk* c = head; c != nullptr; read = 0) {
    const Chunk* next = c->next.load(std::memory_order_acquire);
    total += c->count.load(std::memory_order_acquire) - read;
    c = next;
  }
  return total;
}

EventSink::EventSink()
    : epoch_(next_sink_epoch.fetch_add(1, std::memory_order_relaxed)) {}

EventSink::~EventSink() = default;

EventSink::Shard& EventSink::local_shard() {
  TlsShardCache& cache = tls_shard_cache;
  if (cache.sink == this && cache.epoch == epoch_) return *cache.shard;

  const std::thread::id self = std::this_thread::get_id();
  std::thread::id owner;
  Shard* shard = &home_;
  if (!home_.owner.compare_exchange_strong(owner, self) && owner != self) {
    std::lock_guard lock(mutex_);
    shard = nullptr;
    for (auto& s : extra_)
      if (s->owner.load(std::memory_order_relaxed) == self) shard = s.get();
    if (shard == nullptr) {
      shard = extra_.emplace_back(std::make_unique<Shard>()).get();
      shard->owner.store(self, std::memory_order_relaxed);
    }
  }
  cache = {this, epoch_, shard};
  return *shard;
}

void EventSink::record(const Event& event) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  local_shard().append(event);
}

std::vector<Event> EventSink::drain() {
  std::vector<Event> out;
  {
    std::lock_guard lock(mutex_);
    home_.drain_into(out);
    for (auto& shard : extra_) shard->drain_into(out);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& x, const Event& y) {
                     return x.time < y.time;
                   });
  return out;
}

std::size_t EventSink::size() const {
  std::lock_guard lock(mutex_);
  std::size_t total = home_.unread();
  for (const auto& shard : extra_) total += shard->unread();
  return total;
}

#endif  // PLBHEC_OBS_ENABLED

}  // namespace plbhec::obs
