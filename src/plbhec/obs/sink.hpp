#pragma once
/// \file sink.hpp
/// Low-overhead typed event sink. Each recording thread appends to its own
/// shard, an append-only chain of fixed-size chunks found through a
/// thread-local fast path, and drain() merges the shards into one
/// time-sorted stream at run end. A slot is written first and then
/// published with a release store of its chunk's count, so recording takes
/// no lock and drain()/size() still only ever read published events. The
/// first thread to record claims the shard embedded in the sink with one
/// compare-exchange, so a run recorded from one thread never allocates
/// until it outgrows the embedded chunk.
///
/// The whole sink compiles to no-ops when the build sets
/// PLBHEC_OBS_ENABLED=0 (CMake option PLBHEC_OBS=OFF): record() becomes an
/// empty inline function and the PLBHEC_OBS_RECORD macro discards its
/// arguments unevaluated, so instrumented call sites cost nothing.

#include <cstddef>
#include <vector>

#include "plbhec/obs/events.hpp"

#ifndef PLBHEC_OBS_ENABLED
#define PLBHEC_OBS_ENABLED 1
#endif

#if PLBHEC_OBS_ENABLED
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#endif

namespace plbhec::obs {

/// True when the build compiled the event sink in (PLBHEC_OBS=ON).
inline constexpr bool kCompiledIn = PLBHEC_OBS_ENABLED != 0;

#if PLBHEC_OBS_ENABLED

class alignas(64) EventSink {
 public:
  EventSink();
  ~EventSink();
  EventSink(const EventSink&) = delete;
  EventSink& operator=(const EventSink&) = delete;

  /// Appends an event to the calling thread's shard. Thread-safe; a no-op
  /// while the sink is runtime-disabled.
  void record(const Event& event);

  /// Runtime switch (cheap relaxed load on the record path). Sinks start
  /// enabled.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Merges every shard into one stream sorted by time (stable, so
  /// same-timestamp events keep their per-thread record order) and clears
  /// the shards. Safe to call concurrently with record(), but the natural
  /// call site is after the run / pool has quiesced.
  [[nodiscard]] std::vector<Event> drain();

  /// Total buffered events across shards (approximate under concurrent
  /// recording).
  [[nodiscard]] std::size_t size() const;

 private:
  static constexpr std::size_t kChunkEvents = 256;

  /// kChunkEvents event slots, left uninitialized until written. `count`
  /// publishes the written prefix; `next` is set once the chunk is full.
  struct Chunk {
    std::atomic<std::size_t> count{0};
    std::atomic<Chunk*> next{nullptr};
    alignas(Event) std::byte storage[kChunkEvents * sizeof(Event)];
  };

 public:
  /// One recording thread's append-only log (public so the thread-local
  /// cache can point at one).
  struct Shard {
    Shard() = default;
    ~Shard();
    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    void append(const Event& event);        ///< owner thread only
    void drain_into(std::vector<Event>& out);  ///< under the sink mutex
    [[nodiscard]] std::size_t unread() const;  ///< under the sink mutex

    std::atomic<std::thread::id> owner{};
    Chunk* tail = &first;    ///< owner's write position
    Chunk* head = &first;    ///< oldest chunk with unread events
    std::size_t head_read = 0;  ///< events of *head already drained
    Chunk first;  ///< last, so the fields above share a line with its count
  };

 private:
  /// Finds (or claims, or registers) the calling thread's shard; the fast
  /// path is one thread_local compare.
  Shard& local_shard();

  // Everything a record from the claiming thread reads or writes, other
  // than its slot, sits in the sink's first cache line: enabled_, epoch_,
  // and home_'s owner, tail and first.count.
  std::atomic<bool> enabled_{true};
  std::uint64_t epoch_;  ///< process-unique sink id for the TLS fast path
  Shard home_;           ///< claimed by the first recording thread
  mutable std::mutex mutex_;  ///< guards extra_ and every shard's read side
  std::vector<std::unique_ptr<Shard>> extra_;  ///< any further threads
};

/// Records an event iff `sink` is non-null; compiles away entirely (the
/// event expression is never evaluated) in PLBHEC_OBS=OFF builds.
#define PLBHEC_OBS_RECORD(sink, ...)                   \
  do {                                                 \
    if ((sink) != nullptr) (sink)->record(__VA_ARGS__); \
  } while (0)

#else  // !PLBHEC_OBS_ENABLED

/// No-op stand-in: every member is an empty inline, so instrumented code
/// compiles unchanged and the optimizer deletes the calls.
class EventSink {
 public:
  void record(const Event&) {}
  void set_enabled(bool) {}
  [[nodiscard]] bool enabled() const { return false; }
  [[nodiscard]] std::vector<Event> drain() { return {}; }
  [[nodiscard]] std::size_t size() const { return 0; }
};

/// The arguments sit in unevaluated operands: they count as used (no
/// -Wunused for a value that only feeds an event) but cost nothing.
#define PLBHEC_OBS_RECORD(sink, ...)                                 \
  do {                                                               \
    static_cast<void>(sizeof(sink));                                 \
    static_cast<void>(sizeof(::plbhec::obs::Event __VA_ARGS__));     \
  } while (0)

#endif  // PLBHEC_OBS_ENABLED

}  // namespace plbhec::obs
