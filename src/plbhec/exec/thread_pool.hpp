#pragma once
/// \file thread_pool.hpp
/// Persistent thread pool: the shared execution backbone of the
/// real-execution path. Workers are created once and parked on a condition
/// variable when idle, so dispatching a parallel region costs an enqueue +
/// wakeup instead of a thread spawn — the overhead that used to pollute the
/// Phase-1 probe samples the performance models are fitted on.
///
/// Design: one mutex-guarded queue of open `parallel_for` regions.
///  - a region lives on its caller's stack; the caller and the workers that
///    join it claim chunks through one atomic cursor;
///  - at most min(workers, chunks - 1) workers join a region, oldest open
///    region first; a worker that finds the oldest region's cursor
///    exhausted (or the region cancelled) dequeues it instead of joining;
///  - once the cursor is exhausted the caller withdraws the region from the
///    queue and waits only until no worker is still inside. It never waits
///    for a worker to start, so a busy or 0-worker pool cannot stall it and
///    nested calls cannot deadlock (a worker joins regions only while idle);
///  - the first exception thrown by a chunk cancels the chunks not yet
///    started and is rethrown on the calling thread.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace plbhec::exec {

class ThreadPool {
 public:
  /// Spawns `workers` persistent worker threads (0 is valid: every
  /// parallel region then runs inline on the calling thread).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool shared by kernels and apps, sized to the hardware
  /// (hardware_concurrency - 1 workers; the caller is the missing lane).
  static ThreadPool& global();

  /// Worker threads owned by the pool (excludes callers).
  [[nodiscard]] unsigned workers() const {
    return static_cast<unsigned>(threads_.size());
  }
  /// Concurrency of a parallel region: workers + the calling thread.
  [[nodiscard]] unsigned concurrency() const { return workers() + 1; }

  /// Runs body(chunk_begin, chunk_end) over [begin, end) split into chunks
  /// of ~`grain` iterations (grain 0 = auto). The calling thread
  /// participates; returns when every chunk has finished. Nested calls are
  /// allowed from inside chunks, and concurrent callers share the pool. The
  /// first exception thrown by a chunk is rethrown here after the region
  /// drains.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

 private:
  struct Region;

  void worker_loop();
  void run_chunks(Region& region);

  std::mutex mutex_;
  std::condition_variable wake_;  ///< workers wait here for an open region
  std::deque<Region*> open_;      ///< regions with seats left, oldest first
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Convenience wrapper over the global pool.
inline void parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  ThreadPool::global().parallel_for(begin, end, grain, body);
}

}  // namespace plbhec::exec
