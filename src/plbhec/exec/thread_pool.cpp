#include "plbhec/exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace plbhec::exec {

/// One open parallel_for, on its caller's stack. Once published, `error`,
/// `seats` and `inside` are guarded by the pool's mutex; everything else is
/// fixed or atomic.
struct ThreadPool::Region {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t begin = 0, end = 0, grain = 0, nchunks = 0;
  std::size_t seats = 0;               ///< joins left; > 0 while queued
  std::atomic<std::size_t> next{0};    ///< next unclaimed chunk
  std::atomic<bool> cancelled{false};  ///< a chunk threw
  std::exception_ptr error;            ///< the first exception thrown
  std::size_t inside = 0;              ///< workers running its chunks
  std::condition_variable left;        ///< signalled when inside drops to 0
};

ThreadPool::ThreadPool(unsigned workers) {
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(
      std::max(1u, std::thread::hardware_concurrency()) - 1u);
  return pool;
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stop_ || !open_.empty(); });
    if (stop_) return;
    Region& region = *open_.front();
    // Its caller has claimed every chunk (or one threw) but not yet
    // withdrawn it: joining would find nothing and make the caller wait
    // for this worker, so retire it here and the caller skips the erase.
    if (region.next.load(std::memory_order_relaxed) >= region.nchunks ||
        region.cancelled.load(std::memory_order_relaxed)) {
      region.seats = 0;
      open_.pop_front();
      continue;
    }
    if (--region.seats == 0) open_.pop_front();
    ++region.inside;
    lock.unlock();
    run_chunks(region);
    lock.lock();
    // Notify before unlocking: the caller destroys the region as soon as it
    // holds the mutex and sees no worker inside.
    if (--region.inside == 0) region.left.notify_one();
  }
}

void ThreadPool::run_chunks(Region& region) {
  while (!region.cancelled.load(std::memory_order_relaxed)) {
    const std::size_t i = region.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= region.nchunks) return;
    const std::size_t lo = region.begin + i * region.grain;
    try {
      (*region.body)(lo, std::min(lo + region.grain, region.end));
    } catch (...) {
      region.cancelled.store(true, std::memory_order_relaxed);
      std::lock_guard lock(mutex_);
      if (!region.error) region.error = std::current_exception();
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (end <= begin) return;
  const std::size_t total = end - begin;
  if (grain == 0)
    grain = std::max<std::size_t>(
        1, total / (8u * static_cast<std::size_t>(concurrency())));
  const std::size_t nchunks = (total + grain - 1) / grain;
  if (nchunks <= 1 || workers() == 0) {
    body(begin, end);
    return;
  }

  const std::size_t seats = std::min<std::size_t>(workers(), nchunks - 1);
  Region region;
  region.body = &body;
  region.begin = begin;
  region.end = end;
  region.grain = grain;
  region.nchunks = nchunks;
  region.seats = seats;
  {
    std::lock_guard lock(mutex_);
    open_.push_back(&region);
  }
  if (seats > 1)
    wake_.notify_all();
  else
    wake_.notify_one();

  run_chunks(region);

  // The cursor is exhausted (or the region cancelled): no worker that joins
  // from here on has anything to claim, so withdraw the region and wait only
  // for the workers still running one of its chunks.
  std::unique_lock lock(mutex_);
  if (region.seats > 0)
    open_.erase(std::find(open_.begin(), open_.end(), &region));
  region.left.wait(lock, [&region] { return region.inside == 0; });
  lock.unlock();
  if (region.error) std::rethrow_exception(region.error);
}

}  // namespace plbhec::exec
