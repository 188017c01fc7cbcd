// Tests for the shared execution backbone: the packed GEMM micro-kernel
// against a naive reference on adversarial shapes, the persistent pool
// (nesting, exceptions, tiny pools, workers joining a region, a caller
// never waiting for a worker to start), the reusable WorkerSet, and the
// ThreadEngine regression that probe samples exclude thread startup.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "plbhec/apps/synthetic.hpp"
#include "plbhec/common/rng.hpp"
#include "plbhec/exec/gemm_micro.hpp"
#include "plbhec/exec/thread_pool.hpp"
#include "plbhec/exec/worker_set.hpp"
#include "plbhec/rt/thread_engine.hpp"

namespace plbhec::exec {
namespace {

// ---- Packed GEMM vs. naive reference ---------------------------------------

void naive_gemm(std::size_t m, std::size_t n, std::size_t k, const double* a,
                const double* b, double* c) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t kk = 0; kk < k; ++kk)
      for (std::size_t j = 0; j < n; ++j)
        c[i * n + j] += a[i * k + kk] * b[kk * n + j];
}

void expect_gemm_matches(std::size_t m, std::size_t n, std::size_t k) {
  Rng rng(m * 131 + n * 17 + k);
  std::vector<double> a(m * k), b(k * n);
  for (auto& v : a) v = rng.uniform(-1.0, 1.0);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  // Pre-filled C checks the accumulate (C +=) semantics too.
  std::vector<double> expected(m * n), actual;
  for (auto& v : expected) v = rng.uniform(-1.0, 1.0);
  actual = expected;
  naive_gemm(m, n, k, a.data(), b.data(), expected.data());
  gemm_packed(m, n, k, a.data(), b.data(), actual.data());
  for (std::size_t i = 0; i < m * n; ++i)
    ASSERT_NEAR(actual[i], expected[i], 1e-9)
        << "m=" << m << " n=" << n << " k=" << k << " at " << i;
}

TEST(GemmPacked, OddAndPrimeSquareSizes) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 7u, 11u, 17u, 31u, 64u, 97u, 129u})
    expect_gemm_matches(n, n, n);
}

TEST(GemmPacked, RectangularShapes) {
  expect_gemm_matches(1, 8, 3);
  expect_gemm_matches(5, 1, 9);
  expect_gemm_matches(3, 17, 1);   // k = 1
  expect_gemm_matches(2, 3, 64);
  expect_gemm_matches(4, 8, 259);  // crosses the KC panel boundary
  expect_gemm_matches(13, 40, 7);
}

TEST(GemmPacked, EmptyDimensionsAreNoOps) {
  std::vector<double> a{1.0}, b{2.0}, c{5.0};
  gemm_packed(0, 1, 1, a.data(), b.data(), c.data());
  gemm_packed(1, 0, 1, a.data(), b.data(), c.data());
  gemm_packed(1, 1, 0, a.data(), b.data(), c.data());
  EXPECT_DOUBLE_EQ(c[0], 5.0);
}

TEST(GemmPacked, ParallelMatchesSerialIncludingSmallM) {
  ThreadPool pool(3);
  for (const auto [m, n, k] :
       {std::array<std::size_t, 3>{2, 97, 53},   // m < lanes
        std::array<std::size_t, 3>{129, 64, 31},
        std::array<std::size_t, 3>{100, 100, 100}}) {
    Rng rng(m + n + k);
    std::vector<double> a(m * k), b(k * n);
    for (auto& v : a) v = rng.uniform(-1.0, 1.0);
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    std::vector<double> c1(m * n, 0.0), c2(m * n, 0.0);
    gemm_packed(m, n, k, a.data(), b.data(), c1.data());
    gemm_packed_parallel(m, n, k, a.data(), b.data(), c2.data(), pool);
    for (std::size_t i = 0; i < m * n; ++i) ASSERT_DOUBLE_EQ(c1[i], c2[i]);
  }
}

// ---- Thread pool ------------------------------------------------------------

// Bounds every wait below that only a pool bug could make endless, so such
// a bug fails the test instead of hanging it. No assertion reads the clock.
constexpr auto kHangBound = std::chrono::seconds(30);

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  const std::size_t n = 100'000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(0, n, 0, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, 8, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t outer = lo; outer < hi; ++outer)
      pool.parallel_for(0, 64, 4, [&](std::size_t ilo, std::size_t ihi) {
        total.fetch_add(ihi - ilo, std::memory_order_relaxed);
      });
  });
  EXPECT_EQ(total.load(), 8u * 64u);
}

TEST(ThreadPool, OneWorkerPoolCompletes) {
  ThreadPool pool(1);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, 1000, 7, [&](std::size_t lo, std::size_t hi) {
    total.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 1000u);
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.concurrency(), 1u);
  const auto caller = std::this_thread::get_id();
  std::thread::id executed;
  pool.parallel_for(0, 10, 1, [&](std::size_t, std::size_t) {
    executed = std::this_thread::get_id();
  });
  EXPECT_EQ(executed, caller);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(0, 100, 1,
                        [&](std::size_t lo, std::size_t) {
                          if (lo == 42) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must stay usable after an exception drained the region.
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, 100, 1, [&](std::size_t lo, std::size_t hi) {
    total.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 100u);
}

TEST(ThreadPool, ConcurrentCallersShareOnePool) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t)
    callers.emplace_back([&] {
      for (int r = 0; r < 50; ++r)
        pool.parallel_for(0, 256, 16, [&](std::size_t lo, std::size_t hi) {
          total.fetch_add(hi - lo, std::memory_order_relaxed);
        });
    });
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 4u * 50u * 256u);
}

TEST(ThreadPool, WorkersJoinARegion) {
  ThreadPool pool(3);
  const std::size_t lanes = pool.concurrency();
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t started = 0;
  std::size_t timed_out = 0;
  // Each chunk holds its thread until every chunk has started, so the
  // region finishes without a timeout only if every worker joined it.
  pool.parallel_for(0, lanes, 1, [&](std::size_t, std::size_t) {
    std::unique_lock lock(mutex);
    ++started;
    cv.notify_all();
    if (!cv.wait_for(lock, kHangBound, [&] { return started == lanes; }))
      ++timed_out;
  });
  EXPECT_EQ(timed_out, 0u);
}

TEST(ThreadPool, CallerFinishesAloneWhileWorkersAreBusy) {
  ThreadPool pool(3);
  const std::size_t lanes = pool.concurrency();
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t holding = 0;
  bool released = false;
  bool hold_timed_out = false;
  // A second thread's region holds one chunk on every lane until released,
  // so no worker is free while the caller below runs its own region.
  std::thread holder([&] {
    pool.parallel_for(0, lanes, 1, [&](std::size_t, std::size_t) {
      std::unique_lock lock(mutex);
      ++holding;
      cv.notify_all();
      if (!cv.wait_for(lock, kHangBound, [&] { return released; }))
        hold_timed_out = true;
    });
  });
  bool all_held = false;
  {
    std::unique_lock lock(mutex);
    all_held = cv.wait_for(lock, kHangBound, [&] { return holding == lanes; });
  }
  std::atomic<std::size_t> covered{0};
  pool.parallel_for(0, 100, 1, [&](std::size_t lo, std::size_t hi) {
    covered.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  {
    std::lock_guard lock(mutex);
    released = true;
  }
  cv.notify_all();
  holder.join();
  EXPECT_TRUE(all_held);
  EXPECT_EQ(covered.load(), 100u);
  // The holders were released only after the caller's region returned: a
  // caller that waited for a worker to start would have run into the bound.
  EXPECT_FALSE(hold_timed_out);
}

TEST(ThreadPool, StressManySmallRegions) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  for (int r = 0; r < 2000; ++r)
    pool.parallel_for(0, 8, 1, [&](std::size_t lo, std::size_t hi) {
      total.fetch_add(hi - lo, std::memory_order_relaxed);
    });
  EXPECT_EQ(total.load(), 2000u * 8u);
}

// ---- WorkerSet --------------------------------------------------------------

TEST(WorkerSet, RunsEveryIndexEachRound) {
  WorkerSet set(4, /*pin=*/false);
  std::vector<std::atomic<int>> counts(4);
  for (int round = 0; round < 3; ++round)
    set.run([&](std::size_t i) {
      counts[i].fetch_add(1, std::memory_order_relaxed);
    });
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(counts[i].load(), 3);
}

TEST(WorkerSet, ThreadsCreatedOnceAcrossRounds) {
  WorkerSet set(3, /*pin=*/false);
  EXPECT_EQ(set.threads_created(), 3u);
  for (int round = 0; round < 5; ++round) set.run([](std::size_t) {});
  EXPECT_EQ(set.threads_created(), 3u);  // no per-round spawning
}

// ---- ThreadEngine regression: probes exclude thread startup -----------------

class CountingScheduler final : public rt::Scheduler {
 public:
  std::string name() const override { return "counting"; }
  void start(const std::vector<rt::UnitInfo>&, const rt::WorkInfo&) override {}
  std::size_t next_block(rt::UnitId, double) override { return 100; }
  void on_complete(const rt::TaskObservation& obs) override {
    observations.push_back(obs);
  }
  std::vector<rt::TaskObservation> observations;
};

TEST(ThreadEngine, UnitWorkersPersistAcrossRuns) {
  apps::SyntheticWorkload::Config cfg;
  cfg.grains = 500;
  cfg.spin_iters_per_grain = 20;
  rt::ThreadEngineOptions opts;
  opts.slowdowns = {1.0, 1.5};
  rt::ThreadEngine engine(opts);

  // The unit workers exist before any run: the first probe block of a run
  // is timed on an already-parked thread, so the F_p(x) samples fitted in
  // Phase 1 contain no OS thread-creation latency.
  EXPECT_EQ(engine.worker_threads_created(), 2u);

  apps::SyntheticWorkload w1(cfg), w2(cfg);
  CountingScheduler s1, s2;
  const rt::RunResult r1 = engine.run(w1, s1);
  const rt::RunResult r2 = engine.run(w2, s2);
  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;

  // Reusing the engine spawned no further threads.
  EXPECT_EQ(engine.worker_threads_created(), 2u);

  // RunResult contract unchanged: every grain accounted, observations
  // carry strictly positive kernel timings.
  for (const rt::RunResult* r : {&r1, &r2}) {
    std::size_t done = 0;
    for (const auto& s : r->unit_stats) done += s.grains;
    EXPECT_EQ(done, cfg.grains);
  }
  for (const auto& obs : s1.observations) EXPECT_GT(obs.exec_seconds, 0.0);
}

}  // namespace
}  // namespace plbhec::exec
