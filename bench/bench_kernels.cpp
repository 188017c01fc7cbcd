// Performance-backbone microbenchmark: packed GEMM micro-kernel GFLOP/s
// against the seed scalar kernel, and per-block dispatch overhead of the
// persistent thread pool against the seed's spawn/join pattern.
// Emits JSON (stdout, plus an output path if given) with its gates
// declared inline; tools/check_bench.py evaluates them against the
// committed bench/results/bench_kernels.json. `--smoke` runs with reduced
// timing budgets but the same JSON structure.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "plbhec/common/rng.hpp"
#include "plbhec/exec/thread_pool.hpp"
#include "plbhec/linalg/blas.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- The seed scalar kernel, verbatim (cache-blocked i-k-j loop with the
// --- zero-skip branch), kept as the GFLOP/s baseline. ---
constexpr std::size_t kBlockI = 64;
constexpr std::size_t kBlockK = 64;
constexpr std::size_t kBlockJ = 256;

void seed_gemm(std::size_t m, std::size_t n, std::size_t k, const double* a,
               const double* b, double* c) {
  for (std::size_t i0 = 0; i0 < m; i0 += kBlockI) {
    const std::size_t i1 = std::min(i0 + kBlockI, m);
    for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
      const std::size_t k1 = std::min(k0 + kBlockK, k);
      for (std::size_t j0 = 0; j0 < n; j0 += kBlockJ) {
        const std::size_t j1 = std::min(j0 + kBlockJ, n);
        for (std::size_t i = i0; i < i1; ++i) {
          double* crow = &c[i * n];
          for (std::size_t kk = k0; kk < k1; ++kk) {
            const double aik = a[i * k + kk];
            if (aik == 0.0) continue;
            const double* brow = &b[kk * n];
            for (std::size_t j = j0; j < j1; ++j) crow[j] += aik * brow[j];
          }
        }
      }
    }
  }
}

struct GemmTimes {
  double seed_gflops = 0.0;
  double packed_gflops = 0.0;
  double max_abs_diff = 0.0;  ///< packed vs seed result (sanity)
};

GemmTimes bench_gemm(std::size_t n, double budget) {
  plbhec::Rng rng(0x5eed + n);
  std::vector<double> a(n * n), b(n * n);
  for (auto& v : a) v = rng.uniform(-1.0, 1.0);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  std::vector<double> c_seed(n * n, 0.0), c_packed(n * n, 0.0);

  const double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(n);
  const auto time_reps = [&](auto&& fn, std::vector<double>& c) {
    // Warm up once, then run until ~`budget` seconds have elapsed.
    std::fill(c.begin(), c.end(), 0.0);
    fn(c);
    double best = 1e300;
    double elapsed = 0.0;
    std::size_t reps = 0;
    while (elapsed < budget || reps < 3) {
      std::fill(c.begin(), c.end(), 0.0);
      const Clock::time_point t0 = Clock::now();
      fn(c);
      const double s = seconds_since(t0);
      best = std::min(best, s);
      elapsed += s;
      ++reps;
    }
    return best;
  };

  GemmTimes out;
  const double t_seed = time_reps(
      [&](std::vector<double>& c) {
        seed_gemm(n, n, n, a.data(), b.data(), c.data());
      },
      c_seed);
  const double t_packed = time_reps(
      [&](std::vector<double>& c) {
        plbhec::linalg::blas::gemm(n, n, n, {a.data(), n * n},
                                   {b.data(), n * n}, {c.data(), n * n});
      },
      c_packed);
  out.seed_gflops = flops / t_seed / 1e9;
  out.packed_gflops = flops / t_packed / 1e9;
  for (std::size_t i = 0; i < n * n; ++i)
    out.max_abs_diff =
        std::max(out.max_abs_diff, std::fabs(c_seed[i] - c_packed[i]));
  return out;
}

struct DispatchTimes {
  double spawn_join_us = 0.0;    ///< seed pattern: threads spawned per block
  double pool_dispatch_us = 0.0; ///< persistent pool parallel_for per block
};

DispatchTimes bench_dispatch(unsigned lanes, bool smoke) {
  DispatchTimes out;
  std::vector<std::size_t> sink(lanes, 0);

  {  // Seed gemm_parallel pattern: a fresh spawn + join per block.
    const std::size_t reps = smoke ? 60 : 300;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      std::vector<std::thread> threads;
      threads.reserve(lanes);
      for (unsigned t = 0; t < lanes; ++t)
        threads.emplace_back([&sink, t] { ++sink[t]; });
      for (auto& th : threads) th.join();
    }
    out.spawn_join_us = seconds_since(t0) / static_cast<double>(reps) * 1e6;
  }

  {  // Persistent pool: same fan-out shape, workers already parked.
    plbhec::exec::ThreadPool pool(lanes - 1);
    const std::size_t reps = smoke ? 1000 : 5000;
    // Warm up (first dispatch wakes the workers cold).
    pool.parallel_for(0, lanes, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) ++sink[i];
    });
    const Clock::time_point t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r)
      pool.parallel_for(0, lanes, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) ++sink[i];
      });
    out.pool_dispatch_us = seconds_since(t0) / static_cast<double>(reps) * 1e6;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke")
      smoke = true;
    else
      out_path = arg;
  }
  const double budget = smoke ? 0.03 : 0.3;

  const std::vector<std::size_t> sizes{128, 256, 512};
  plbhec::bench::Gates gates;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::string row = "gemm[" + std::to_string(i) + "].";
    gates.rel(row + "speedup", ">=", 0.20)
        .rel_ceiling(row + "max_abs_diff", 100.0, 1e-6);
  }
  gates.rel("dispatch.overhead_ratio", ">=", 0.05);

  std::string json = "{\n  \"benchmark\": \"bench_kernels\",\n";
  json += gates.json();
  json += "  \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"gemm\": [\n";
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const GemmTimes t = bench_gemm(sizes[i], budget);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"n\": %zu, \"seed_gflops\": %.3f, "
                  "\"packed_gflops\": %.3f, \"speedup\": %.17g, "
                  "\"max_abs_diff\": %.17g}%s\n",
                  sizes[i], t.seed_gflops, t.packed_gflops,
                  t.packed_gflops / t.seed_gflops, t.max_abs_diff,
                  i + 1 < sizes.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";

  const unsigned lanes = 4;
  const DispatchTimes d = bench_dispatch(lanes, smoke);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"dispatch\": {\"lanes\": %u, \"spawn_join_us\": %.2f, "
                "\"pool_dispatch_us\": %.2f, \"overhead_ratio\": %.17g}\n}\n",
                lanes, d.spawn_join_us, d.pool_dispatch_us,
                d.spawn_join_us / d.pool_dispatch_us);
  json += buf;

  return plbhec::bench::write_json(json, {out_path});
}
