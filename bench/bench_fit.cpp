// Fitting-pipeline microbenchmark: select_model latency of the cached-moment
// Gram/Cholesky engine against the design-matrix QR engine across the
// sample-count range the scheduler sees, and fit_all scaling of the per-unit
// parallel fan-out against a serial loop. Both engines score the subsets as
// one prefix tree (shared Cholesky rows, shared Householder steps), so QR's
// cost grows with the sample count only through the steps it cannot share;
// at 8 samples QR is the faster engine. Emits JSON (stdout, plus an output
// path if given) whose gates require the Gram engine to agree with QR and
// to beat it 1.5x at 64 samples; tools/check_bench.py evaluates them
// against the committed bench/results/bench_fit.json. `--smoke` runs a
// fast version.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "plbhec/common/rng.hpp"
#include "plbhec/fit/least_squares.hpp"
#include "plbhec/fit/samples.hpp"
#include "plbhec/rt/profile_db.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using plbhec::Rng;
namespace fit = plbhec::fit;
namespace rt = plbhec::rt;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best-of-reps wall time for `fn`, running until ~`budget` seconds elapse.
double time_best(double budget, auto&& fn) {
  fn();  // warm-up
  double best = 1e300;
  double elapsed = 0.0;
  std::size_t reps = 0;
  while (elapsed < budget || reps < 3) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const double s = seconds_since(t0);
    best = std::min(best, s);
    elapsed += s;
    ++reps;
  }
  return best;
}

fit::SampleSet noisy_samples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  fit::SampleSet s;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(0.002, 0.9);
    s.add(x, (0.03 + 2.0 * x + 5.0 * x * x) * rng.lognormal_factor(0.05));
  }
  return s;
}

struct SelectTimes {
  double qr_us = 0.0;
  double gram_us = 0.0;
  double max_rel_diff = 0.0;  ///< prediction disagreement (sanity)
};

SelectTimes bench_select(std::size_t n, double budget) {
  const fit::SampleSet s = noisy_samples(n, 0xf17 + n);
  fit::SelectionOptions qr_opts, gram_opts;
  qr_opts.engine = fit::FitEngine::kQr;
  gram_opts.engine = fit::FitEngine::kGram;

  SelectTimes out;
  volatile double sink = 0.0;
  out.qr_us = 1e6 * time_best(budget, [&] {
    sink = fit::select_model(s, qr_opts).bic;
  });
  out.gram_us = 1e6 * time_best(budget, [&] {
    sink = fit::select_model(s, gram_opts).bic;
  });
  (void)sink;

  const fit::FitResult a = fit::select_model(s, qr_opts);
  const fit::FitResult b = fit::select_model(s, gram_opts);
  for (double x : {0.01, 0.05, 0.2, 0.5, 0.9}) {
    const double pa = a.model(x);
    const double pb = b.model(x);
    out.max_rel_diff = std::max(
        out.max_rel_diff, std::fabs(pa - pb) / std::max(1e-12, std::fabs(pa)));
  }
  return out;
}

struct FitAllTimes {
  double serial_us = 0.0;
  double pool_us = 0.0;
  double cached_us = 0.0;  ///< second fit_all, served from the cache
};

FitAllTimes bench_fit_all(std::size_t units, std::size_t samples,
                          double budget) {
  rt::ProfileDb db(units, 100000);
  Rng rng(0xa11);
  rt::TaskObservation obs;
  for (rt::UnitId u = 0; u < units; ++u) {
    obs.unit = u;
    for (std::size_t i = 0; i < samples; ++i) {
      obs.grains = 100 + static_cast<std::size_t>(rng.uniform(0.0, 50000.0));
      const double x = db.grains_to_fraction(obs.grains);
      obs.exec_seconds =
          (0.02 + (1.0 + 0.3 * u) * x + 4.0 * x * x) *
          rng.lognormal_factor(0.05);
      obs.transfer_seconds = 0.001 + 0.5 * x;
      db.record(obs);
    }
  }

  FitAllTimes out;
  out.serial_us = 1e6 * time_best(budget, [&] {
    db.clear_fit_cache();
    for (rt::UnitId u = 0; u < units; ++u) (void)db.fit_unit(u);
  });
  out.pool_us = 1e6 * time_best(budget, [&] {
    db.clear_fit_cache();
    (void)db.fit_all();
  });
  (void)db.fit_all();  // prime the cache
  out.cached_us = 1e6 * time_best(budget, [&] { (void)db.fit_all(); });
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
  const double budget = smoke ? 0.02 : 0.25;

  const std::vector<std::size_t> counts{8, 16, 32, 64, 128, 256};
  plbhec::bench::Gates gates;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::string row = "select_model[" + std::to_string(i) + "].";
    gates.rel(row + "speedup", ">=", 0.20);
    if (counts[i] == 64) gates.abs(row + "speedup", ">=", 1.5);
    gates.abs(row + "max_rel_diff", "<=", 1e-6);
  }
  gates.rel("fit_all.parallel_speedup", ">=", 0.05)
      .rel("fit_all.cache_speedup", ">=", 0.05);

  std::string json = "{\n  \"benchmark\": \"bench_fit\",\n";
  json += gates.json();
  json += "  \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"select_model\": [\n";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const SelectTimes t = bench_select(counts[i], budget);
    const double speedup = t.qr_us / t.gram_us;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"samples\": %zu, \"qr_us\": %.2f, \"gram_us\": %.2f, "
                  "\"speedup\": %.17g, \"max_rel_diff\": %.17g}%s\n",
                  counts[i], t.qr_us, t.gram_us, speedup, t.max_rel_diff,
                  i + 1 < counts.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";

  const std::size_t units = 16;
  const FitAllTimes f = bench_fit_all(units, 64, budget);
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "  \"fit_all\": {\"units\": %zu, \"samples_per_unit\": 64, "
                "\"serial_us\": %.2f, \"pool_us\": %.2f, "
                "\"parallel_speedup\": %.17g, \"cached_us\": %.2f, "
                "\"cache_speedup\": %.17g}\n}\n",
                units, f.serial_us, f.pool_us, f.serial_us / f.pool_us,
                f.cached_us, f.serial_us / f.cached_us);
  json += buf;

  return plbhec::bench::write_json(json, {out_path});
}
