/// Reproduces the §V-a scalar: the time spent computing the task-size
/// distribution with the interior-point method (paper: mean 170 ms,
/// sd 32.3 ms, for 4 machines and 65536^2 matrices — on 2015 hardware).
/// Google-benchmark micro-benchmarks of the production block-size
/// selection (the equal-time root find), of the paper's interior-point
/// formulation kept as the fidelity oracle, and of the full fit + select
/// pipeline, across processing-unit counts.

#include <benchmark/benchmark.h>

#include "plbhec/common/rng.hpp"
#include "plbhec/fit/least_squares.hpp"
#include "plbhec/solver/block_selection.hpp"
#include "plbhec/solver/ip_oracle.hpp"

namespace {

using namespace plbhec;

/// Builds realistic fitted models for `n` heterogeneous units.
std::vector<fit::PerfModel> make_models(std::size_t n) {
  Rng rng(n * 31 + 7);
  std::vector<fit::PerfModel> models;
  for (std::size_t u = 0; u < n; ++u) {
    fit::PerfModel m;
    m.exec.terms = {fit::BasisFn::kOne, fit::BasisFn::kX,
                    fit::BasisFn::kXLnX};
    m.exec.coefficients = {rng.uniform(0.001, 0.05),
                           rng.uniform(50.0, 12'000.0),
                           rng.uniform(0.0, 20.0)};
    m.transfer.slope = rng.uniform(15.0, 25.0);
    m.transfer.latency = rng.uniform(0.0, 0.01);
    models.push_back(m);
  }
  return models;
}

fit::SampleSet make_samples(std::size_t count) {
  Rng rng(count);
  fit::SampleSet s;
  double x = 0.002;
  for (std::size_t i = 0; i < count; ++i) {
    s.add(x, (0.01 + 3.0 * x) * rng.lognormal_factor(0.02));
    x *= 1.6;
    if (x > 0.4) x = 0.002 * rng.uniform(1.0, 2.0);
  }
  return s;
}

void BM_BlockSelection(benchmark::State& state) {
  const auto models = make_models(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto sel = solver::select_block_sizes(models, 0.25);
    benchmark::DoNotOptimize(sel.fractions.data());
  }
}
BENCHMARK(BM_BlockSelection)->RangeMultiplier(2)->Range(4, 256);

void BM_InteriorPointOracle(benchmark::State& state) {
  const auto models = make_models(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto ip = solver::solve_equal_time_ip(models, 0.25);
    benchmark::DoNotOptimize(ip.x.data());
  }
}
BENCHMARK(BM_InteriorPointOracle)
    ->RangeMultiplier(2)
    ->Range(4, 256)
    ->Unit(benchmark::kMicrosecond);

void BM_ModelSelection(benchmark::State& state) {
  const auto samples = make_samples(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto fitres = fit::select_model(samples);
    benchmark::DoNotOptimize(&fitres);
  }
}
BENCHMARK(BM_ModelSelection)->Arg(6)->Arg(12)->Arg(30);

void BM_FullSelectionPipeline(benchmark::State& state) {
  // Fit 8 units from samples, then solve — the whole "solveEquationSystem"
  // path of Algorithm 2, which the paper reports at 170 +- 32 ms.
  std::vector<fit::SampleSet> sample_sets;
  for (std::size_t u = 0; u < 8; ++u) sample_sets.push_back(make_samples(10));
  for (auto _ : state) {
    std::vector<fit::PerfModel> models;
    for (const auto& s : sample_sets) {
      fit::PerfModel m;
      m.exec = fit::select_model(s).model;
      m.transfer = fit::fit_transfer(s);
      models.push_back(m);
    }
    const auto sel = solver::select_block_sizes(models);
    benchmark::DoNotOptimize(sel.fractions.data());
  }
}
BENCHMARK(BM_FullSelectionPipeline)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
