/// Ablation: the production block-size selector (the equal-time root
/// find) against the paper's interior-point formulation of Eq. (3)-(5),
/// kept as the fidelity oracle. Sweeps 2-256 units; per size it reports
/// the largest share difference and the predicted-makespan ratio where the
/// oracle converges, the cost per solve of each, and how often the oracle
/// fails to converge.

#include <chrono>

#include "bench_common.hpp"
#include "plbhec/solver/block_selection.hpp"
#include "plbhec/solver/ip_oracle.hpp"

namespace {

using namespace plbhec;

std::vector<fit::PerfModel> random_models(std::size_t n, Rng& rng) {
  std::vector<fit::PerfModel> models;
  for (std::size_t u = 0; u < n; ++u) {
    fit::PerfModel m;
    const int family = static_cast<int>(rng.uniform_int(0, 2));
    if (family == 0) {
      m.exec.terms = {fit::BasisFn::kOne, fit::BasisFn::kX};
      m.exec.coefficients = {rng.uniform(0.0, 0.05),
                             rng.uniform(10.0, 5000.0)};
    } else if (family == 1) {
      m.exec.terms = {fit::BasisFn::kOne, fit::BasisFn::kX,
                      fit::BasisFn::kXLnX};
      m.exec.coefficients = {rng.uniform(0.0, 0.05),
                             rng.uniform(10.0, 2000.0),
                             rng.uniform(0.0, 50.0)};
    } else {
      m.exec.terms = {fit::BasisFn::kOne, fit::BasisFn::kX, fit::BasisFn::kX2};
      m.exec.coefficients = {rng.uniform(0.0, 0.05),
                             rng.uniform(10.0, 2000.0),
                             rng.uniform(0.0, 500.0)};
    }
    m.transfer.slope = rng.uniform(5.0, 30.0);
    m.transfer.latency = rng.uniform(0.0, 0.005);
    models.push_back(m);
  }
  return models;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace plbhec;
  using Clock = std::chrono::steady_clock;
  const Cli cli(argc, argv);
  const std::size_t trial_budget = cli.full() ? 1600 : 400;
  constexpr double kWindow = 0.25;  // PLB-HeC's default execution window

  std::printf(
      "=== Ablation — equal-time root find vs interior-point oracle ===\n");
  Table t({"units", "trials", "max |x - x_ip|", "makespan / IP (max)",
           "root find us", "IP us", "IP failures"});
  Rng rng(11);
  for (std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    const std::size_t trials = std::max<std::size_t>(4, trial_budget / n);
    RunningStats diff, ratio, sel_us, ip_us;
    std::size_t failures = 0;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      const auto models = random_models(n, rng);
      const auto t0 = Clock::now();
      const auto sel = solver::select_block_sizes(models, kWindow);
      const auto t1 = Clock::now();
      const auto ip = solver::solve_equal_time_ip(models, kWindow);
      const auto t2 = Clock::now();
      sel_us.add(std::chrono::duration<double, std::micro>(t1 - t0).count());
      ip_us.add(std::chrono::duration<double, std::micro>(t2 - t1).count());
      if (ip.status != solver::IpStatus::kSolved) {
        ++failures;
        continue;
      }
      double worst = 0.0;
      double ip_makespan = 0.0;
      for (std::size_t u = 0; u < n; ++u) {
        worst = std::max(worst, std::fabs(sel.fractions[u] - ip.x[u]));
        ip_makespan = std::max(ip_makespan, models[u].total_time(ip.x[u]));
      }
      diff.add(worst);
      ratio.add(sel.predicted_time / ip_makespan);
    }
    char max_dx[32];
    std::snprintf(max_dx, sizeof(max_dx), "%.1e", diff.max());
    t.row()
        .add(n)
        .add(trials)
        .add(std::string(max_dx))
        .add(ratio.max(), 9)
        .add(sel_us.mean(), 1)
        .add(ip_us.mean(), 1)
        .add(failures);
  }
  t.print();
  std::printf(
      "\nExpected: these curves are monotone, so where the oracle converges\n"
      "the two agree to rounding, with a makespan ratio of 1. The root find\n"
      "costs O(n) per step, the oracle factors a dense KKT system per\n"
      "Newton step. The paper reports 170 +- 32 ms per IPOPT solve at 4\n"
      "machines on 2015 hardware (§V-a).\n");
  return 0;
}
