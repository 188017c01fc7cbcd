#include "plbhec/solver/block_selection.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "plbhec/common/contracts.hpp"
#include "plbhec/solver/equal_time.hpp"

namespace plbhec::solver {
namespace {

/// How far E(x) may sit from the common time without a fault in the
/// solve: the rounding error of evaluating E (16 ulps of its summed term
/// magnitudes; fits whose e^x terms cancel carry ~1e9 coefficients for a
/// curve of ~1 s) plus the slope times the precision a crossing pins x to
/// (a steep curve near E = 0). On ordinary curves both are far below
/// 1e-9 of the finish time.
double finish_time_slack(const fit::PerfModel& m, double x) {
  double magnitude = std::fabs(m.transfer(x));
  for (std::size_t i = 0; i < m.exec.terms.size(); ++i)
    magnitude +=
        std::fabs(m.exec.coefficients[i] * fit::eval(m.exec.terms[i], x));
  return 16.0 * std::numeric_limits<double>::epsilon() * magnitude +
         4.0 * kCrossingTolerance * x * std::fabs(m.total_derivative(x));
}

}  // namespace

BlockSelection select_block_sizes(std::span<const fit::PerfModel> models,
                                  double window) {
  BlockSelection out;
  const auto t_begin = std::chrono::steady_clock::now();
  const std::size_t n = models.size();
  PLBHEC_EXPECTS(window > 0.0 && window <= 1.0);
  if (n == 0) return out;
  for (const auto& m : models) PLBHEC_EXPECTS(m.valid());

  // Units whose fitted curve is (near-)flat carry no size information —
  // typically an intercept-only fallback from a single profiling sample.
  // Solving the equal-time system with a flat curve hands that unit an
  // arbitrary (often huge) share, so park such units at the minimum
  // fraction and solve the informative ones over the rest of the window.
  std::vector<std::size_t> informative;
  for (std::size_t g = 0; g < n; ++g) {
    const double span =
        models[g].total_time(window) - models[g].total_time(kMinFraction);
    const double scale =
        std::max(std::fabs(models[g].total_time(window)), 1e-12);
    if (span > 1e-3 * scale) informative.push_back(g);
  }
  out.ok = true;
  EqualTimeResult eq;
  if (informative.empty()) {
    // Nothing informative at all: uniform split.
    out.fractions.assign(n, window / static_cast<double>(n));
  } else {
    std::vector<fit::PerfModel> subset;
    if (informative.size() < n)
      for (std::size_t g : informative) subset.push_back(models[g]);
    eq = solve_equal_time(
        subset.empty() ? models : std::span<const fit::PerfModel>(subset),
        window - kMinFraction * static_cast<double>(n - informative.size()));
    PLBHEC_ASSERT(eq.ok);
    out.fractions.assign(n, kMinFraction);
    for (std::size_t i = 0; i < informative.size(); ++i)
      out.fractions[informative[i]] = eq.fractions[i];
  }

  // Postconditions, on in every build: Eq. (3) to rounding, the bounds,
  // and Eq. (4) to 1e-9 relative (plus the curve's own slack, see
  // finish_time_slack) on every solved unit strictly inside them but at
  // most one (the one that took the leftover inside a dip, see
  // equal_time.hpp).
  double sum = 0.0;
  for (std::size_t g = 0; g < n; ++g) {
    const double f = out.fractions[g];
    PLBHEC_ENSURES(f >= kMinFraction && f <= window);
    sum += f;
    out.predicted_time = std::max(out.predicted_time, models[g].total_time(f));
  }
  PLBHEC_ENSURES(std::fabs(sum - window) <= 1e-12 * window);
  std::size_t off_time = 0;
  for (std::size_t g : informative) {
    const double f = out.fractions[g];
    if (f <= kMinFraction || f >= window) continue;
    const double miss = std::fabs(models[g].total_time(f) - eq.common_time) -
                        1e-9 * std::fabs(eq.common_time);
    if (miss > 0.0 && miss > finish_time_slack(models[g], f)) ++off_time;
  }
  PLBHEC_ENSURES(off_time <= 1);

  out.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_begin)
          .count();
  return out;
}

}  // namespace plbhec::solver
