#include "plbhec/solver/equal_time.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "plbhec/common/contracts.hpp"

namespace plbhec::solver {
namespace {

constexpr std::size_t kScan = 64;     ///< scan points bracketing a crossing
constexpr double kBracketTol = 1e-10;  ///< relative width of the last T bracket
constexpr std::size_t kMaxIterations = 200;

/// The curves of one solve, each scanned once on a shared grid of
/// [x_min, x_max]; the running maximum of a curve over the grid brackets
/// its first crossing of any level T.
class Crossings {
 public:
  Crossings(std::span<const fit::PerfModel> models, double x_min,
            double x_max)
      : models_(models), peak_(models.size() * kScan) {
    for (std::size_t k = 0; k < kScan; ++k)
      xs_[k] = x_min + (x_max - x_min) * static_cast<double>(k) /
                           static_cast<double>(kScan - 1);
    xs_.back() = x_max;
    for (std::size_t g = 0; g < models.size(); ++g) {
      double* peak = &peak_[g * kScan];
      for (std::size_t k = 0; k < kScan; ++k) {
        const double t = models[g].total_time(xs_[k]);
        const double prev = k > 0 ? peak[k - 1] : 0.0;
        peak[k] = !std::isfinite(t) ? prev : k > 0 ? std::max(t, prev) : t;
      }
    }
  }

  /// Every curve starts above this level...
  [[nodiscard]] double lowest() const {
    double t = peak_[0];
    for (std::size_t i = 0; i < peak_.size(); i += kScan)
      t = std::min(t, peak_[i]);
    return std::nextafter(t, -std::numeric_limits<double>::infinity());
  }
  /// ...and none exceeds this one on the grid.
  [[nodiscard]] double highest() const {
    double t = peak_[kScan - 1];
    for (std::size_t i = kScan - 1; i < peak_.size(); i += kScan)
      t = std::max(t, peak_[i]);
    return t;
  }

  /// Moves x to unit g's first crossing above t and returns dx/dt there
  /// (0 at a bound). The incoming x seeds Newton when it lies in the new
  /// bracket, so successive levels cost a step or two.
  double cross(std::size_t g, double t, double& x) const {
    const double* peak = &peak_[g * kScan];
    const auto k = static_cast<std::size_t>(
        std::upper_bound(peak, peak + kScan, t) - peak);
    if (k == 0 || k == kScan) {
      x = k == 0 ? xs_.front() : xs_.back();
      return 0.0;
    }
    double lo = xs_[k - 1];  // E(lo) <= t < E(hi)
    double hi = xs_[k];
    if (!(x > lo && x < hi)) x = 0.5 * (lo + hi);
    const fit::PerfModel& m = models_[g];
    double d = 0.0;
    for (std::size_t it = 0; it < kMaxIterations; ++it) {
      const double e = m.total_time(x) - t;
      d = m.total_derivative(x);
      if (std::fabs(e) <= kCrossingTolerance * std::fabs(t)) break;
      (e > 0.0 ? hi : lo) = x;
      if (hi - lo <= kCrossingTolerance * hi) break;
      const double newton = x - e / d;
      x = newton > lo && newton < hi ? newton : 0.5 * (lo + hi);
    }
    return d > 0.0 ? 1.0 / d : 0.0;
  }

 private:
  std::span<const fit::PerfModel> models_;
  std::array<double, kScan> xs_{};
  std::vector<double> peak_;  ///< per unit: running max of E on xs_
};

}  // namespace

EqualTimeResult solve_equal_time(std::span<const fit::PerfModel> models,
                                 double target) {
  EqualTimeResult result;
  const std::size_t n = models.size();
  PLBHEC_EXPECTS(target > 0.0 && target <= 1.0);
  if (n == 0) return result;
  for (const auto& m : models)
    if (!m.valid()) return result;
  result.ok = true;
  if (n == 1) {
    result.fractions = {target};
    result.common_time = models[0].total_time(target);
    return result;
  }
  PLBHEC_EXPECTS(kMinFraction * static_cast<double>(n) < target);

  // Below every curve's start each unit keeps kMinFraction (their sum is
  // below target); above every curve's peak each takes the whole window
  // (sum >= target).
  const Crossings curves(models, kMinFraction, target);
  double t_lo = curves.lowest();
  double t_hi = curves.highest();
  std::vector<double> x_lo(n, kMinFraction);
  std::vector<double> x_hi(n, target);
  std::vector<double> x(n, target / static_cast<double>(n));

  // First guess: the harmonic mean of the uniform split's finish times,
  // exact for curves proportional to x.
  double inv_sum = 0.0;
  for (std::size_t g = 0; g < n; ++g)
    inv_sum += 1.0 / models[g].total_time(x[g]);
  double t = static_cast<double>(n) / inv_sum;
  if (!(t > t_lo && t < t_hi)) t = 0.5 * (t_lo + t_hi);

  double last_miss = 0.0;
  for (std::size_t it = 0;
       it < kMaxIterations &&
       t_hi - t_lo > kBracketTol * std::max(std::fabs(t_lo), std::fabs(t_hi));
       ++it) {
    double sum = 0.0;
    double slope = 0.0;
    for (std::size_t g = 0; g < n; ++g) {
      slope += curves.cross(g, t, x[g]);
      sum += x[g];
    }
    if (sum < target) {
      t_lo = t;
      x_lo = x;
    } else {
      t_hi = t;
      x_hi = x;
    }
    // Newton, but bisect once a step overshoots the root without halving
    // the miss: a slope that misjudges a kinked sum can otherwise bounce
    // between the bracket ends.
    const double miss = sum - target;
    double next = slope > 0.0 ? t - miss / slope : t_lo;
    if (!(next > t_lo && next < t_hi) ||
        (miss * last_miss < 0.0 &&
         std::fabs(miss) > 0.5 * std::fabs(last_miss)))
      next = 0.5 * (t_lo + t_hi);
    last_miss = miss;
    // Step at least half the closing width, so Newton iterates converging
    // from one side still bracket the root from the other.
    const double min_step = 0.5 * kBracketTol * std::fabs(t);
    if (std::fabs(next - t) < min_step)
      next = sum < target ? t + min_step : t - min_step;
    t = next;
  }

  // sum x_lo < target <= sum x_hi, and the two levels are ~1e-10 apart:
  // a unit whose share is continuous in T moves by a rounding error, so
  // the leftover lands on the units whose share jumps at T.
  double leftover = target;
  for (const double v : x_lo) leftover -= v;
  for (std::size_t g = 0; g < n; ++g) {
    const double take = std::max(0.0, std::min(x_hi[g] - x_lo[g], leftover));
    x[g] = x_lo[g] + take;
    leftover -= take;
  }
  result.fractions = std::move(x);
  result.common_time = t_hi;
  return result;
}

}  // namespace plbhec::solver
