#include "plbhec/baselines/hdss.hpp"

#include <algorithm>
#include <cmath>

#include "plbhec/common/contracts.hpp"
#include "plbhec/fit/least_squares.hpp"
#include "plbhec/obs/sink.hpp"

namespace plbhec::baselines {
namespace {

// HDSS as its authors run it; the first probe block is the engine's hint.
constexpr double kGrowth = 2.0;            // adaptive-phase block growth
constexpr double kConvergence = 0.05;      // relative weight change to settle
constexpr std::size_t kMinSamples = 3;     // samples before testing it
constexpr double kAdaptiveCap = 0.15;      // max input fraction for phase 1
constexpr double kCompletionFactor = 0.5;  // share of the quota per task

}  // namespace

void HdssScheduler::start(const std::vector<rt::UnitInfo>& units,
                          const rt::WorkInfo& work) {
  PLBHEC_EXPECTS(!units.empty());
  work_ = work;
  units_n_ = units.size();
  initial_ = std::max<std::size_t>(1, work.initial_block);
  speed_samples_.assign(units_n_, {});
  weight_.assign(units_n_, 0.0);
  prev_weight_.assign(units_n_, 0.0);
  phase_index_.assign(units_n_, 0);
  converged_.assign(units_n_, false);
  failed_.assign(units_n_, false);
  adaptive_grains_.assign(units_n_, 0);
  allocation_.assign(units_n_, 0.0);
  completion_ = units_n_ == 1;  // nothing to weigh with one unit
  if (completion_) allocation_[0] = static_cast<double>(work.total_grains);
  issued_ = 0;
}

std::vector<double> HdssScheduler::weight_fractions() const {
  std::vector<double> f(weight_);
  double sum = 0.0;
  for (std::size_t u = 0; u < f.size(); ++u) {
    if (failed_[u]) f[u] = 0.0;
    sum += f[u];
  }
  if (sum <= 0.0) {
    const double uniform = 1.0 / static_cast<double>(f.size());
    for (double& v : f) v = uniform;
    return f;
  }
  for (double& v : f) v /= sum;
  return f;
}

bool HdssScheduler::all_converged() const {
  for (std::size_t u = 0; u < units_n_; ++u)
    if (!failed_[u] && !converged_[u]) return false;
  return true;
}

void HdssScheduler::update_weight(rt::UnitId u) {
  // Logarithmic fit speed(x) = a + b ln(x); weight = predicted speed at a
  // large reference block (10% of the input), which captures the
  // saturated throughput HDSS uses as the unit's scalar weight.
  const auto& samples = speed_samples_[u];
  if (samples.empty()) return;

  double x_lo = samples.items()[0].x;
  double x_hi = x_lo;
  double speed_mean = 0.0;
  double speed_max = 0.0;
  for (const auto& s : samples.items()) {
    x_lo = std::min(x_lo, s.x);
    x_hi = std::max(x_hi, s.x);
    speed_mean += s.time;
    speed_max = std::max(speed_max, s.time);
  }
  speed_mean /= static_cast<double>(samples.size());

  double w = speed_mean;
  // The log fit only carries information when the sampled block sizes span
  // a real range; an (near-)exact fit through clustered x values has an
  // arbitrary slope and extrapolates garbage.
  if (samples.size() >= 3 && x_hi > 1.5 * x_lo) {
    std::vector<fit::BasisFn> log_terms{fit::BasisFn::kOne,
                                        fit::BasisFn::kLnX};
    if (const auto fitted = fit::fit_terms(samples, log_terms)) {
      const double x_ref = 0.10;
      const double predicted = fitted->model(x_ref);
      // Saturating-throughput prior: the asymptotic speed cannot be far
      // above (or below) what has actually been observed.
      if (predicted > 0.0)
        w = std::clamp(predicted, 0.5 * speed_mean, 3.0 * speed_max);
    }
  }
  prev_weight_[u] = weight_[u];
  weight_[u] = w;

  if (samples.size() >= kMinSamples && prev_weight_[u] > 0.0) {
    const double change =
        std::fabs(weight_[u] - prev_weight_[u]) / prev_weight_[u];
    if (change < kConvergence) converged_[u] = true;
  }
  // Cluster-wide adaptive-phase data cap: force the completion phase when
  // probing has consumed its budget even if some weight is still drifting.
  std::size_t adaptive_total = 0;
  for (std::size_t i = 0; i < units_n_; ++i)
    adaptive_total += adaptive_grains_[i];
  if (static_cast<double>(adaptive_total) >=
      kAdaptiveCap * static_cast<double>(work_.total_grains))
    for (std::size_t i = 0; i < units_n_; ++i) converged_[i] = true;
}

std::size_t HdssScheduler::next_block(rt::UnitId unit, double /*now*/) {
  PLBHEC_EXPECTS(unit < units_n_);
  if (failed_[unit]) return 0;

  std::size_t block = 0;
  if (!completion_) {
    // Adaptive phase: geometrically growing probe blocks, the same size
    // schedule for every unit. This is the "non-optimal block sizes ...
    // used to estimate the computational capabilities" the PLB-HeC paper
    // identifies as HDSS's main source of idleness (Fig. 7): slow units
    // grind through the same probe sizes as fast ones.
    const double size =
        static_cast<double>(initial_) *
        std::pow(kGrowth, static_cast<double>(phase_index_[unit]));
    block = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(size)));
  } else {
    // Fixed allocation, decreasing blocks within it. Once the unit's own
    // quota is exhausted it only nibbles at leftover pool grains.
    const double size = allocation_[unit] > 1.0
                            ? kCompletionFactor * allocation_[unit]
                            : 1.0;
    block = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(size)));
    allocation_[unit] -= static_cast<double>(block);
  }
  issued_ += block;
  return block;
}

void HdssScheduler::on_complete(const rt::TaskObservation& obs) {
  PLBHEC_EXPECTS(obs.unit < units_n_);
  if (completion_) return;

  // Adaptive phase bookkeeping: record the observed processing speed.
  adaptive_grains_[obs.unit] += obs.grains;
  const double x = static_cast<double>(obs.grains) /
                   static_cast<double>(work_.total_grains);
  const double duration = obs.transfer_seconds + obs.exec_seconds;
  const double speed = static_cast<double>(obs.grains) /
                       std::max(duration, 1e-12);
  speed_samples_[obs.unit].add(x, speed);
  update_weight(obs.unit);
  const double rel_change =
      prev_weight_[obs.unit] > 0.0
          ? std::fabs(weight_[obs.unit] - prev_weight_[obs.unit]) /
                prev_weight_[obs.unit]
          : 0.0;
  PLBHEC_OBS_RECORD(
      sink_, {obs.finish_time, obs::EventKind::kWeightUpdate,
              static_cast<std::uint32_t>(obs.unit), weight_[obs.unit],
              rel_change, speed_samples_[obs.unit].size(), 0});

  if (!converged_[obs.unit]) ++phase_index_[obs.unit];
  if (all_converged() && !completion_) {
    completion_ = true;
    PLBHEC_OBS_RECORD(sink_,
                      {obs.finish_time, obs::EventKind::kPhaseChange,
                       obs::kNoUnit, static_cast<double>(issued_), 0.0,
                       /*phase=*/1, 0});
    // Divide the remaining input once, by the final weights.
    const std::size_t remaining =
        work_.total_grains > issued_ ? work_.total_grains - issued_ : 0;
    const std::vector<double> shares = weight_fractions();
    allocation_.assign(units_n_, 0.0);
    for (std::size_t u = 0; u < units_n_; ++u)
      allocation_[u] = shares[u] * static_cast<double>(remaining);
  }
}

void HdssScheduler::on_unit_failed(rt::UnitId unit, std::size_t lost_grains,
                                   double /*now*/) {
  PLBHEC_EXPECTS(unit < units_n_);
  failed_[unit] = true;
  issued_ -= std::min<std::size_t>(lost_grains, issued_);
  if (completion_) {
    // Spread the dead unit's outstanding quota over the survivors
    // proportionally to their weights.
    const double orphaned =
        allocation_[unit] + static_cast<double>(lost_grains);
    allocation_[unit] = 0.0;
    const std::vector<double> shares = weight_fractions();
    for (std::size_t u = 0; u < units_n_; ++u)
      if (!failed_[u]) allocation_[u] += shares[u] * orphaned;
  }
}

}  // namespace plbhec::baselines
