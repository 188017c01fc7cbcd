#include "plbhec/baselines/acosta.hpp"

#include <algorithm>
#include <cmath>

#include "plbhec/common/contracts.hpp"
#include "plbhec/obs/sink.hpp"

namespace plbhec::baselines {
namespace {

/// Time-spread ratio below which the shares freeze (the user threshold).
constexpr double kThreshold = 0.10;
/// Weight on the new RP-based share.
constexpr double kDamping = 0.5;
/// Input fraction distributed per iteration: the original algorithm
/// piggybacks on the application's own iterations, which are much smaller
/// than the whole input.
constexpr double kStepFraction = 0.02;

}  // namespace

void AcostaScheduler::start(const std::vector<rt::UnitInfo>& units,
                            const rt::WorkInfo& work) {
  PLBHEC_EXPECTS(!units.empty());
  work_ = work;
  units_n_ = units.size();
  share_.assign(units_n_, 1.0 / static_cast<double>(units_n_));
  pending_.assign(units_n_, 0);
  iter_time_.assign(units_n_, 0.0);
  iter_grains_.assign(units_n_, 0);
  failed_.assign(units_n_, false);
  equilibrium_ = units_n_ == 1;
  iterations_ = 0;
  plan_iteration();
}

void AcostaScheduler::plan_iteration() {
  const double window =
      kStepFraction * static_cast<double>(work_.total_grains);
  for (std::size_t u = 0; u < units_n_; ++u) {
    if (failed_[u]) {
      pending_[u] = 0;
      continue;
    }
    pending_[u] = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(share_[u] * window)));
    iter_time_[u] = 0.0;
    iter_grains_[u] = 0;
  }
  ++iterations_;
}

std::size_t AcostaScheduler::next_block(rt::UnitId unit, double /*now*/) {
  PLBHEC_EXPECTS(unit < units_n_);
  if (failed_[unit]) return 0;
  if (equilibrium_) {
    // Post-convergence: keep handing each unit its share of an iteration
    // window without synchronizing.
    const double window =
        kStepFraction * static_cast<double>(work_.total_grains);
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(share_[unit] * window)));
  }
  const std::size_t block = pending_[unit];
  pending_[unit] = 0;  // one chunk per iteration, then wait for the barrier
  return block;
}

void AcostaScheduler::on_complete(const rt::TaskObservation& obs) {
  PLBHEC_EXPECTS(obs.unit < units_n_);
  iter_time_[obs.unit] += obs.transfer_seconds + obs.exec_seconds;
  iter_grains_[obs.unit] += obs.grains;
}

void AcostaScheduler::on_barrier(double now) {
  if (equilibrium_) return;

  // Compute the Relative Power vector from this iteration's measurements.
  double srp = 0.0;
  std::vector<double> rp(units_n_, 0.0);
  double min_t = 0.0;
  double max_t = 0.0;
  bool first = true;
  for (std::size_t u = 0; u < units_n_; ++u) {
    if (failed_[u] || iter_grains_[u] == 0) continue;
    rp[u] = static_cast<double>(iter_grains_[u]) /
            std::max(iter_time_[u], 1e-12);
    srp += rp[u];
    if (first || iter_time_[u] < min_t) min_t = iter_time_[u];
    if (first || iter_time_[u] > max_t) max_t = iter_time_[u];
    first = false;
  }
  if (srp <= 0.0) {
    plan_iteration();
    return;
  }

  // Convergence test on the time spread (the user threshold of the paper).
  const double mean_t = 0.5 * (min_t + max_t);
  const double spread = mean_t > 0.0 ? (max_t - min_t) / mean_t : 0.0;
  if (mean_t > 0.0 && (max_t - min_t) <= kThreshold * mean_t) {
    equilibrium_ = true;
    PLBHEC_OBS_RECORD(sink_,
                      {now, obs::EventKind::kIterationSync, obs::kNoUnit,
                       spread, 0.0, iterations_, /*equilibrium=*/1});
    return;
  }
  PLBHEC_OBS_RECORD(sink_, {now, obs::EventKind::kIterationSync, obs::kNoUnit,
                            spread, 0.0, iterations_, /*equilibrium=*/0});

  // Damped update toward the measured relative powers (asymptotic).
  double sum = 0.0;
  for (std::size_t u = 0; u < units_n_; ++u) {
    if (failed_[u]) {
      share_[u] = 0.0;
      continue;
    }
    const double target = rp[u] / srp;
    share_[u] = (1.0 - kDamping) * share_[u] + kDamping * target;
    sum += share_[u];
  }
  PLBHEC_ASSERT(sum > 0.0);
  for (double& s : share_) s /= sum;

  plan_iteration();
}

void AcostaScheduler::on_unit_failed(rt::UnitId unit, std::size_t,
                                     double /*now*/) {
  PLBHEC_EXPECTS(unit < units_n_);
  if (failed_[unit]) return;
  failed_[unit] = true;
  double sum = 0.0;
  share_[unit] = 0.0;
  for (std::size_t u = 0; u < units_n_; ++u) sum += share_[u];
  if (sum > 0.0)
    for (double& s : share_) s /= sum;
  // Force re-iteration so survivors pick up the slack.
  equilibrium_ = false;
}

}  // namespace plbhec::baselines
