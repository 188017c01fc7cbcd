#pragma once
/// \file cusum.hpp
/// Two-sided CUSUM change-point detector over standardized prediction
/// residuals. Each execution observation yields the relative residual
/// r = (observed - predicted) / predicted; a warmup phase estimates the
/// residual baseline (mean and spread via Welford), then freezes it and
/// accumulates the classic Page statistics
///   S+ <- max(0, S+ + z - k)      S- <- max(0, S- - z - k)
/// with z = (r - mu) / sigma_eff. A trip (either side exceeding h) means
/// the unit's behavior has shifted persistently relative to its fitted
/// model — slow throttle ramps accumulate, one-off spikes do not. The
/// spread is floored (kCusumSigmaFloor, in relative-residual units) because
/// a deterministic simulation can produce a near-zero warmup spread that
/// would otherwise make the detector hair-triggered.

#include <cstddef>

#include "plbhec/common/stats.hpp"

namespace plbhec::adapt {

/// Per-step slack k, in sigma units.
inline constexpr double kCusumSlack = 0.5;
/// Lower bound on the residual spread, in relative-residual units.
inline constexpr double kCusumSigmaFloor = 0.05;

struct CusumOptions {
  double h = 6.0;               ///< trip threshold, in sigma units
  std::size_t min_stable = 8;   ///< warmup observations before arming
};

class ResidualCusum {
 public:
  ResidualCusum() = default;
  explicit ResidualCusum(CusumOptions options) : options_(options) {}

  /// Feeds one relative residual; returns true when the detector trips.
  /// After a trip the caller is expected to reset() (re-probe + refit); the
  /// statistics keep growing until it does.
  [[nodiscard]] bool observe(double residual_ratio);

  /// Restarts warmup (after the refreshed fit is swapped in — the old
  /// baseline described the old model's residuals).
  void reset();

  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] double positive() const { return s_pos_; }
  [[nodiscard]] double negative() const { return s_neg_; }
  [[nodiscard]] std::size_t observed() const { return n_; }
  [[nodiscard]] const CusumOptions& options() const { return options_; }

 private:
  CusumOptions options_;
  RunningStats warmup_;
  double mu_ = 0.0;
  double sigma_ = 0.0;
  double s_pos_ = 0.0;
  double s_neg_ = 0.0;
  std::size_t n_ = 0;
  bool armed_ = false;
};

}  // namespace plbhec::adapt
