#pragma once
/// \file window.hpp
/// Recent-behavior sample windows for the drift-adaptation subsystem: a
/// WindowedSampleSet maintains the same full-basis Gram moments as
/// fit::SampleSet but over *recent* observations only, by exponential
/// forgetting (scale every accumulator by lambda before each rank-1 add —
/// effective window ~1/(1-lambda) samples, O(1) memory). FitEngine-style
/// subset fits solve directly from the moments, so "fit what this unit has
/// done lately" costs O(k^3) — no raw-sample refit, which is what makes
/// continuous re-fitting affordable online.

#include <cstddef>

#include "plbhec/common/contracts.hpp"
#include "plbhec/fit/moments.hpp"

namespace plbhec::adapt {

/// How a WindowedSampleSet forgets.
struct WindowConfig {
  /// Forgetting factor in (0, 1]; 1 disables discounting (and is then
  /// bit-identical to a plain MomentSet fed the same stream).
  double lambda = 1.0;

  friend bool operator==(const WindowConfig&, const WindowConfig&) = default;
};

class WindowedSampleSet {
 public:
  WindowedSampleSet() = default;
  explicit WindowedSampleSet(WindowConfig config) : config_(config) {
    PLBHEC_EXPECTS(config.lambda > 0.0 && config.lambda <= 1.0);
  }

  void add(double x, double time);
  void reset();

  /// Raw observations added since reset().
  [[nodiscard]] std::size_t count() const { return raw_count_; }
  /// Sample mass behind the moments: the discounted sum lambda^0 +
  /// lambda^1 + ... (-> 1/(1-lambda)). This is the `effective_n` the
  /// moments-only fit_terms expects.
  [[nodiscard]] double effective_count() const { return effective_n_; }

  [[nodiscard]] const fit::MomentSet& moments() const { return moments_; }
  /// Smallest block fraction added since reset() (plausibility-grid lower
  /// edge).
  [[nodiscard]] double x_lo() const { return x_lo_; }
  [[nodiscard]] const WindowConfig& config() const { return config_; }

 private:
  WindowConfig config_;
  fit::MomentSet moments_;
  std::size_t raw_count_ = 0;
  double effective_n_ = 0.0;
  double x_lo_ = 1.0;
};

}  // namespace plbhec::adapt
