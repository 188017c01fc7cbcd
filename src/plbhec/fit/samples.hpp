#pragma once
/// \file samples.hpp
/// Measurement samples collected during the performance-modeling phase:
/// (block-size fraction, observed time) pairs for execution and transfer.
/// A set's samples are its whole state: the moments beside them are the
/// in-order add() replay of the samples, so copying a set equals replaying
/// it, and a persisted profile stores only the samples.

#include <cstddef>
#include <vector>

#include "plbhec/common/contracts.hpp"
#include "plbhec/fit/moments.hpp"

namespace plbhec::fit {

/// One profiling observation for a processing unit.
struct Sample {
  double x = 0.0;     ///< block size as a fraction of the total input, (0, 1]
  double time = 0.0;  ///< observed seconds

  friend bool operator==(const Sample&, const Sample&) = default;
};

/// Growable set of samples with cheap column views for the fitters, plus
/// incrementally maintained full-basis moments (Gram matrix, X^T y, y^T y)
/// so subset fits can be solved in O(k^3) without revisiting the samples.
class SampleSet {
 public:
  void add(double x, double time) {
    PLBHEC_EXPECTS(x > 0.0);
    PLBHEC_EXPECTS(x <= 1.0);
    PLBHEC_EXPECTS(time >= 0.0);
    samples_.push_back({x, time});
    moments_.add(x, time);
  }

  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] const std::vector<Sample>& items() const { return samples_; }

  [[nodiscard]] std::vector<double> times() const {
    std::vector<double> v;
    v.reserve(samples_.size());
    for (const auto& s : samples_) v.push_back(s.time);
    return v;
  }

  [[nodiscard]] const MomentSet& moments() const { return moments_; }

  void clear() {
    samples_.clear();
    moments_.clear();
  }

  friend bool operator==(const SampleSet&, const SampleSet&) = default;

 private:
  std::vector<Sample> samples_;
  MomentSet moments_;
};

}  // namespace plbhec::fit
