#pragma once
/// \file moments.hpp
/// Incrementally maintained second moments of a profiling sample set over
/// the *full* basis-function set: the Gram matrix G = X^T X, the moment
/// vector X^T y and y^T y. One rank-1 update per recorded observation
/// makes any term-subset least-squares fit solvable in O(k^3) from the
/// cached moments — independent of the number of samples — which keeps the
/// modeling-phase overhead flat as probe counts grow (the cost the paper's
/// overhead table charges against PLB-HeC).
///
/// Moments are derived state: add() is the only way in (scale() aside, for
/// a drift window's forgetting), so a set's accumulators are always the
/// in-order replay of its observations and are never persisted.

#include <array>
#include <cstddef>

#include "plbhec/fit/basis.hpp"

namespace plbhec::fit {

class MomentSet {
 public:
  /// Rank-1 update with the observation (x, time). Mirrors the row the
  /// design-matrix path would append: phi_i = eval(term_i, x).
  void add(double x, double time);

  /// Exponential forgetting: multiplies every moment accumulator by
  /// `lambda` (0 < lambda <= 1). Applied before each add(), this turns the
  /// accumulators into a discounted twin of the rank-1 updates whose
  /// effective window is ~1/(1-lambda) samples. lambda == 1 is an exact
  /// no-op so the undiscounted path stays bit-identical. The integer
  /// sample count is *not* discounted; callers tracking an effective
  /// sample count keep it themselves (see adapt::WindowedSampleSet).
  void scale(double lambda);

  void clear();

  [[nodiscard]] std::size_t count() const { return n_; }

  /// (X^T X)[a][b].
  [[nodiscard]] double gram(BasisFn a, BasisFn b) const {
    const std::size_t i = static_cast<std::size_t>(a);
    const std::size_t j = static_cast<std::size_t>(b);
    return gram_[i * kBasisCount + j];
  }
  /// (X^T y)[a].
  [[nodiscard]] double xty(BasisFn a) const {
    return xty_[static_cast<std::size_t>(a)];
  }
  [[nodiscard]] double yty() const { return yty_; }
  /// Sum of observed times (the intercept row of X^T y).
  [[nodiscard]] double sum_y() const { return xty(BasisFn::kOne); }

  friend bool operator==(const MomentSet&, const MomentSet&) = default;

 private:
  std::size_t n_ = 0;
  std::array<double, kBasisCount * kBasisCount> gram_{};
  std::array<double, kBasisCount> xty_{};
  double yty_ = 0.0;
};

}  // namespace plbhec::fit
