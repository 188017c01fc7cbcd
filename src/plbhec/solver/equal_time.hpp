#pragma once
/// \file equal_time.hpp
/// The block-size selector of PLB-HeC's hot path: the equal-time system of
/// Eq. (3)-(5) — common finish time T, fractions x_g with E_g(x_g) = T and
/// sum x_g = target — solved as a 1-D root find on T, as in the
/// functional-performance-model partitioning of Lastovetsky et al.
///
/// A unit's share at finish time T is the *first crossing* of its curve
/// above T, x_g(T) = the smallest x with E_g(x) > T on [kMinFraction,
/// target]: the inverse of the curve's running maximum, so the small dips
/// the physical filter tolerates never move a unit onto a later branch of
/// its curve. A
/// per-solve scan of each curve brackets the crossing and a safeguarded
/// Newton iteration on the real curve finishes it. sum_g x_g(T) is
/// non-decreasing in T, and a safeguarded Newton/bisection on T brackets
/// the root to 1e-10 relative.
///
/// Where the sum jumps over the target (T sits at the top of a dip or a
/// flat stretch), the jumping units take the leftover in index order, so
/// every unit strictly inside the bounds finishes at T except at most one,
/// which ends inside its dip.
///
/// The interior-point NLP the paper solves (IPOPT there) is kept as a
/// fidelity oracle in ip_oracle.hpp; the scheduler never runs it.

#include <span>
#include <vector>

#include "plbhec/fit/model.hpp"

namespace plbhec::solver {

/// Relative tolerance of a crossing: |E(x) - T| <= tol |T|, or, on a curve
/// too steep or too cancelling to get there, x pinned to within tol x.
inline constexpr double kCrossingTolerance = 1e-11;

/// Smallest admissible fraction per unit: keeps the ln-terms of the
/// fitted curves finite.
inline constexpr double kMinFraction = 1e-6;

struct EqualTimeResult {
  bool ok = false;
  std::vector<double> fractions;  ///< sums to target when ok
  double common_time = 0.0;       ///< the equalized finish time T
};

/// Fractions in [kMinFraction, target] summing to `target` (1 = the whole
/// input; PLB-HeC solves per execution window, e.g. 0.25, which keeps the
/// crossings inside the probed range).
[[nodiscard]] EqualTimeResult solve_equal_time(
    std::span<const fit::PerfModel> models, double target = 1.0);

}  // namespace plbhec::solver
