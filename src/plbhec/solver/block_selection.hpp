#pragma once
/// \file block_selection.hpp
/// The block-size selection phase of PLB-HeC (§III-C): the equal-time
/// system of Eq. (5), subject to the simplex restriction Eq. (3) and the
/// equal-time restriction Eq. (4), solved by the exact root find of
/// equal_time.hpp. The selection checks its own result on every call (see
/// select_block_sizes).

#include <span>
#include <vector>

#include "plbhec/fit/model.hpp"

namespace plbhec::solver {

struct BlockSelection {
  bool ok = false;
  std::vector<double> fractions;  ///< x_g, sums to the window
  double predicted_time = 0.0;    ///< max_g E_g(x_g) under the models
  double solve_seconds = 0.0;     ///< wall-clock time of the selection
};

/// Computes the fraction of the remaining input assigned to each processing
/// unit; the fractions sum to `window`, the input share being solved (1 =
/// the whole input). PLB-HeC solves per execution window: equal E_g(x_g)
/// at window-level shares is what actually equalizes the issued blocks
/// when the curves are nonlinear, and it keeps x_g within the block sizes
/// the modeling phase actually probed. `models` must all be valid
/// (fitted). Postconditions, checked in every build: the fractions sum to
/// `window` within 1e-12 relative, each lies in [kMinFraction, window]
/// (equal_time.hpp), and every solved unit strictly inside those bounds
/// finishes at the common time within 1e-9 relative (plus the slack of
/// evaluating its curve), except at most one that ends inside a dip of
/// its curve.
[[nodiscard]] BlockSelection select_block_sizes(
    std::span<const fit::PerfModel> models, double window = 1.0);

}  // namespace plbhec::solver
