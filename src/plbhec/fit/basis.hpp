#pragma once
/// \file basis.hpp
/// The paper's basis-function set for performance-curve fitting (§III-B):
/// F_p[x] = a_1 f_1(x) + ... + a_n f_n(x), with f_i drawn from
/// { ln x, x, x^2, x^3, e^x, x·e^x, x·ln x }. We add a constant term to the
/// set because real device curves have a launch-overhead intercept.
///
/// Block sizes are normalized fractions of the total input (x in (0, 1]),
/// so all basis functions are well-behaved; ln-terms clamp x away from 0.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace plbhec::fit {

enum class BasisFn {
  kOne,    ///< 1 (intercept / launch overhead)
  kLnX,    ///< ln x
  kX,      ///< x
  kX2,     ///< x^2
  kX3,     ///< x^3
  kExpX,   ///< e^x
  kXExpX,  ///< x e^x
  kXLnX,   ///< x ln x
};

/// Smallest block fraction considered; ln-terms clamp to this.
inline constexpr double kMinX = 1e-9;

/// Number of distinct basis functions; BasisFn enumerators index 0..7.
inline constexpr std::size_t kBasisCount = 8;

[[nodiscard]] double eval(BasisFn f, double x);
/// Every basis function at `x`, indexed by BasisFn: out[f] is bitwise
/// eval(f, x), with one log and one exp shared across the terms.
void eval_all(double x, std::span<double, kBasisCount> out);
[[nodiscard]] double derivative(BasisFn f, double x);
[[nodiscard]] double second_derivative(BasisFn f, double x);
[[nodiscard]] std::string name(BasisFn f);

/// The full paper set (without the intercept, which callers add separately).
[[nodiscard]] std::span<const BasisFn> paper_terms();

/// All basis functions including the intercept.
[[nodiscard]] std::span<const BasisFn> all_terms();

}  // namespace plbhec::fit
