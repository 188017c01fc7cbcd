#pragma once
/// \file qr.hpp
/// Householder QR least squares. This is the numerical core of the
/// performance-curve fitting phase: design matrices built from the paper's
/// basis set {ln x, x, x^2, x^3, e^x, x e^x, x ln x} are ill-conditioned,
/// so we solve the LS problem with QR with column norm equilibration rather
/// than normal equations.
///
/// The factorization works on columns: each is a span of m entries, so a
/// caller that factors many column subsets sharing leading columns (the
/// curve fitter's term subsets) can keep a reflected column and reuse it.
/// least_squares() and that caller run the same steps below.

#include <optional>

#include "plbhec/linalg/matrix.hpp"

namespace plbhec::linalg {

/// Result of a least-squares solve.
struct LsSolution {
  Vector coefficients;   ///< minimizer of ||A c - b||_2
  double residual_norm;  ///< ||A c - b||_2
  std::size_t rank;      ///< numerical rank detected during factorization
};

/// Minimizes ||A x - b||_2 with column scaling for conditioning.
/// Rank-deficient columns (|R_kk| below 1e-10 * max |R_ii|) receive a zero
/// coefficient. Returns nullopt when A has no columns, fewer rows than
/// columns, or zero columns only.
[[nodiscard]] std::optional<LsSolution> least_squares(
    const Matrix& a, std::span<const double> b);

/// Scales `col` to unit 2-norm in place and returns the factor applied (1
/// for a zero norm); a solution of the scaled system maps back via
/// x *= factor.
double equilibrate_column(std::span<double> col);

/// Householder step k on column `col` (rows 0..k-1 already hold R
/// entries): leaves R_kk in row k and the reflector v (v_k = 1 implicit)
/// in rows k+1.., and returns its scalar beta. `reflects` is false when
/// the column below row k is zero; the factorization then leaves the
/// trailing columns as they are.
struct Reflector {
  double beta = 0.0;
  bool reflects = false;
};
[[nodiscard]] Reflector householder_reflector(std::span<double> col,
                                              std::size_t k);

/// The multiple s = beta (v^T target) of reflector k's vector (held in `v`
/// as householder_reflector() left it, with scalar `beta`) that reflecting
/// `target` subtracts: target[k] becomes target[k] - s.
[[nodiscard]] double householder_coefficient(std::span<const double> v,
                                             double beta, std::size_t k,
                                             std::span<const double> target);

/// Writes `src` reflected by reflector k to `dst` (which may be `src`):
/// a trailing column during the factorization, or the right-hand side.
void householder_apply(std::span<const double> v, double beta, std::size_t k,
                       std::span<const double> src, std::span<double> dst);

/// |R_kk| threshold below which a coordinate counts as rank-deficient:
/// `rank_tol` * max |R_kk|, or `rank_tol` itself when R is zero. Column j
/// of R is rows 0..j of `r_cols[j]`.
[[nodiscard]] double rank_threshold(
    std::span<const std::span<const double>> r_cols, double rank_tol = 1e-10);

/// Back substitution R x = y over the first r_cols.size() entries of `y`,
/// giving coordinates with |R_kk| <= `threshold` a zero coefficient.
/// Returns the rank.
std::size_t back_substitute(std::span<const std::span<const double>> r_cols,
                            std::span<const double> y, std::span<double> x,
                            double threshold);

}  // namespace plbhec::linalg
