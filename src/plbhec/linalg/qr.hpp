#pragma once
/// \file qr.hpp
/// Householder QR factorization and least-squares solve. This is the
/// numerical core of the performance-curve fitting phase: design matrices
/// built from the paper's basis set {ln x, x, x^2, x^3, e^x, x e^x, x ln x}
/// are ill-conditioned, so we solve the LS problem with QR with column
/// norm equilibration rather than normal equations.

#include <optional>

#include "plbhec/linalg/matrix.hpp"

namespace plbhec::linalg {

/// Result of a least-squares solve.
struct LsSolution {
  Vector coefficients;   ///< minimizer of ||A c - b||_2
  double residual_norm;  ///< ||A c - b||_2
  std::size_t rank;      ///< numerical rank detected during factorization
};

/// Householder QR of an m x n matrix (m >= n stored compactly).
class Qr {
 public:
  /// Factorizes `a` (m >= n required).
  [[nodiscard]] static Qr factor(Matrix a);

  /// Minimizes ||A x - b||_2. Rank-deficient columns (|R_kk| below
  /// `rank_tol` * max |R_ii|) receive a zero coefficient, mimicking a
  /// truncated / pivot-free rank-revealing behaviour good enough for basis
  /// subsets of <= 8 columns.
  [[nodiscard]] LsSolution solve(std::span<const double> b,
                                 double rank_tol = 1e-10) const;

  [[nodiscard]] std::size_t rows() const { return qr_.rows(); }
  [[nodiscard]] std::size_t cols() const { return qr_.cols(); }

  /// |R_00 / R_{n-1,n-1}|-style conditioning diagnostic.
  [[nodiscard]] double r_diag_ratio() const;

 private:
  explicit Qr(Matrix qr, Vector beta) : qr_(std::move(qr)), beta_(std::move(beta)) {}

  Matrix qr_;    // R in the upper triangle, Householder vectors below
  Vector beta_;  // Householder scalars
};

/// One-shot least squares: minimizes ||A x - b||_2 with column scaling for
/// conditioning. Returns nullopt when A has zero columns only.
[[nodiscard]] std::optional<LsSolution> least_squares(const Matrix& a,
                                                      std::span<const double> b);

/// Residual and rank of a least-squares solve whose coefficients were
/// written to caller storage.
struct LsResidual {
  double residual_norm = 0.0;
  std::size_t rank = 0;
};

/// Scratch doubles least_squares_in_place() needs for an m x n system.
[[nodiscard]] constexpr std::size_t least_squares_scratch(std::size_t m,
                                                          std::size_t n) {
  return m + 2 * n;
}

/// least_squares() on caller storage, for callers that solve many small
/// systems (the curve fitter's subset search) in buffers sized once:
/// equilibrates and factors the m x n row-major `a` in place and writes the
/// n coefficients to `x`. `scratch` holds at least least_squares_scratch(m,
/// n) doubles. Returns nullopt in the cases least_squares() does. Qr and
/// least_squares() run on the same in-place factorization.
[[nodiscard]] std::optional<LsResidual> least_squares_in_place(
    std::span<double> a, std::size_t m, std::size_t n,
    std::span<const double> b, std::span<double> x,
    std::span<double> scratch);

}  // namespace plbhec::linalg
