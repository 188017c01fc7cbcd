#pragma once
/// \file cholesky.hpp
/// Cholesky (LL^T) factorization for symmetric positive-definite systems.
/// Used for the normal-equation fallback in curve fitting and as a cheap
/// positive-definiteness probe in the interior-point Hessian regularization.

#include <optional>

#include "plbhec/linalg/matrix.hpp"

namespace plbhec::linalg {

class Cholesky {
 public:
  /// Factorizes a symmetric positive-definite matrix. Returns nullopt when
  /// a non-positive pivot is met (matrix not PD within tolerance).
  [[nodiscard]] static std::optional<Cholesky> factor(const Matrix& a,
                                                      double tol = 0.0);

  [[nodiscard]] Vector solve(std::span<const double> b) const;

  [[nodiscard]] std::size_t size() const { return l_.rows(); }
  [[nodiscard]] const Matrix& l() const { return l_; }

 private:
  explicit Cholesky(Matrix l) : l_(std::move(l)) {}
  Matrix l_;  // lower-triangular factor
};

/// Result of an equilibrated SPD solve.
struct SpdSolve {
  Vector x;                     ///< solution of G x = b
  double rcond_estimate = 0.0;  ///< pivot-based estimate of 1/cond of the
                                ///< unit-diagonal scaled system
};

/// Solves the SPD system G x = b after symmetric diagonal equilibration
/// (scaling G to unit diagonal, which undoes the magnitude disparities of
/// Gram matrices built from mixed basis functions), with one step of
/// iterative refinement. Returns nullopt when G is not positive definite,
/// when the Cholesky pivots of the scaled system signal conditioning worse
/// than `rcond_floor`, or when the refinement correction shows the solution
/// is not trustworthy to ~`refine_tol` relative — callers should then fall
/// back to an orthogonal factorization of the original least-squares
/// problem instead of trusting squared-condition normal equations. The
/// default floor of 1e-7 caps the solve's forward error near
/// cond(G) * eps ~ 1e-9, keeping Gram-path coefficients within 1e-8 of a
/// QR solve of the unsquared system.
[[nodiscard]] std::optional<SpdSolve> solve_equilibrated_spd(
    const Matrix& g, std::span<const double> b, double rcond_floor = 1e-7,
    double refine_tol = 1e-9);

/// Row `i` of an in-place Cholesky factorization L L^T = A, with L row-major
/// at leading dimension `ld`: computes L[i][0..i] from `a_row` (A[i][0..i])
/// and the final rows 0..i-1, in the order the column-wise factorization
/// uses. Returns false when the pivot A[i][i] - sum_k L[i][k]^2 is <= `tol`.
/// Row i depends on A's leading (i+1) x (i+1) block alone, so a caller
/// factoring many matrices that share a leading block (the curve fitter's
/// term subsets) computes each shared row once; Cholesky::factor and
/// solve_equilibrated_spd() factor through it too.
[[nodiscard]] bool cholesky_row(std::span<const double> a_row,
                                std::span<double> l, std::size_t ld,
                                std::size_t i, double tol = 0.0);

/// Entry i of the forward substitution L y = b, from b[i] (`b_i`) and the
/// entries y[0..i-1]; like a factor row it depends on the leading block
/// alone.
[[nodiscard]] double forward_entry(std::span<const double> l, std::size_t ld,
                                   std::size_t i, double b_i,
                                   std::span<const double> y);

/// Finishes an equilibrated SPD solve whose n factor rows and forward
/// substitution are done: `gs` is the unit-diagonal scaled matrix and `l`
/// its factor (both row-major at leading dimension `ld`), `d` the diagonal
/// scaling, `bs` the scaled right-hand side, and `x` holds the forward
/// solution on entry. Applies the rcond gate, back substitution, one
/// refinement step (`r`: n doubles of scratch) and the unscaling, leaving
/// the solution in `x`. Returns the rcond estimate, or nullopt in the cases
/// solve_equilibrated_spd() does.
[[nodiscard]] std::optional<double> finish_equilibrated_spd(
    std::span<const double> gs, std::span<const double> l, std::size_t ld,
    std::size_t n, std::span<const double> d, std::span<const double> bs,
    std::span<double> x, std::span<double> r, double rcond_floor = 1e-7,
    double refine_tol = 1e-9);

}  // namespace plbhec::linalg
