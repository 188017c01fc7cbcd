#pragma once
/// \file interior_point.hpp
/// Primal-dual interior-point method with a line-search filter, in the
/// style of IPOPT (Waechter & Biegler) / the adaptive barrier methods of
/// Nocedal, Waechter & Waltz cited by the paper. Replaces the IPOPT
/// dependency of the original implementation.
///
/// Method outline:
///  - log-barrier on the bound constraints, primal-dual multipliers z_L/z_U;
///  - Newton steps on the perturbed KKT system; the (symmetric) KKT matrix
///    is regularized by delta_w * I on the Hessian block until it is
///    non-singular and yields a descent direction (inertia correction);
///  - fraction-to-boundary rule keeps iterates strictly interior;
///  - a Waechter-Biegler filter accepts steps that improve either the
///    constraint violation theta = ||c(x)||_1 or the barrier objective;
///  - monotone Fiacco-McCormick barrier reduction.

#include <string>
#include <vector>

#include "plbhec/solver/nlp.hpp"

namespace plbhec::solver {

enum class IpStatus {
  kSolved,             ///< KKT error below tolerance
  kMaxIterations,      ///< iteration budget exhausted (best iterate kept)
  kLineSearchFailure,  ///< no acceptable step found (restoration failed)
  kSingularSystem,     ///< KKT system unsolvable even with max regularization
  kInvalidProblem,     ///< inconsistent dimensions or empty problem
};

[[nodiscard]] std::string to_string(IpStatus s);

struct IpResult {
  IpStatus status = IpStatus::kInvalidProblem;
  std::vector<double> x;        ///< primal solution
  std::vector<double> lambda;   ///< equality multipliers
  double objective = 0.0;
  double kkt_error = 0.0;       ///< final scaled KKT error
  double constraint_violation = 0.0;  ///< ||c(x)||_inf at the solution
  std::size_t iterations = 0;
  std::size_t kkt_solves = 0;   ///< linear systems factored (incl. retries)

  [[nodiscard]] bool ok() const { return status == IpStatus::kSolved; }
};

/// Solves the NLP from the given starting point (projected into the strict
/// interior of the bounds automatically), with IPOPT's default settings
/// (KKT tolerance 1e-8, at most 300 iterations; see interior_point.cpp).
[[nodiscard]] IpResult solve_interior_point(const NlpProblem& problem,
                                            std::span<const double> x0);

}  // namespace plbhec::solver
