#include "plbhec/solver/interior_point.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "plbhec/common/contracts.hpp"
#include "plbhec/linalg/lu.hpp"

namespace plbhec::solver {
namespace {

// The solver runs at IPOPT's defaults; nothing varies them.
constexpr double kTolerance = 1e-8;     // KKT error for successful exit
constexpr double kMuInitial = 1e-1;     // initial barrier parameter
constexpr double kMuMin = 1e-12;        // barrier floor
constexpr double kKappaMu = 0.2;        // linear mu-reduction factor
constexpr double kThetaMu = 1.5;        // superlinear mu-reduction exponent
constexpr double kKappaEpsilon = 10.0;  // inner-loop KKT tolerance = k_eps * mu
constexpr std::size_t kMaxIterations = 300;
constexpr double kTauMin = 0.99;        // fraction-to-boundary minimum
constexpr double kBoundPush = 1e-2;     // initial point push-in (kappa_1)
constexpr double kGammaTheta = 1e-5;    // filter margins
constexpr double kGammaPhi = 1e-5;
constexpr double kMinStep = 1e-12;      // alpha below which line search fails
constexpr double kDeltaWInit = 1e-8;    // first inertia-correction weight
constexpr double kDeltaWMax = 1e10;     // give up past this regularization

constexpr double kSPhi = 2.3;    // switching-condition exponents (IPOPT)
constexpr double kSTheta = 1.1;
constexpr double kDelta = 1.0;
constexpr double kEta = 1e-4;    // Armijo constant
constexpr double kKappaSigma = 1e10;  // multiplier safeguard corridor

bool is_finite(double v) { return std::isfinite(v); }

struct Bounds {
  std::vector<double> lower;
  std::vector<double> upper;
  [[nodiscard]] bool has_lower(std::size_t i) const {
    return lower[i] > -kInfinity;
  }
  [[nodiscard]] bool has_upper(std::size_t i) const {
    return upper[i] < kInfinity;
  }
};

/// Pushes a point strictly inside the bounds (IPOPT's kappa_1 rule).
void project_interior(std::vector<double>& x, const Bounds& b, double push) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    const bool hl = b.has_lower(i);
    const bool hu = b.has_upper(i);
    if (hl && hu) {
      const double width = b.upper[i] - b.lower[i];
      const double pad = std::min(push * std::max(1.0, std::fabs(width)),
                                  0.25 * width);
      x[i] = std::clamp(x[i], b.lower[i] + pad, b.upper[i] - pad);
    } else if (hl) {
      const double pad = push * std::max(1.0, std::fabs(b.lower[i]));
      x[i] = std::max(x[i], b.lower[i] + pad);
    } else if (hu) {
      const double pad = push * std::max(1.0, std::fabs(b.upper[i]));
      x[i] = std::min(x[i], b.upper[i] - pad);
    }
  }
}

struct Filter {
  struct Entry {
    double theta;
    double phi;
  };
  std::vector<Entry> entries;

  void clear() { entries.clear(); }

  void add(double theta, double phi) {
    // Remove dominated entries to keep the filter small.
    std::erase_if(entries, [&](const Entry& e) {
      return e.theta >= theta && e.phi >= phi;
    });
    entries.push_back({theta, phi});
  }

  /// A trial point is acceptable if it is not dominated by any entry.
  [[nodiscard]] bool acceptable(double theta, double phi) const {
    for (const Entry& e : entries) {
      const bool improves_theta = theta <= (1.0 - kGammaTheta) * e.theta;
      const bool improves_phi = phi <= e.phi - kGammaPhi * e.theta;
      if (!improves_theta && !improves_phi) return false;
    }
    return true;
  }
};

struct Workspace {
  std::size_t n = 0;
  std::size_t m = 0;
  std::vector<double> grad;   // objective gradient
  std::vector<double> c;      // constraint values
  linalg::Matrix jac;         // m x n
  linalg::Matrix hess;        // n x n Lagrangian Hessian
};

double theta_of(std::span<const double> c) {
  double s = 0.0;
  for (double v : c) s += std::fabs(v);
  return s;
}

}  // namespace

std::string to_string(IpStatus s) {
  switch (s) {
    case IpStatus::kSolved:
      return "solved";
    case IpStatus::kMaxIterations:
      return "max-iterations";
    case IpStatus::kLineSearchFailure:
      return "line-search-failure";
    case IpStatus::kSingularSystem:
      return "singular-kkt-system";
    case IpStatus::kInvalidProblem:
      return "invalid-problem";
  }
  return "?";
}

IpResult solve_interior_point(const NlpProblem& problem,
                              std::span<const double> x0) {
  IpResult result;
  const std::size_t n = problem.num_vars();
  const std::size_t m = problem.num_constraints();
  if (n == 0 || x0.size() != n) {
    result.status = IpStatus::kInvalidProblem;
    return result;
  }

  Bounds bounds;
  bounds.lower.assign(n, -kInfinity);
  bounds.upper.assign(n, kInfinity);
  problem.bounds(bounds.lower, bounds.upper);
  for (std::size_t i = 0; i < n; ++i)
    if (bounds.lower[i] > bounds.upper[i]) {
      result.status = IpStatus::kInvalidProblem;
      return result;
    }

  std::vector<double> x(x0.begin(), x0.end());
  project_interior(x, bounds, kBoundPush);

  double mu = kMuInitial;
  std::vector<double> lambda(m, 0.0);
  std::vector<double> zl(n, 0.0);
  std::vector<double> zu(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (bounds.has_lower(i)) zl[i] = mu / (x[i] - bounds.lower[i]);
    if (bounds.has_upper(i)) zu[i] = mu / (bounds.upper[i] - x[i]);
  }

  Workspace ws;
  ws.n = n;
  ws.m = m;
  ws.grad.assign(n, 0.0);
  ws.c.assign(m, 0.0);
  ws.jac = linalg::Matrix(m, n);
  ws.hess = linalg::Matrix(n, n);

  auto eval_all = [&](std::span<const double> xv) {
    problem.gradient(xv, ws.grad);
    if (m) {
      problem.constraints(xv, ws.c);
      problem.jacobian(xv, ws.jac);
    }
  };

  auto barrier_phi = [&](std::span<const double> xv) -> double {
    double phi = problem.objective(xv);
    for (std::size_t i = 0; i < n; ++i) {
      if (bounds.has_lower(i)) {
        const double d = xv[i] - bounds.lower[i];
        if (d <= 0.0) return std::numeric_limits<double>::infinity();
        phi -= mu * std::log(d);
      }
      if (bounds.has_upper(i)) {
        const double d = bounds.upper[i] - xv[i];
        if (d <= 0.0) return std::numeric_limits<double>::infinity();
        phi -= mu * std::log(d);
      }
    }
    return phi;
  };

  auto constraint_theta = [&](std::span<const double> xv) -> double {
    if (!m) return 0.0;
    std::vector<double> cv(m);
    problem.constraints(xv, cv);
    return theta_of(cv);
  };

  /// Scaled KKT error for barrier parameter `mu_val` (mu_val = 0 gives the
  /// true optimality error used for termination).
  auto kkt_error = [&](double mu_val) -> double {
    double z_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) z_sum += std::fabs(zl[i]) + std::fabs(zu[i]);
    double l_sum = 0.0;
    for (double v : lambda) l_sum += std::fabs(v);
    const double denom = static_cast<double>(m + 2 * n);
    const double s_max = 100.0;
    const double s_d =
        std::max(s_max, (l_sum + z_sum) / std::max(1.0, denom)) / s_max;

    double err_dual = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double g = ws.grad[i] - zl[i] + zu[i];
      for (std::size_t j = 0; j < m; ++j) g += ws.jac(j, i) * lambda[j];
      err_dual = std::max(err_dual, std::fabs(g));
    }
    double err_cons = 0.0;
    for (double v : ws.c) err_cons = std::max(err_cons, std::fabs(v));
    double err_comp = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (bounds.has_lower(i))
        err_comp = std::max(
            err_comp, std::fabs((x[i] - bounds.lower[i]) * zl[i] - mu_val));
      if (bounds.has_upper(i))
        err_comp = std::max(
            err_comp, std::fabs((bounds.upper[i] - x[i]) * zu[i] - mu_val));
    }
    return std::max({err_dual / s_d, err_cons, err_comp / s_d});
  };

  Filter filter;
  eval_all(x);

  double delta_w_last = 0.0;

  for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
    result.iterations = iter + 1;

    // ---- Termination / barrier update -----------------------------------
    const double err0 = kkt_error(0.0);
    if (err0 <= kTolerance) {
      result.status = IpStatus::kSolved;
      break;
    }
    while (mu > kMuMin && kkt_error(mu) <= kKappaEpsilon * mu) {
      mu = std::max(kMuMin, std::min(kKappaMu * mu, std::pow(mu, kThetaMu)));
      filter.clear();  // barrier changed; old filter entries are stale
    }

    // ---- Assemble and solve the regularized KKT system ------------------
    problem.lagrangian_hessian(x, 1.0, lambda, ws.hess);

    std::vector<double> sigma(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (bounds.has_lower(i)) sigma[i] += zl[i] / (x[i] - bounds.lower[i]);
      if (bounds.has_upper(i)) sigma[i] += zu[i] / (bounds.upper[i] - x[i]);
    }

    // rhs_x = grad(phi_mu) + J^T lambda
    std::vector<double> rhs(n + m, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      double g = ws.grad[i];
      if (bounds.has_lower(i)) g -= mu / (x[i] - bounds.lower[i]);
      if (bounds.has_upper(i)) g += mu / (bounds.upper[i] - x[i]);
      for (std::size_t j = 0; j < m; ++j) g += ws.jac(j, i) * lambda[j];
      rhs[i] = -g;
    }
    for (std::size_t j = 0; j < m; ++j) rhs[n + j] = -ws.c[j];

    std::vector<double> step;
    double delta_w = 0.0;
    bool solved_kkt = false;
    double delta_c = 0.0;
    while (!solved_kkt) {
      linalg::Matrix kkt(n + m, n + m);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) kkt(i, j) = ws.hess(i, j);
        kkt(i, i) += sigma[i] + delta_w;
      }
      for (std::size_t j = 0; j < m; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
          kkt(n + j, i) = ws.jac(j, i);
          kkt(i, n + j) = ws.jac(j, i);
        }
        kkt(n + j, n + j) = -delta_c;
      }

      ++result.kkt_solves;
      auto lu = linalg::Lu::factor(std::move(kkt));
      if (lu) {
        step = lu->solve(rhs);
        // Curvature (descent) test: dx^T (W + Sigma + delta I) dx > 0
        // guarantees dx is a descent direction for the barrier problem on
        // the constraint null space. Reject and regularize otherwise.
        double curv = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          double hi = sigma[i] * step[i] + delta_w * step[i];
          for (std::size_t j = 0; j < n; ++j) hi += ws.hess(i, j) * step[j];
          curv += step[i] * hi;
        }
        double dx_norm = 0.0;
        for (std::size_t i = 0; i < n; ++i) dx_norm += step[i] * step[i];
        bool finite = true;
        for (double v : step)
          if (!is_finite(v)) finite = false;
        if (finite && (dx_norm == 0.0 || curv > 1e-14 * dx_norm)) {
          solved_kkt = true;
          delta_w_last = delta_w;
          break;
        }
      }
      // Inertia correction: grow the primal regularization; add a tiny dual
      // regularization the first time the factorization itself fails.
      if (delta_w == 0.0) {
        delta_w = delta_w_last > 0.0
                      ? std::max(kDeltaWInit, delta_w_last / 3.0)
                      : kDeltaWInit;
      } else {
        delta_w *= 10.0;
      }
      if (!lu && delta_c == 0.0) delta_c = 1e-10;
      if (delta_w > kDeltaWMax) {
        result.status = IpStatus::kSingularSystem;
        result.x = x;
        result.lambda = lambda;
        result.objective = problem.objective(x);
        result.kkt_error = err0;
        result.constraint_violation = linalg::norm_inf(ws.c);
        return result;
      }
    }

    std::span<const double> dx(step.data(), n);
    std::span<const double> dlambda(step.data() + n, m);

    // dz from the linearized complementarity conditions.
    std::vector<double> dzl(n, 0.0);
    std::vector<double> dzu(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (bounds.has_lower(i)) {
        const double d = x[i] - bounds.lower[i];
        dzl[i] = mu / d - zl[i] - (zl[i] / d) * dx[i];
      }
      if (bounds.has_upper(i)) {
        const double d = bounds.upper[i] - x[i];
        dzu[i] = mu / d - zu[i] + (zu[i] / d) * dx[i];
      }
    }

    // ---- Fraction-to-boundary step limits --------------------------------
    const double tau = std::max(kTauMin, 1.0 - mu);
    double alpha_max = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (bounds.has_lower(i) && dx[i] < 0.0)
        alpha_max = std::min(
            alpha_max, -tau * (x[i] - bounds.lower[i]) / dx[i]);
      if (bounds.has_upper(i) && dx[i] > 0.0)
        alpha_max = std::min(
            alpha_max, tau * (bounds.upper[i] - x[i]) / dx[i]);
    }
    double alpha_z = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (bounds.has_lower(i) && dzl[i] < 0.0)
        alpha_z = std::min(alpha_z, -tau * zl[i] / dzl[i]);
      if (bounds.has_upper(i) && dzu[i] < 0.0)
        alpha_z = std::min(alpha_z, -tau * zu[i] / dzu[i]);
    }

    // ---- Filter line search ----------------------------------------------
    const double theta_k = theta_of(ws.c);
    const double phi_k = barrier_phi(x);
    double dphi = 0.0;  // directional derivative of phi_mu along dx
    for (std::size_t i = 0; i < n; ++i) {
      double g = ws.grad[i];
      if (bounds.has_lower(i)) g -= mu / (x[i] - bounds.lower[i]);
      if (bounds.has_upper(i)) g += mu / (bounds.upper[i] - x[i]);
      dphi += g * dx[i];
    }

    double alpha = alpha_max;
    bool accepted = false;
    bool augment_filter = false;
    std::vector<double> x_trial(n);
    while (alpha >= kMinStep) {
      for (std::size_t i = 0; i < n; ++i) x_trial[i] = x[i] + alpha * dx[i];
      const double theta_t = constraint_theta(x_trial);
      const double phi_t = barrier_phi(x_trial);
      if (!is_finite(phi_t) || !is_finite(theta_t)) {
        alpha *= 0.5;
        continue;
      }

      const bool f_type =
          dphi < 0.0 && std::pow(alpha, kSPhi) * std::pow(-dphi, kSPhi) >
                            kDelta * std::pow(theta_k, kSTheta);
      if (f_type) {
        // Armijo condition on the barrier objective.
        if (phi_t <= phi_k + kEta * alpha * dphi &&
            filter.acceptable(theta_t, phi_t)) {
          accepted = true;
          augment_filter = false;
          break;
        }
      } else {
        const bool sufficient = theta_t <= (1.0 - kGammaTheta) * theta_k ||
                                phi_t <= phi_k - kGammaPhi * theta_k;
        if (sufficient && filter.acceptable(theta_t, phi_t)) {
          accepted = true;
          augment_filter = true;
          break;
        }
      }
      alpha *= 0.5;
    }

    if (!accepted) {
      // Feasibility restoration: a Gauss-Newton step on 0.5||c||^2, kept
      // inside the bounds. If it does not reduce theta, give up.
      bool restored = false;
      if (m > 0 && theta_k > 0.0) {
        linalg::Matrix jtj(n, n);
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < n; ++j) {
            double s = i == j ? 1e-8 : 0.0;
            for (std::size_t r = 0; r < m; ++r)
              s += ws.jac(r, i) * ws.jac(r, j);
            jtj(i, j) = s;
          }
        std::vector<double> jtc(n, 0.0);
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t r = 0; r < m; ++r) jtc[i] += ws.jac(r, i) * ws.c[r];
        for (double& v : jtc) v = -v;
        if (auto d = linalg::solve(jtj, jtc)) {
          double beta = 1.0;
          for (int tries = 0; tries < 30; ++tries) {
            for (std::size_t i = 0; i < n; ++i)
              x_trial[i] = x[i] + beta * (*d)[i];
            project_interior(x_trial, bounds, kBoundPush * 1e-2);
            if (constraint_theta(x_trial) < 0.9 * theta_k) {
              restored = true;
              break;
            }
            beta *= 0.5;
          }
        }
      }
      if (!restored) {
        result.status = IpStatus::kLineSearchFailure;
        break;
      }
      x = x_trial;
      filter.clear();
      eval_all(x);
      continue;
    }

    if (augment_filter)
      filter.add((1.0 - kGammaTheta) * theta_k, phi_k - kGammaPhi * theta_k);

    // ---- Apply the step ---------------------------------------------------
    for (std::size_t i = 0; i < n; ++i) x[i] += alpha * dx[i];
    for (std::size_t j = 0; j < m; ++j) lambda[j] += alpha * dlambda[j];
    for (std::size_t i = 0; i < n; ++i) {
      zl[i] += alpha_z * dzl[i];
      zu[i] += alpha_z * dzu[i];
    }

    // Multiplier safeguard: keep z within a corridor of mu/(x-l) so the
    // primal-dual Hessian stays consistent with the barrier (IPOPT k_Sigma).
    for (std::size_t i = 0; i < n; ++i) {
      if (bounds.has_lower(i)) {
        const double d = x[i] - bounds.lower[i];
        zl[i] = std::clamp(zl[i], mu / (kKappaSigma * d),
                           kKappaSigma * mu / d);
      }
      if (bounds.has_upper(i)) {
        const double d = bounds.upper[i] - x[i];
        zu[i] = std::clamp(zu[i], mu / (kKappaSigma * d),
                           kKappaSigma * mu / d);
      }
    }

    eval_all(x);
  }

  if (result.status != IpStatus::kSolved &&
      result.status != IpStatus::kLineSearchFailure)
    result.status = result.iterations >= kMaxIterations
                        ? IpStatus::kMaxIterations
                        : result.status;

  result.x = x;
  result.lambda = lambda;
  result.objective = problem.objective(x);
  result.kkt_error = kkt_error(0.0);
  result.constraint_violation = m ? linalg::norm_inf(ws.c) : 0.0;
  return result;
}

}  // namespace plbhec::solver
