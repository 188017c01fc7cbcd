#include "plbhec/solver/ip_oracle.hpp"

#include <algorithm>
#include <vector>

namespace plbhec::solver {
namespace {

/// NLP encoding of Eq. (3)-(5):
///   variables  x_1..x_n (fractions),
///   objective  E_1(x_1),
///   c_0        sum_g x_g - target = 0,
///   c_g        E_1(x_1) - E_{g+1}(x_{g+1}) = 0   for g = 1..n-1,
///   bounds     kMinFraction <= x_g <= target.
class EqualTimeNlp final : public NlpProblem {
 public:
  EqualTimeNlp(std::span<const fit::PerfModel> models, double target)
      : models_(models), target_(target) {}

  [[nodiscard]] std::size_t num_vars() const override {
    return models_.size();
  }
  [[nodiscard]] std::size_t num_constraints() const override {
    return models_.size();  // 1 simplex + (n-1) equal-time
  }

  [[nodiscard]] double objective(std::span<const double> x) const override {
    return models_[0].total_time(x[0]);
  }

  void gradient(std::span<const double> x,
                std::span<double> grad) const override {
    std::fill(grad.begin(), grad.end(), 0.0);
    grad[0] = models_[0].total_derivative(x[0]);
  }

  void constraints(std::span<const double> x,
                   std::span<double> c) const override {
    const std::size_t n = models_.size();
    double sum = 0.0;
    for (std::size_t g = 0; g < n; ++g) sum += x[g];
    c[0] = sum - target_;
    const double e1 = models_[0].total_time(x[0]);
    for (std::size_t g = 1; g < n; ++g)
      c[g] = e1 - models_[g].total_time(x[g]);
  }

  void jacobian(std::span<const double> x,
                linalg::Matrix& jac) const override {
    const std::size_t n = models_.size();
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t cidx = 0; cidx < n; ++cidx) jac(r, cidx) = 0.0;
    for (std::size_t cidx = 0; cidx < n; ++cidx) jac(0, cidx) = 1.0;
    const double de1 = models_[0].total_derivative(x[0]);
    for (std::size_t g = 1; g < n; ++g) {
      jac(g, 0) = de1;
      jac(g, g) = -models_[g].total_derivative(x[g]);
    }
  }

  void lagrangian_hessian(std::span<const double> x, double obj_factor,
                          std::span<const double> lambda,
                          linalg::Matrix& hess) const override {
    const std::size_t n = models_.size();
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t cidx = 0; cidx < n; ++cidx) hess(r, cidx) = 0.0;
    const double d2e1 = models_[0].total_second_derivative(x[0]);
    double h00 = obj_factor * d2e1;
    for (std::size_t g = 1; g < n; ++g) {
      h00 += lambda[g] * d2e1;
      hess(g, g) = -lambda[g] * models_[g].total_second_derivative(x[g]);
    }
    hess(0, 0) = h00;
  }

  void bounds(std::span<double> lower, std::span<double> upper) const override {
    std::fill(lower.begin(), lower.end(), kMinFraction);
    std::fill(upper.begin(), upper.end(), target_);
  }

 private:
  std::span<const fit::PerfModel> models_;
  double target_;
};

}  // namespace

IpResult solve_equal_time_ip(std::span<const fit::PerfModel> models,
                             double window) {
  const EqualTimeNlp nlp(models, window);
  const std::vector<double> x0(models.size(),
                               window / static_cast<double>(models.size()));
  return solve_interior_point(nlp, x0);
}

}  // namespace plbhec::solver
