#pragma once
/// \file model.hpp
/// Fitted performance models: F_p(x) (execution time), G_p(x) (transfer
/// time) and their sum E_p(x) = F_p(x) + G_p(x) (the paper's Eq. 1), with
/// first and second derivatives for the block-size solvers. This is the
/// one cost model: a pipelined transport measures its own overlap
/// (net::RemoteUnit::overlap_fraction), but every block is priced F + G.

#include <string>
#include <vector>

#include "plbhec/fit/basis.hpp"

namespace plbhec::fit {

/// Linear combination of basis functions: sum_i coeff[i] * term[i](x).
struct CurveModel {
  std::vector<BasisFn> terms;
  std::vector<double> coefficients;
  double r2 = 0.0;  ///< coefficient of determination on the training samples

  [[nodiscard]] double operator()(double x) const;
  [[nodiscard]] double derivative(double x) const;
  [[nodiscard]] double second_derivative(double x) const;
  [[nodiscard]] bool valid() const {
    return !terms.empty() && terms.size() == coefficients.size();
  }
  /// Human-readable formula, e.g. "0.013 + 1.27*x + 0.004*ln(x)".
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const CurveModel&, const CurveModel&) = default;
};

/// Affine transfer-time model G_p(x) = bandwidth_term * x + latency (Eq. 2).
struct TransferModel {
  double slope = 0.0;    ///< a1: inverse effective bandwidth (s per fraction)
  double latency = 0.0;  ///< a2: network + PCIe latency (s)
  double r2 = 1.0;

  [[nodiscard]] double operator()(double x) const {
    return slope * x + latency;
  }
  [[nodiscard]] double derivative(double) const { return slope; }
};

/// Complete per-processing-unit model: the paper's additive cost
/// E_p(x) = F_p(x) + G_p(x) (Eq. 1).
struct PerfModel {
  CurveModel exec;
  TransferModel transfer;

  [[nodiscard]] double total_time(double x) const {
    return exec(x) + transfer(x);
  }
  [[nodiscard]] double total_derivative(double x) const {
    return exec.derivative(x) + transfer.derivative(x);
  }
  [[nodiscard]] double total_second_derivative(double x) const {
    return exec.second_derivative(x);
  }
  [[nodiscard]] bool valid() const { return exec.valid(); }
};

}  // namespace plbhec::fit
