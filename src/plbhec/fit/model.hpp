#pragma once
/// \file model.hpp
/// Fitted performance models: F_p(x) (execution time), G_p(x) (transfer
/// time) and their sum E_p(x), with first and second derivatives for the
/// interior-point solver.

#include <cstdint>
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

/// Cost regime a PerfModel is evaluated under (see PerfModel::overlap).
enum class CostRegime : std::uint8_t {
  kAdditive,  ///< synchronous transport: E = F + G (paper Eq. 1)
  kOverlap,   ///< pipelined transport: E blends toward max(F, G)
};

/// Complete per-processing-unit model. With a synchronous transport the
/// paper's additive cost E_p(x) = F_p(x) + G_p(x) (Eq. 1) is the truth;
/// once the data plane pipelines blocks, transfer overlaps execution and
/// the steady-state cost per block approaches max(F, G). `overlap` in
/// [0, 1] blends the regimes from the scheduler's observed overlap
/// fraction:
///
///   E(x) = F + G - overlap * softmin(F, G)
///
/// where softmin(F, G) = (F + G - sqrt((F-G)^2 + (beta (F+G))^2)) / 2 is
/// a C^2 smooth minimum, so the interior-point solver keeps exact first
/// and second derivatives in both regimes. overlap = 0 reproduces the
/// additive model bit for bit; overlap = 1 approaches max(F, G) to
/// within beta/2 of the smaller term.
struct PerfModel {
  CurveModel exec;
  TransferModel transfer;
  double overlap = 0.0;  ///< observed pipelining overlap fraction, [0, 1]

  [[nodiscard]] double execution_time(double x) const { return exec(x); }
  [[nodiscard]] double total_time(double x) const;
  [[nodiscard]] double total_derivative(double x) const;
  [[nodiscard]] double total_second_derivative(double x) const;
  [[nodiscard]] CostRegime regime() const {
    return overlap > 0.0 ? CostRegime::kOverlap : CostRegime::kAdditive;
  }
  [[nodiscard]] bool valid() const { return exec.valid(); }
};

}  // namespace plbhec::fit
