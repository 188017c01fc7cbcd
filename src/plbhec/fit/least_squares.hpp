#pragma once
/// \file least_squares.hpp
/// Curve fitting for the performance-modeling phase (§III-B):
///  - fit a fixed term subset by least squares;
///  - select the best subset of the paper's basis set by BIC with the
///    R^2 >= threshold acceptance rule;
///  - fit the affine transfer model G_p(x) = a1 x + a2 with non-negativity
///    clamping (bandwidth and latency cannot be negative).

#include <optional>
#include <span>

#include "plbhec/fit/model.hpp"
#include "plbhec/fit/samples.hpp"

namespace plbhec::fit {

/// Which linear-algebra path solves a term-subset fit.
enum class FitEngine {
  kAuto,  ///< Gram/Cholesky from 8 samples on, QR below (the reference
          ///< numerics for exact fits on a handful of points)
  kQr,    ///< always rebuild the design matrix and solve by Householder QR
  kGram,  ///< always solve the cached-moment normal equations (QR only as
          ///< a conditioning fallback)
};

/// Counters describing which path fits actually took; callers aggregate
/// them into scheduler statistics.
struct FitCounters {
  std::size_t gram_solves = 0;   ///< subset solved from cached moments
  std::size_t qr_solves = 0;     ///< design-matrix QR solves
  std::size_t qr_fallbacks = 0;  ///< Gram path bailed out on conditioning

  void merge(const FitCounters& o) {
    gram_solves += o.gram_solves;
    qr_solves += o.qr_solves;
    qr_fallbacks += o.qr_fallbacks;
  }
};

/// Acceptance threshold on the coefficient of determination: the paper's
/// 0.7 ("a good approximation ... and prevents overfitting"). Selection
/// marks a fit acceptable at r2 >= this; PLB-HeC's warm-start gate and its
/// model-fitted events read the same bar.
inline constexpr double kR2Threshold = 0.7;

/// Options for subset model selection. Everything else about selection is
/// fixed (fit/least_squares.cpp): the intercept is always fitted, at most
/// three candidate terms join it, a fit needs two samples per parameter,
/// implausible curves are filtered, and the least squares are unweighted.
struct SelectionOptions {
  /// Numerical path for subset solves. kAuto switches from QR to the
  /// cached-moment Gram/Cholesky path at 8 samples, below which QR keeps
  /// the small-n numerics (and so the BIC tie-breaking) the reference.
  FitEngine engine = FitEngine::kAuto;

  /// Field-wise equality; the profile database installs a stored
  /// selection only when its own options are the defaults it ran with.
  friend bool operator==(const SelectionOptions&,
                         const SelectionOptions&) = default;
};

/// Result of fitting one processing unit's execution-time curve.
struct FitResult {
  CurveModel model;
  double r2 = 0.0;
  double bic = 0.0;
  bool acceptable = false;  ///< r2 >= kR2Threshold

  friend bool operator==(const FitResult&, const FitResult&) = default;
};

/// Fits the given term subset (at most 20 terms) to the samples. Returns
/// nullopt when the system is underdetermined (fewer samples than terms)
/// or degenerate. `engine` picks the solver path (see FitEngine);
/// `counters`, when given, records which path ran.
[[nodiscard]] std::optional<FitResult> fit_terms(
    const SampleSet& samples, std::span<const BasisFn> terms,
    FitEngine engine = FitEngine::kAuto, FitCounters* counters = nullptr);

/// Enumerates subsets of `candidate_terms` (1 to 3 of them, plus the
/// intercept), fits each, and returns the best plausible one by BIC.
/// `acceptable` reflects the paper's R^2 >= kR2Threshold rule. The subsets
/// are scored as a prefix tree that shares each leading block's Cholesky
/// rows and Householder steps; the result is bit for bit the one solving
/// every subset from scratch gives.
[[nodiscard]] FitResult select_model(const SampleSet& samples,
                                     const SelectionOptions& options = {},
                                     FitCounters* counters = nullptr);

/// Same but with an explicit candidate list (used by the basis ablation).
[[nodiscard]] FitResult select_model_from(
    const SampleSet& samples, std::span<const BasisFn> candidate_terms,
    const SelectionOptions& options = {}, FitCounters* counters = nullptr);

/// Selection from moments alone (a drift window's discounted moments):
/// the same enumeration, with every candidate solved from the moments at
/// sample mass `effective_n`, whose floor stands in for the sample count in
/// the DoF guard. `x_lo` is the smallest block fraction behind the moments
/// (the plausibility grid's lower edge). There are no rows to fall back to
/// QR on, so candidates too ill-conditioned for the Gram path are skipped.
[[nodiscard]] FitResult select_model(const MomentSet& moments,
                                     double effective_n, double x_lo);

/// Fits G_p(x) = slope * x + latency, clamping both to be non-negative.
[[nodiscard]] TransferModel fit_transfer(const SampleSet& samples);

}  // namespace plbhec::fit
