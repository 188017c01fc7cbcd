#include "plbhec/fit/least_squares.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "plbhec/common/stats.hpp"
#include "plbhec/linalg/cholesky.hpp"
#include "plbhec/linalg/qr.hpp"

namespace plbhec::fit {
namespace {

/// kAuto cutover: below this many samples the QR path is both cheap and
/// the historical numerical reference (exact fits on 2-5 points are where
/// normal-equation cancellation would perturb the BIC tie-breaking); at and
/// above it the O(k^3) moment solve wins and agrees with QR to ~1e-9.
constexpr std::size_t kGramMinSamples = 8;

/// Points of the physical-plausibility grid on [x_lo, 1].
constexpr std::size_t kPlausibilityGrid = 48;

/// Largest term subset the selection enumerates: fewer than 20 candidate
/// functions plus the intercept.
constexpr std::size_t kMaxSubsetTerms = 20;

/// BIC tie margin: a candidate must beat the incumbent by more than this.
constexpr double kBicMargin = 1e-12;

double compute_bic(double rss, double nn, std::size_t k) {
  const double safe_rss = std::max(rss, 1e-300);
  return nn * std::log(safe_rss / nn) +
         static_cast<double>(k) * std::log(nn);
}

/// sum_j coef[j] * phi[terms[j]], accumulated in term order: bitwise what
/// CurveModel::operator() returns at the abscissa the basis row `phi` was
/// evaluated at.
double combine(std::span<const BasisFn> terms, std::span<const double> coef,
               const double* phi) {
  double acc = 0.0;
  for (std::size_t j = 0; j < terms.size(); ++j)
    acc += coef[j] * phi[static_cast<std::size_t>(terms[j])];
  return acc;
}

/// Quality of one fitted subset; its coefficients live in caller storage.
struct SubsetScore {
  double r2 = 0.0;
  double bic = 0.0;
};

/// Fixed-size storage for one sub-Gram solve of up to kBasisCount terms,
/// reused by every subset of a call.
struct GramScratch {
  std::array<double, kBasisCount * kBasisCount> g{};
  std::array<double, kBasisCount> rhs{};
  std::array<double, linalg::spd_scratch(kBasisCount)> solve{};
};

/// Fast path: solve the k x k sub-Gram system assembled from incrementally
/// maintained moments, recovering RSS/R^2/BIC from the cached unweighted
/// moments. O(k^3) per fit, independent of sample count. Returns nullopt
/// when the equilibrated sub-Gram is too ill-conditioned to certify ~1e-9
/// agreement with QR (the e^x family near x -> 1); the SampleSet caller
/// then falls back to the design-matrix path. `n` is the (possibly
/// fractional, for discounted windows) sample mass behind the moments.
std::optional<SubsetScore> fit_gram(const MomentSet& m, double n,
                                    std::span<const BasisFn> terms,
                                    bool relative_weighting,
                                    std::span<double> c, GramScratch& s) {
  const std::size_t k = terms.size();
  // More terms than basis functions repeat one, so the sub-Gram is
  // singular and the equilibrated solve's rcond gate would reject it.
  if (k > kBasisCount) return std::nullopt;

  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j)
      s.g[i * k + j] = m.gram(terms[i], terms[j], relative_weighting);
    s.rhs[i] = m.xty(terms[i], relative_weighting);
  }
  if (!linalg::solve_equilibrated_spd_in_place(
          {s.g.data(), k * k}, k, {s.rhs.data(), k}, c, s.solve))
    return std::nullopt;

  // RSS via the quadratic form ||y - Xc||^2 = y'y - 2 c'X'y + c'G c over
  // the *unweighted* moments (acceptance R^2 is always unweighted).
  double ctb = 0.0;
  double ctgc = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    ctb += c[i] * m.xty(terms[i]);
    double gc = 0.0;
    for (std::size_t j = 0; j < k; ++j)
      gc += m.gram(terms[i], terms[j]) * c[j];
    ctgc += c[i] * gc;
  }
  const double yty = m.yty();
  const double rss = std::max(yty - 2.0 * ctb + ctgc, 0.0);
  const double tss = yty - m.sum_y() * m.sum_y() / n;

  SubsetScore score;
  // Mirror r_squared()'s constant-observation edge case, with a relative
  // floor standing in for its exact ss_tot == 0 test (the moment-space TSS
  // carries cancellation noise of order eps * y'y).
  if (tss <= 1e-12 * std::max(yty, 1e-300))
    score.r2 = rss <= 1e-12 * std::max(yty, 1e-300) ? 1.0 : 0.0;
  else
    score.r2 = 1.0 - rss / tss;
  score.bic = compute_bic(rss, n, k);
  return score;
}

/// Subset fitter over a SampleSet. The Gram path solves from the cached
/// moments in fixed-size storage; the QR path builds the design matrix
/// from a basis table evaluated once per sample and factors it in one
/// buffer. Table and buffer are allocated together on the first QR solve,
/// sized for subsets of up to `max_terms` terms, so no subset allocates.
class SampleFitter {
 public:
  SampleFitter(const SampleSet& samples, FitEngine engine,
               FitCounters* counters, std::size_t max_terms)
      : samples_(samples),
        n_(samples.size()),
        max_terms_(max_terms),
        try_gram_(engine == FitEngine::kGram ||
                  (engine == FitEngine::kAuto && n_ >= kGramMinSamples)),
        counters_(counters) {}

  std::optional<SubsetScore> operator()(std::span<const BasisFn> terms,
                                        bool relative_weighting,
                                        std::span<double> c) {
    if (terms.empty() || n_ < terms.size()) return std::nullopt;
    if (try_gram_) {
      if (auto score = fit_gram(samples_.moments(), static_cast<double>(n_),
                                terms, relative_weighting, c, gram_)) {
        if (counters_) ++counters_->gram_solves;
        return score;
      }
      if (counters_) ++counters_->qr_fallbacks;
    }
    if (counters_) ++counters_->qr_solves;
    return fit_qr(terms, relative_weighting, c);
  }

 private:
  /// Design-matrix path: Householder QR with column equilibration,
  /// O(n k^2) per fit.
  std::optional<SubsetScore> fit_qr(std::span<const BasisFn> terms,
                                    bool relative_weighting,
                                    std::span<double> c) {
    const std::size_t n = n_;
    const std::size_t k = terms.size();
    PLBHEC_EXPECTS(k <= max_terms_);
    if (buffer_.empty()) build_tables();
    const std::span<double> all(buffer_);
    const std::span<const double> phi = all.subspan(0, n * kBasisCount);
    const std::span<const double> observed = all.subspan(n * kBasisCount, n);
    const std::span<double> b = all.subspan(n * (kBasisCount + 1), n);
    const std::span<double> predicted = all.subspan(n * (kBasisCount + 2), n);
    const std::span<double> a =
        all.subspan(n * (kBasisCount + 3), n * max_terms_);
    const std::span<double> ls_scratch =
        all.subspan(n * (kBasisCount + 3 + max_terms_));

    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t col = 0; col < k; ++col)
        a[r * k + col] =
            phi[r * kBasisCount + static_cast<std::size_t>(terms[col])];
      b[r] = observed[r];
      if (relative_weighting) {
        const double w = 1.0 / std::max(samples_.items()[r].time, 1e-9);
        for (std::size_t col = 0; col < k; ++col) a[r * k + col] *= w;
        b[r] *= w;
      }
    }
    if (!linalg::least_squares_in_place(a, n, k, b, c, ls_scratch))
      return std::nullopt;

    // Evaluate the *unweighted* R^2 on the raw samples so the acceptance
    // rule matches the paper regardless of the weighting used to fit.
    for (std::size_t r = 0; r < n; ++r)
      predicted[r] = combine(terms, c, &phi[r * kBasisCount]);
    SubsetScore score;
    score.r2 = r_squared(observed, predicted);
    double rss = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      const double d = observed[r] - predicted[r];
      rss += d * d;
    }
    score.bic = compute_bic(rss, static_cast<double>(n), k);
    return score;
  }

  /// One allocation per call: the per-sample basis table and observed
  /// times, then the rhs, prediction, design and factorization scratch.
  void build_tables() {
    const std::size_t n = n_;
    buffer_.resize(n * (kBasisCount + 3 + max_terms_) +
                   linalg::least_squares_scratch(n, max_terms_));
    for (std::size_t r = 0; r < n; ++r) {
      const Sample& s = samples_.items()[r];
      eval_all(s.x, std::span<double, kBasisCount>(
                        buffer_.data() + r * kBasisCount, kBasisCount));
      buffer_[n * kBasisCount + r] = s.time;
    }
  }

  const SampleSet& samples_;
  std::size_t n_;
  std::size_t max_terms_;
  bool try_gram_;
  FitCounters* counters_;
  GramScratch gram_;
  std::vector<double> buffer_;
};

/// The physical-plausibility grid on [x_lo, 1] with every basis function
/// evaluated once per point (on first use), so a candidate's curve is a
/// weighted sum of table entries.
class PlausibilityGrid {
 public:
  explicit PlausibilityGrid(double x_lo) : x_lo_(x_lo) {}

  /// Time curves must stay non-negative and must not decrease
  /// substantially anywhere on (x_lo, 1]; small local dips (< 5% of the
  /// curve's range) are tolerated as fit noise.
  bool plausible(std::span<const BasisFn> terms, std::span<const double> c) {
    if (!built_) build();
    double prev = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    double worst_drop = 0.0;
    for (std::size_t i = 0; i < kPlausibilityGrid; ++i) {
      const double t = combine(terms, c, &phi_[i * kBasisCount]);
      if (!std::isfinite(t) || t < 0.0) return false;
      if (i == 0) {
        lo = hi = prev = t;
        continue;
      }
      lo = std::min(lo, t);
      hi = std::max(hi, t);
      worst_drop = std::max(worst_drop, prev - t);
      prev = t;
    }
    const double range = hi - lo;
    return worst_drop <= 0.05 * std::max(range, 1e-300);
  }

 private:
  void build() {
    for (std::size_t i = 0; i < kPlausibilityGrid; ++i) {
      const double f =
          static_cast<double>(i) / static_cast<double>(kPlausibilityGrid - 1);
      eval_all(x_lo_ + f * (1.0 - x_lo_),
               std::span<double, kBasisCount>(&phi_[i * kBasisCount],
                                              kBasisCount));
    }
    built_ = true;
  }

  double x_lo_;
  bool built_ = false;
  std::array<double, kPlausibilityGrid * kBasisCount> phi_{};
};

/// A scored subset in fixed storage. The enumeration keeps its incumbents
/// here and builds a FitResult only for the one it returns.
struct Candidate {
  std::array<BasisFn, kMaxSubsetTerms> terms{};
  std::array<double, kMaxSubsetTerms> coefficients{};
  std::size_t k = 0;
  double r2 = 0.0;
  double bic = std::numeric_limits<double>::infinity();

  [[nodiscard]] bool valid() const { return k > 0; }
  [[nodiscard]] std::span<const BasisFn> term_span() const {
    return {terms.data(), k};
  }
  [[nodiscard]] std::span<double> coefficient_span() {
    return {coefficients.data(), k};
  }
  [[nodiscard]] FitResult result(double r2_threshold) const {
    FitResult out;
    out.model.terms.assign(terms.begin(), terms.begin() + k);
    out.model.coefficients.assign(coefficients.begin(),
                                  coefficients.begin() + k);
    out.model.r2 = r2;
    out.r2 = r2;
    out.bic = bic;
    out.acceptable = valid() && r2 >= r2_threshold;
    return out;
  }
};

/// The subset search shared by every selection path. `fit_subset(terms,
/// relative_weighting, coefficients)` solves one subset and returns its
/// score; `n` is the sample count behind the DoF guard and the parsimony
/// classes, `nonempty` gates the intercept-only fallback and `x_lo` is the
/// plausibility grid's lower edge.
///
/// Plausibility is checked lazily: only a candidate whose BIC beats
/// best_plausible or best_of_class by the tie margin can change either, so
/// no other candidate needs the 48-point curve check.
template <class SubsetFitter>
FitResult select_subsets(std::span<const BasisFn> candidate_terms,
                         const SelectionOptions& options, std::size_t n,
                         bool nonempty, double x_lo,
                         SubsetFitter&& fit_subset) {
  Candidate best_plausible;
  Candidate best_any;

  const std::size_t m = candidate_terms.size();
  const std::size_t limit = std::min(options.max_terms, m);

  // Degrees-of-freedom guard: an interpolating fit (params == samples) has
  // R^2 = 1 by construction and garbage extrapolation. Exception: with two
  // samples an exact line is still allowed — slope information is vital
  // for the block selection (a flat model hands the unit an arbitrary
  // share) and a 2-point line through a monotone curve extrapolates sanely.
  const std::size_t max_params =
      n < 2 ? 1
            : std::max<std::size_t>(
                  2, n / std::max<std::size_t>(1, options.samples_per_param));

  // Scarce samples (< 6): parsimony-first enumeration — try all subsets
  // with exactly `s` non-intercept terms, smallest s first, and stop at
  // the first size class that yields a physically plausible fit over the
  // escalation bar. Extra terms cut residuals on a handful of probe
  // points almost for free but wreck the extrapolation the block
  // selection relies on; this ordering operationalizes the paper's
  // "0.7 ... prevents overfitting" rule. With >= 6 samples the BIC has
  // real degrees of freedom to price complexity, so the plain
  // BIC-among-plausible winner (computed below either way) is used.
  const bool hierarchical = n < 6;
  PLBHEC_EXPECTS(m < kMaxSubsetTerms);
  const std::size_t subsets = std::size_t{1} << m;
  PlausibilityGrid grid(x_lo);
  Candidate current;
  for (std::size_t size_class = 1; size_class <= limit; ++size_class) {
    Candidate best_of_class;
    for (std::size_t mask = 1; mask < subsets; ++mask) {
      const auto bits = static_cast<std::size_t>(__builtin_popcountll(mask));
      if (bits != size_class) continue;
      current.k = 0;
      if (options.include_intercept) current.terms[current.k++] = BasisFn::kOne;
      for (std::size_t i = 0; i < m; ++i)
        if (mask & (std::size_t{1} << i))
          current.terms[current.k++] = candidate_terms[i];
      if (current.k > max_params) continue;

      const auto score =
          fit_subset(current.term_span(), options.relative_weighting,
                     current.coefficient_span());
      if (!score) continue;
      current.r2 = score->r2;
      current.bic = score->bic;

      if (current.bic < best_any.bic - kBicMargin) best_any = current;
      const bool beats_plausible =
          current.bic < best_plausible.bic - kBicMargin;
      const bool beats_class = current.bic < best_of_class.bic - kBicMargin;
      if (!beats_plausible && !beats_class) continue;
      if (options.physical_filter &&
          !grid.plausible(current.term_span(), current.coefficient_span()))
        continue;
      if (beats_plausible) best_plausible = current;
      if (beats_class) best_of_class = current;
    }
    const double bar = std::max(options.class_r2, options.r2_threshold);
    if (hierarchical && best_of_class.valid() && best_of_class.r2 >= bar)
      return best_of_class.result(options.r2_threshold);
  }

  Candidate best =
      best_plausible.valid()
          ? best_plausible
          : best_any;  // all candidates unphysical: keep the best raw fit

  // Intercept-only fallback when nothing else was fittable (e.g. a single
  // sample): model the unit as a constant.
  if (!best.valid() && options.include_intercept && nonempty) {
    current.k = 1;
    current.terms[0] = BasisFn::kOne;
    if (const auto score =
            fit_subset(current.term_span(), /*relative_weighting=*/false,
                       current.coefficient_span())) {
      current.r2 = score->r2;
      current.bic = score->bic;
      best = current;
    }
  }
  return best.result(options.r2_threshold);
}

FitResult make_result(std::span<const BasisFn> terms, std::vector<double> c,
                      const SubsetScore& score) {
  FitResult result;
  result.model.terms.assign(terms.begin(), terms.end());
  result.model.coefficients = std::move(c);
  result.model.r2 = score.r2;
  result.r2 = score.r2;
  result.bic = score.bic;
  return result;
}

}  // namespace

std::optional<FitResult> fit_terms(const SampleSet& samples,
                                   std::span<const BasisFn> terms,
                                   bool relative_weighting, FitEngine engine,
                                   FitCounters* counters) {
  SampleFitter fitter(samples, engine, counters, terms.size());
  std::vector<double> c(terms.size());
  const auto score = fitter(terms, relative_weighting, c);
  if (!score) return std::nullopt;
  return make_result(terms, std::move(c), *score);
}

std::optional<FitResult> fit_terms(const MomentSet& moments, double effective_n,
                                   std::span<const BasisFn> terms,
                                   bool relative_weighting) {
  if (terms.empty() || effective_n < static_cast<double>(terms.size()))
    return std::nullopt;
  std::vector<double> c(terms.size());
  GramScratch scratch;
  const auto score =
      fit_gram(moments, effective_n, terms, relative_weighting, c, scratch);
  if (!score) return std::nullopt;
  return make_result(terms, std::move(c), *score);
}

FitResult select_model_from(const SampleSet& samples,
                            std::span<const BasisFn> candidate_terms,
                            const SelectionOptions& options,
                            FitCounters* counters) {
  double x_lo = 1.0;
  for (const auto& s : samples.items()) x_lo = std::min(x_lo, s.x);
  const std::size_t max_terms =
      std::min(options.max_terms, candidate_terms.size()) + 1;
  SampleFitter fitter(samples, options.engine, counters, max_terms);
  return select_subsets(candidate_terms, options, samples.size(),
                        !samples.empty(), x_lo, fitter);
}

FitResult select_model(const SampleSet& samples,
                       const SelectionOptions& options,
                       FitCounters* counters) {
  return select_model_from(samples, paper_terms(), options, counters);
}

FitResult select_model(const MomentSet& moments, double effective_n,
                       double x_lo, const SelectionOptions& options) {
  GramScratch scratch;
  const auto fit_subset =
      [&](std::span<const BasisFn> terms, bool relative_weighting,
          std::span<double> c) -> std::optional<SubsetScore> {
    if (terms.empty() || effective_n < static_cast<double>(terms.size()))
      return std::nullopt;
    return fit_gram(moments, effective_n, terms, relative_weighting, c,
                    scratch);
  };
  return select_subsets(paper_terms(), options,
                        static_cast<std::size_t>(effective_n),
                        effective_n > 0.0, x_lo, fit_subset);
}

TransferModel fit_transfer(const SampleSet& samples) {
  TransferModel model;
  if (samples.empty()) return model;
  if (samples.size() == 1) {
    // With one observation assume pure bandwidth cost.
    model.slope = samples.items()[0].time / samples.items()[0].x;
    model.latency = 0.0;
    return model;
  }

  std::vector<BasisFn> affine{BasisFn::kOne, BasisFn::kX};
  auto fitted = fit_terms(samples, affine);
  if (fitted) {
    model.latency = fitted->model.coefficients[0];
    model.slope = fitted->model.coefficients[1];
    model.r2 = fitted->r2;
  }

  // Physical clamps: negative latency or bandwidth terms are fit noise.
  if (model.latency < 0.0) {
    model.latency = 0.0;
    // Re-fit slope-only through the origin: slope = sum(x t) / sum(x^2).
    double num = 0.0;
    double den = 0.0;
    for (const auto& s : samples.items()) {
      num += s.x * s.time;
      den += s.x * s.x;
    }
    model.slope = den > 0.0 ? num / den : 0.0;
  }
  if (model.slope < 0.0) {
    model.slope = 0.0;
    const std::vector<double> times = samples.times();
    model.latency = mean(times);
  }
  return model;
}

}  // namespace plbhec::fit
