// Bit-identity of the production model selection against a reference
// oracle. The oracle below is the selection as it stood before the fast
// path: every candidate is scored through a freshly built FitResult, its
// design matrix evaluates each basis function per sample with eval(), the
// solves go through the Matrix-returning linalg API, every fitted subset
// is checked for physical plausibility (eager), and under 6 samples the
// size classes are walked one by one, stopping at the first whose best
// plausible fit reaches R^2 0.98. The production path (one prefix-tree
// walk over every subset, lazy plausibility, allocation-free subset
// solves) must return the same terms, coefficients, r2, bic and
// acceptance bit for bit, across sample counts, all three engines,
// candidate lists, Gram->QR conditioning fallbacks and data the filter
// rejects — and so must the moments-only drift-window selection.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "plbhec/adapt/drift.hpp"
#include "plbhec/adapt/window.hpp"
#include "plbhec/common/rng.hpp"
#include "plbhec/common/stats.hpp"
#include "plbhec/fit/least_squares.hpp"
#include "plbhec/linalg/cholesky.hpp"
#include "plbhec/linalg/qr.hpp"

namespace plbhec::fit {
namespace {

// ---- Reference oracle -----------------------------------------------------

namespace reference {

constexpr std::size_t kGramMinSamples = 8;

// The one selection configuration, spelled out independently of the
// production constants: the paper's acceptance bar, the parsimony bar of
// the scarce-sample class walk, three candidate terms and two samples per
// parameter; the intercept and the plausibility filter are always on.
constexpr double kR2Threshold = 0.7;
constexpr double kClassR2 = 0.98;
constexpr std::size_t kMaxTerms = 3;
constexpr std::size_t kSamplesPerParam = 2;

linalg::Matrix design_matrix(const SampleSet& samples,
                             std::span<const BasisFn> terms) {
  linalg::Matrix a(samples.size(), terms.size());
  for (std::size_t r = 0; r < samples.size(); ++r)
    for (std::size_t c = 0; c < terms.size(); ++c)
      a(r, c) = eval(terms[c], samples.items()[r].x);
  return a;
}

double compute_bic(double rss, double nn, std::size_t k) {
  const double safe_rss = std::max(rss, 1e-300);
  return nn * std::log(safe_rss / nn) +
         static_cast<double>(k) * std::log(nn);
}

bool physically_plausible(const CurveModel& model, double x_lo) {
  constexpr std::size_t kGrid = 48;
  double prev = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  double worst_drop = 0.0;
  for (std::size_t i = 0; i < kGrid; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(kGrid - 1);
    const double x = x_lo + f * (1.0 - x_lo);
    const double t = model(x);
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

std::optional<FitResult> fit_terms_qr(const SampleSet& samples,
                                      std::span<const BasisFn> terms) {
  const linalg::Matrix a = design_matrix(samples, terms);
  const std::vector<double> b = samples.times();
  auto ls = linalg::least_squares(a, b);
  if (!ls) return std::nullopt;

  FitResult result;
  result.model.terms.assign(terms.begin(), terms.end());
  result.model.coefficients = ls->coefficients;
  std::vector<double> predicted(samples.size());
  for (std::size_t r = 0; r < samples.size(); ++r)
    predicted[r] = result.model(samples.items()[r].x);
  const std::vector<double> observed = samples.times();
  result.r2 = r_squared(observed, predicted);
  result.model.r2 = result.r2;
  double rss = 0.0;
  for (std::size_t r = 0; r < samples.size(); ++r) {
    const double d = observed[r] - predicted[r];
    rss += d * d;
  }
  result.bic =
      compute_bic(rss, static_cast<double>(samples.size()), terms.size());
  return result;
}

std::optional<FitResult> fit_terms_gram(const MomentSet& m, double n,
                                        std::span<const BasisFn> terms) {
  const std::size_t k = terms.size();
  linalg::Matrix g(k, k);
  std::vector<double> rhs(k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) g(i, j) = m.gram(terms[i], terms[j]);
    rhs[i] = m.xty(terms[i]);
  }
  const auto solved = linalg::solve_equilibrated_spd(g, rhs);
  if (!solved) return std::nullopt;
  const std::vector<double>& c = solved->x;

  FitResult result;
  result.model.terms.assign(terms.begin(), terms.end());
  result.model.coefficients = c;
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
  if (tss <= 1e-12 * std::max(yty, 1e-300))
    result.r2 = rss <= 1e-12 * std::max(yty, 1e-300) ? 1.0 : 0.0;
  else
    result.r2 = 1.0 - rss / tss;
  result.model.r2 = result.r2;
  result.bic = compute_bic(rss, n, k);
  return result;
}

std::optional<FitResult> fit_terms(const SampleSet& samples,
                                   std::span<const BasisFn> terms,
                                   FitEngine engine, FitCounters* counters) {
  if (terms.empty() || samples.size() < terms.size()) return std::nullopt;
  const bool try_gram =
      engine == FitEngine::kGram ||
      (engine == FitEngine::kAuto && samples.size() >= kGramMinSamples);
  if (try_gram) {
    if (auto fitted = fit_terms_gram(samples.moments(),
                                     static_cast<double>(samples.size()),
                                     terms)) {
      if (counters) ++counters->gram_solves;
      return fitted;
    }
    if (counters) ++counters->qr_fallbacks;
  }
  if (counters) ++counters->qr_solves;
  return fit_terms_qr(samples, terms);
}

std::optional<FitResult> fit_terms(const MomentSet& moments, double effective_n,
                                   std::span<const BasisFn> terms) {
  if (terms.empty() || effective_n < static_cast<double>(terms.size()))
    return std::nullopt;
  return fit_terms_gram(moments, effective_n, terms);
}

/// The subset search over `candidates` for `n` samples (the floor of the
/// mass for a drift window) with abscissae from `x_lo`; `fit` solves one
/// subset. `rejected`, when given, reports whether the plausibility filter
/// turned down the best raw fit seen, i.e. whether it shaped the result.
template <typename Fit>
FitResult select_from(std::span<const BasisFn> candidates, std::size_t n,
                      bool nonempty, double x_lo, Fit&& fit,
                      bool* rejected) {
  FitResult best_plausible;
  FitResult best_any;
  best_plausible.bic = std::numeric_limits<double>::infinity();
  best_any.bic = std::numeric_limits<double>::infinity();
  const auto report = [&](FitResult result) {
    if (rejected)
      *rejected = best_any.model.valid() &&
                  !physically_plausible(best_any.model, x_lo);
    result.acceptable = result.model.valid() && result.r2 >= kR2Threshold;
    return result;
  };
  const std::size_t m = candidates.size();
  const std::size_t limit = std::min(kMaxTerms, m);
  const std::size_t max_params =
      n < 2 ? 1 : std::max<std::size_t>(2, n / kSamplesPerParam);
  const bool hierarchical = n < 6;
  const std::size_t subsets = std::size_t{1} << m;
  std::vector<BasisFn> terms;
  for (std::size_t size_class = 1; size_class <= limit; ++size_class) {
    FitResult best_of_class;
    best_of_class.bic = std::numeric_limits<double>::infinity();
    bool class_found = false;
    for (std::size_t mask = 1; mask < subsets; ++mask) {
      const auto bits = static_cast<std::size_t>(__builtin_popcountll(mask));
      if (bits != size_class) continue;
      terms.assign(1, BasisFn::kOne);
      for (std::size_t i = 0; i < m; ++i)
        if (mask & (std::size_t{1} << i)) terms.push_back(candidates[i]);
      if (terms.size() > max_params) continue;
      auto fitted = fit(std::span<const BasisFn>(terms));
      if (!fitted) continue;
      if (fitted->bic < best_any.bic - 1e-12) best_any = *fitted;
      if (!physically_plausible(fitted->model, x_lo)) continue;
      if (fitted->bic < best_plausible.bic - 1e-12) best_plausible = *fitted;
      if (fitted->bic < best_of_class.bic - 1e-12) {
        best_of_class = *fitted;
        class_found = true;
      }
    }
    const double bar = std::max(kClassR2, kR2Threshold);
    if (hierarchical && class_found && best_of_class.r2 >= bar)
      return report(best_of_class);
  }
  FitResult best = best_plausible.model.valid() ? best_plausible : best_any;
  if (!best.model.valid() && nonempty) {
    const std::array<BasisFn, 1> constant{BasisFn::kOne};
    if (auto fitted = fit(std::span<const BasisFn>(constant))) best = *fitted;
  }
  return report(best);
}

FitResult select_model_from(const SampleSet& samples,
                            std::span<const BasisFn> candidates,
                            FitEngine engine, FitCounters* counters,
                            bool* rejected = nullptr) {
  double x_lo = 1.0;
  for (const auto& s : samples.items()) x_lo = std::min(x_lo, s.x);
  return select_from(
      candidates, samples.size(), !samples.empty(), x_lo,
      [&](std::span<const BasisFn> terms) {
        return reference::fit_terms(samples, terms, engine, counters);
      },
      rejected);
}

FitResult fit_recent(const adapt::WindowedSampleSet& window) {
  const double n_eff = window.effective_count();
  return select_from(
      paper_terms(), static_cast<std::size_t>(n_eff), window.count() > 0,
      window.x_lo(),
      [&](std::span<const BasisFn> terms) {
        return reference::fit_terms(window.moments(), n_eff, terms);
      },
      nullptr);
}

}  // namespace reference

// ---- Comparison helpers ---------------------------------------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bitwise equality of everything a selection returns.
::testing::AssertionResult identical(const FitResult& got,
                                     const FitResult& want) {
  if (got.model.terms != want.model.terms)
    return ::testing::AssertionFailure()
           << "terms differ: " << got.model.to_string() << " vs "
           << want.model.to_string();
  if (got.model.coefficients.size() != want.model.coefficients.size())
    return ::testing::AssertionFailure() << "coefficient counts differ";
  for (std::size_t i = 0; i < got.model.coefficients.size(); ++i)
    if (!same_bits(got.model.coefficients[i], want.model.coefficients[i]))
      return ::testing::AssertionFailure()
             << "coefficient " << i << ": " << got.model.coefficients[i]
             << " vs " << want.model.coefficients[i];
  if (!same_bits(got.r2, want.r2) || !same_bits(got.model.r2, want.model.r2))
    return ::testing::AssertionFailure()
           << "r2: " << got.r2 << " vs " << want.r2;
  if (!same_bits(got.bic, want.bic))
    return ::testing::AssertionFailure()
           << "bic: " << got.bic << " vs " << want.bic;
  if (got.acceptable != want.acceptable)
    return ::testing::AssertionFailure() << "acceptable differs";
  return ::testing::AssertionSuccess();
}

enum class Shape {
  kNoisyQuadratic,  ///< the bench_fit/GramQrEquivalence profile on (0, 0.9]
  kSmallX,  ///< x <= 0.05: e^x ~ 1 + x, so the e^x subsets fall back to QR
  kDecreasing,  ///< times fall with x: the physical filter rejects fits
};

SampleSet make_samples(Shape shape, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  SampleSet s;
  for (std::size_t i = 0; i < n; ++i) {
    switch (shape) {
      case Shape::kNoisyQuadratic: {
        const double x = rng.uniform(0.002, 0.9);
        s.add(x, (0.03 + 2.0 * x + 5.0 * x * x) * rng.lognormal_factor(0.05));
        break;
      }
      case Shape::kSmallX: {
        const double x = rng.uniform(0.001, 0.05);
        s.add(x, (0.01 + 0.5 * x + 40.0 * x * x) * rng.lognormal_factor(0.05));
        break;
      }
      case Shape::kDecreasing: {
        const double x = rng.uniform(0.01, 0.9);
        s.add(x, (1.0 - 0.8 * x) * rng.lognormal_factor(0.1));
        break;
      }
    }
  }
  return s;
}

std::string engine_name(FitEngine engine) {
  switch (engine) {
    case FitEngine::kAuto:
      return "Auto";
    case FitEngine::kQr:
      return "Qr";
    case FitEngine::kGram:
      return "Gram";
  }
  return "?";
}

std::string shape_name(Shape shape) {
  switch (shape) {
    case Shape::kNoisyQuadratic:
      return "NoisyQuadratic";
    case Shape::kSmallX:
      return "SmallX";
    case Shape::kDecreasing:
      return "Decreasing";
  }
  return "?";
}

// ---- Tests ----------------------------------------------------------------

TEST(SelectionIdentity, EvalAllIsBitwiseEval) {
  constexpr std::array<double, 4> kEdges{0.0, 1e-12, kMinX, 1.0};
  Rng rng(5);
  std::array<double, kBasisCount> row{};
  for (std::size_t i = 0; i < 2000; ++i) {
    const double x = i < kEdges.size() ? kEdges[i] : rng.uniform(0.0, 1.5);
    eval_all(x, row);
    for (BasisFn f : all_terms())
      EXPECT_TRUE(same_bits(row[static_cast<std::size_t>(f)], eval(f, x)))
          << name(f) << " at x=" << x;
  }
}

class SelectionIdentitySweep
    : public ::testing::TestWithParam<std::tuple<FitEngine, Shape>> {};

TEST_P(SelectionIdentitySweep, MatchesReferenceAtEverySampleCount) {
  const auto [engine, shape] = GetParam();
  FitCounters totals;
  std::size_t filter_bites = 0;
  for (std::size_t n = 1; n <= 96; ++n) {
    const SampleSet s = make_samples(
        shape, n, 7000 + 131 * n + static_cast<std::size_t>(shape));
    SelectionOptions options;
    options.engine = engine;
    FitCounters got_counters;
    FitCounters want_counters;
    bool rejected = false;
    const FitResult got = select_model(s, options, &got_counters);
    const FitResult want = reference::select_model_from(
        s, paper_terms(), engine, &want_counters, &rejected);
    EXPECT_TRUE(identical(got, want)) << "n=" << n;
    EXPECT_EQ(got_counters.gram_solves, want_counters.gram_solves);
    EXPECT_EQ(got_counters.qr_solves, want_counters.qr_solves);
    EXPECT_EQ(got_counters.qr_fallbacks, want_counters.qr_fallbacks);
    totals.merge(got_counters);
    if (rejected) ++filter_bites;
  }
  // The sets exercise what they are meant to: conditioning fallbacks where
  // the Gram path runs on clustered small x, and a filter that bites on
  // decreasing data.
  if (shape == Shape::kSmallX && engine != FitEngine::kQr) {
    EXPECT_GT(totals.qr_fallbacks, 0u);
  }
  if (shape == Shape::kDecreasing) {
    EXPECT_GT(filter_bites, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndShapes, SelectionIdentitySweep,
    ::testing::Combine(::testing::Values(FitEngine::kAuto, FitEngine::kQr,
                                         FitEngine::kGram),
                       ::testing::Values(Shape::kNoisyQuadratic, Shape::kSmallX,
                                         Shape::kDecreasing)),
    [](const auto& info) {
      return engine_name(std::get<0>(info.param)) +
             shape_name(std::get<1>(info.param));
    });

TEST(SelectionIdentity, ScarceSamplesWalkTheParsimonyClasses) {
  // Under 6 samples the reference walks the size classes one by one and
  // returns the first whose best plausible fit clears R^2 0.98; production
  // scores every subset in one walk and keeps the BIC winner. Two samples
  // per parameter leave such sets the intercept and one term, so the walk
  // only ever sees class 1 and both must return the same fit. Noisy
  // curves put class-1 fits on both sides of the bar.
  for (std::uint64_t seed = 1; seed <= 400; ++seed)
    for (std::size_t n : {3u, 4u, 5u}) {
      Rng rng(seed * 10 + n);
      SampleSet s;
      for (std::size_t i = 0; i < n; ++i) {
        const double x = rng.uniform(0.01, 0.9);
        s.add(x, (0.05 + x + 3.0 * x * x) * rng.lognormal_factor(0.15));
      }
      for (FitEngine engine : {FitEngine::kAuto, FitEngine::kGram}) {
        SelectionOptions options;
        options.engine = engine;
        const FitResult got = select_model(s, options);
        const FitResult want =
            reference::select_model_from(s, paper_terms(), engine, nullptr);
        EXPECT_TRUE(identical(got, want)) << "seed=" << seed << " n=" << n;
      }
    }
}

TEST(SelectionIdentity, WideCandidateListsWithRepeatedTerms) {
  // all_terms() includes the intercept, so selecting from it repeats kOne:
  // those subsets are singular by construction. A fit_terms path of the
  // intercept plus all_terms() has ten terms: more than the fixed-size
  // Gram storage, and singular too.
  std::vector<BasisFn> wide{BasisFn::kOne};
  wide.insert(wide.end(), all_terms().begin(), all_terms().end());
  for (FitEngine engine : {FitEngine::kAuto, FitEngine::kQr, FitEngine::kGram})
    for (std::size_t n : {1u, 3u, 5u, 9u, 17u, 40u}) {
      const SampleSet s = make_samples(Shape::kNoisyQuadratic, n, 90 + n);
      SelectionOptions options;
      options.engine = engine;
      FitCounters got_counters;
      FitCounters want_counters;
      const FitResult got =
          select_model_from(s, all_terms(), options, &got_counters);
      const FitResult want = reference::select_model_from(
          s, all_terms(), engine, &want_counters);
      EXPECT_TRUE(identical(got, want))
          << engine_name(engine) << " n=" << n;
      const auto got_path = fit_terms(s, wide, engine, &got_counters);
      const auto want_path =
          reference::fit_terms(s, wide, engine, &want_counters);
      ASSERT_EQ(got_path.has_value(), want_path.has_value())
          << engine_name(engine) << " n=" << n;
      if (got_path) {
        EXPECT_TRUE(identical(*got_path, *want_path))
            << engine_name(engine) << " n=" << n;
      }
      EXPECT_EQ(got_counters.qr_fallbacks, want_counters.qr_fallbacks);
      EXPECT_EQ(got_counters.qr_solves, want_counters.qr_solves);
    }
}

/// True when the unit-diagonal sub-Gram of `terms`, formed as the
/// equilibrated solve forms it, has a Cholesky pivot <= 0.
bool pivot_fails(const MomentSet& m, std::span<const BasisFn> terms) {
  const std::size_t k = terms.size();
  std::vector<double> d(k);
  for (std::size_t i = 0; i < k; ++i) {
    const double gii = m.gram(terms[i], terms[i]);
    if (!(gii > 0.0)) return false;  // rejected before factoring
    d[i] = 1.0 / std::sqrt(gii);
  }
  linalg::Matrix gs(k, k);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j)
      gs(i, j) = m.gram(terms[i], terms[j]) * d[i] * d[j];
  return !linalg::Cholesky::factor(gs).has_value();
}

TEST(SelectionIdentity, PrefixTreeMatchesReferenceWhereverPrefixesAreShared) {
  // The selection scores its subsets as a prefix tree over the intercept
  // and the candidates in their given order, sharing each prefix's
  // Cholesky rows and Householder steps. Sweep what decides the sharing:
  // permutations and subsets of all_terms(), every engine, and n on both
  // sides of the 8-sample cutover and at ~300. Small-x data makes a prefix
  // pass the Gram gate while its e^x extension fails; lists that repeat a
  // term (x^2 twice, or the intercept again) make a Cholesky pivot fail
  // mid-path, which sends the prefix's whole subtree to QR.
  using B = BasisFn;
  const std::vector<std::vector<BasisFn>> lists = {
      {B::kXLnX, B::kX3, B::kLnX, B::kX, B::kXExpX, B::kX2, B::kExpX},
      {B::kX2, B::kX3, B::kExpX, B::kXExpX, B::kOne, B::kLnX, B::kX,
       B::kXLnX},
      {B::kExpX, B::kX, B::kXExpX},
      {B::kX, B::kX2, B::kLnX, B::kX2},
      {B::kX3, B::kOne, B::kXExpX, B::kX},
      {B::kLnX},
  };
  FitCounters totals;
  std::size_t mid_path_pivot_failures = 0;
  std::size_t cases = 0;
  for (Shape shape : {Shape::kNoisyQuadratic, Shape::kSmallX})
    for (std::size_t n : {3u, 5u, 7u, 8u, 9u, 24u, 300u}) {
      const SampleSet s =
          make_samples(shape, n, 500 + n + static_cast<std::size_t>(shape));
      for (std::size_t l = 0; l < lists.size(); ++l) {
        // The n ~ 300 sets run on the two longest lists only.
        if (n == 300 && l > 1) continue;
        const std::vector<BasisFn>& list = lists[l];
        // The full path of a repeated-term list: does its Gram
        // factorization stop at a pivot?
        std::vector<BasisFn> path{BasisFn::kOne};
        path.insert(path.end(), list.begin(), list.end());
        if (path.size() <= kBasisCount + 1 && pivot_fails(s.moments(), path))
          ++mid_path_pivot_failures;
        for (FitEngine engine :
             {FitEngine::kAuto, FitEngine::kQr, FitEngine::kGram}) {
          SelectionOptions options;
          options.engine = engine;
          FitCounters got_counters;
          FitCounters want_counters;
          const FitResult got =
              select_model_from(s, list, options, &got_counters);
          const FitResult want =
              reference::select_model_from(s, list, engine, &want_counters);
          ++cases;
          ASSERT_TRUE(identical(got, want))
              << shape_name(shape) << " n=" << n << " list=" << l
              << " engine=" << engine_name(engine);
          ASSERT_EQ(got_counters.gram_solves, want_counters.gram_solves);
          ASSERT_EQ(got_counters.qr_solves, want_counters.qr_solves);
          ASSERT_EQ(got_counters.qr_fallbacks, want_counters.qr_fallbacks);
          totals.merge(got_counters);
        }
      }
    }
  EXPECT_GT(cases, 0u);
  EXPECT_GT(totals.qr_fallbacks, 0u);
  EXPECT_GT(mid_path_pivot_failures, 0u);
}

TEST(SelectionIdentity, FitTermsMatchesReference) {
  const SampleSet s = make_samples(Shape::kSmallX, 24, 3);
  for (FitEngine engine :
       {FitEngine::kAuto, FitEngine::kQr, FitEngine::kGram}) {
    const std::vector<BasisFn> terms{BasisFn::kOne, BasisFn::kX,
                                     BasisFn::kExpX};
    const auto got = fit_terms(s, terms, engine);
    const auto want = reference::fit_terms(s, terms, engine, nullptr);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got) {
      EXPECT_TRUE(identical(*got, *want));
    }
  }
}

TEST(SelectionIdentity, DriftWindowSelectionMatchesReference) {
  Rng rng(77);
  for (int mode = 0; mode < 2; ++mode) {
    adapt::WindowConfig config;
    config.lambda = mode == 0 ? 0.9 : 1.0;
    adapt::WindowedSampleSet window(config);
    for (int i = 0; i <= 40; ++i) {
      EXPECT_TRUE(identical(adapt::fit_recent(window),
                            reference::fit_recent(window)))
          << "mode=" << mode << " samples=" << i;
      // A throttle step halfway through makes late windows decrease-prone.
      const double x = rng.uniform(0.01, 0.6);
      const double scale = i < 20 ? 1.0 : 0.4;
      window.add(x, scale * (0.02 + 1.5 * x) * rng.lognormal_factor(0.05));
    }
  }
}

}  // namespace
}  // namespace plbhec::fit
