#include "plbhec/fit/least_squares.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "plbhec/common/stats.hpp"
#include "plbhec/linalg/cholesky.hpp"
#include "plbhec/linalg/qr.hpp"

namespace plbhec::fit {
namespace {

/// The selection configuration (§III-B). The intercept (launch and
/// queueing overhead) is always fitted, together with at most kMaxTerms
/// candidate terms: the paper's Eq. (1) allows any combination, and three
/// keeps a selection to O(60) fits and off the overfitting the few early
/// probe points invite. A subset needs kSamplesPerParam samples per fitted
/// parameter, so 4 probe points support 2 parameters instead of an
/// interpolating fit (R^2 = 1) whose extrapolation is meaningless.
constexpr std::size_t kMaxTerms = 3;
constexpr std::size_t kSamplesPerParam = 2;

/// kAuto cutover: below this many samples fits run on QR, the historical
/// numerical reference (exact fits on 2-5 points are where normal-equation
/// cancellation would perturb the BIC tie-breaking); at and above it on the
/// moment solve, which agrees with QR to ~1e-9. The cutover stays for bit
/// identity, not speed: with the prefix-shared QR, a QR selection at 8
/// samples is as fast as a Gram one or faster.
constexpr std::size_t kGramMinSamples = 8;

/// Points of the physical-plausibility grid on [x_lo, 1].
constexpr std::size_t kPlausibilityGrid = 48;

/// Largest term subset a selection or fit_terms() scores: fewer than 20
/// candidate functions plus the intercept.
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

/// Quality of one scored subset; its coefficients live in a ScoreTable.
struct SubsetScore {
  double r2 = 0.0;
  double bic = 0.0;
};

/// kBinomial[p][j] = C(p, j), for the colex ranks of candidate masks.
constexpr auto kBinomial = [] {
  std::array<std::array<std::size_t, kMaxSubsetTerms + 1>, kMaxSubsetTerms + 1>
      c{};
  for (std::size_t p = 0; p <= kMaxSubsetTerms; ++p) {
    c[p][0] = 1;
    for (std::size_t j = 1; j <= p; ++j)
      c[p][j] = c[p - 1][j - 1] + c[p - 1][j];
  }
  return c;
}();

/// Scores of every subset in a range of size classes, slot-ordered as
/// select_subsets() reads them: by class, then by candidate mask ascending.
/// Within a class that order is the masks' colex rank, sum_j C(c_j, j) over
/// the ascending set bits c_1 < c_2 < ...
class ScoreTable {
 public:
  /// Empty slots for the classes lo..hi of `m` candidates, each with room
  /// for `width` coefficients.
  void reset(std::size_t m, std::size_t lo, std::size_t hi, std::size_t width) {
    PLBHEC_EXPECTS(m <= kMaxSubsetTerms && lo <= hi && hi <= m);
    lo_ = lo;
    width_ = width;
    std::size_t slots = 0;
    for (std::size_t s = lo; s <= hi; ++s) {
      offset_[s - lo] = slots;
      slots += kBinomial[m][s];
    }
    scores_.assign(slots, std::nullopt);
    coefficients_.resize(slots * width);
  }

  [[nodiscard]] std::size_t slot(std::size_t size_class,
                                 std::size_t rank) const {
    return offset_[size_class - lo_] + rank;
  }
  [[nodiscard]] std::optional<SubsetScore>& score(std::size_t slot) {
    return scores_[slot];
  }
  [[nodiscard]] std::span<double> coefficients(std::size_t slot,
                                               std::size_t k) {
    PLBHEC_EXPECTS(k <= width_);
    return std::span<double>(coefficients_).subspan(slot * width_, k);
  }

 private:
  std::size_t lo_ = 0;
  std::size_t width_ = 0;
  std::array<std::size_t, kMaxSubsetTerms + 1> offset_{};
  std::vector<std::optional<SubsetScore>> scores_;
  std::vector<double> coefficients_;
};

/// What subsets are fitted from: a sample set (the Gram solve from its
/// moments when `try_gram`, with the design-matrix QR path behind it) or a
/// drift window's bare moments (the Gram solve only, samples == nullptr).
/// `mass` is the sample count, or the effective mass of discounted moments.
struct FitSource {
  const MomentSet* moments = nullptr;
  const SampleSet* samples = nullptr;
  double mass = 0.0;
  bool try_gram = true;
  FitCounters* counters = nullptr;
};

FitSource sample_source(const SampleSet& samples, FitEngine engine,
                        FitCounters* counters) {
  FitSource source;
  source.moments = &samples.moments();
  source.samples = &samples;
  source.mass = static_cast<double>(samples.size());
  source.try_gram = engine == FitEngine::kGram ||
                    (engine == FitEngine::kAuto &&
                     samples.size() >= kGramMinSamples);
  source.counters = counters;
  return source;
}

/// Scores term subsets as a prefix tree. A subset is the `fixed` leading
/// items (the intercept, or a fit_terms path) followed by candidate items
/// in ascending order, and the walk appends one item per level, so every
/// subset extending a prefix inherits the prefix's work bit for bit:
///  - Gram: row i of the Cholesky factor and entry i of the forward
///    substitution depend on the leading (i+1) x (i+1) block alone, so a
///    prefix computes them once from a per-scorer equilibrated table
///    gs[a][b] = (G[a][b] d_a) d_b, the products the per-subset solve
///    formed. A failed pivot fails every extension, whose subtree goes to
///    QR. Each subset finishes with its own rcond gate, back substitution,
///    refinement step and RSS quadratic form.
///  - QR: columns are equilibrated one by one, so a Householder step on a
///    given ordered prefix of columns gives the same bits in every subset
///    that starts with it. Level p holds the right-hand side and the
///    candidate columns after the path's first p reflections; position p's
///    column is reflected in place at level p (no sibling reads it again),
///    where it stays as R's column and the reflector. Levels are built only
///    under a subset that needs QR (below 8 samples, or a Gram fallback).
/// The arithmetic is linalg's cholesky_row/finish_equilibrated_spd and
/// householder_reflector/householder_apply, in the per-subset solves'
/// operation order, so scores, coefficients and counters match a solve of
/// each subset from scratch.
class SubsetScorer {
 public:
  /// Scores subsets of `items` (at most kMaxSubsetTerms) whose first
  /// `fixed` items are always present and which hold at most `max_depth`
  /// terms; the bound also sizes the QR workspace.
  SubsetScorer(const FitSource& source, std::span<const BasisFn> items,
               std::size_t fixed, std::size_t max_depth)
      : src_(source),
        items_(items),
        fixed_(fixed),
        max_depth_(std::min(max_depth, items.size())) {
    PLBHEC_EXPECTS(items.size() <= kMaxSubsetTerms && fixed <= items.size());
    if (src_.try_gram) build_gram_table();
  }

  /// Scores the subsets with lo..hi candidates into `table` (reset for
  /// those classes or more); a subset with more terms than samples is left
  /// unscored, as is one no path can fit. A scorer walks once: the walk
  /// reflects columns in place.
  void score(std::size_t lo, std::size_t hi, ScoreTable& table) {
    PLBHEC_EXPECTS(table_ == nullptr);
    table_ = &table;
    lo_ = lo;
    hi_ = hi;
    if (fixed_ > max_depth_ || src_.mass < static_cast<double>(fixed_))
      return;
    for (std::size_t p = 0; p < fixed_; ++p) push(p, p);
    visit(fixed_, 0, 0, 0);
  }

 private:
  /// QR state after `p` reflections of the current path, each part built
  /// on first use.
  struct Level {
    std::span<double> cols;  ///< columns of items first.., stepped p times
    std::span<double> b;     ///< right-hand side, stepped p times
    std::size_t first = 0;   ///< first item `cols` has room for
    std::uint32_t cols_ok = 0;  ///< bit a: item a's column is current
    bool b_ok = false;
    linalg::Reflector h;  ///< reflector of path position p, in its column
    bool h_ok = false;
  };

  [[nodiscard]] std::size_t item_count() const { return items_.size(); }
  [[nodiscard]] std::size_t basis(std::size_t item) const {
    return static_cast<std::size_t>(items_[item]);
  }
  [[nodiscard]] double gs(std::size_t a, std::size_t b) const {
    return gs_[a * kMaxSubsetTerms + b];
  }

  /// Depth-first walk: the node holds `k` items, `chosen` of them
  /// candidates with colex rank `rank`, and may extend with candidates from
  /// `next` on.
  void visit(std::size_t k, std::size_t next, std::size_t chosen,
             std::size_t rank) {
    if (chosen >= lo_ && k > 0) {
      const std::size_t slot = table_->slot(chosen, rank);
      table_->score(slot) = score_node(k, table_->coefficients(slot, k));
    }
    if (chosen == hi_ || k + 1 > max_depth_ ||
        src_.mass < static_cast<double>(k + 1))
      return;
    for (std::size_t c = next; fixed_ + c < item_count(); ++c) {
      push(k, fixed_ + c);
      visit(k + 1, c + 1, chosen + 1, rank + kBinomial[c][chosen + 1]);
    }
  }

  /// Puts `item` at path position `pos`: its Cholesky row and forward
  /// entry when the prefix's Gram solve still stands, and the QR levels
  /// that depended on the previous item there become stale.
  void push(std::size_t pos, std::size_t item) {
    path_[pos] = item;
    levels_[pos].h_ok = false;
    levels_[pos + 1].cols_ok = 0;
    levels_[pos + 1].b_ok = false;
    levels_[pos + 1].first = item + 1;
    if (!src_.try_gram) return;
    gram_rows_ = std::min(gram_rows_, pos);
    // More terms than basis functions repeat one: a singular sub-Gram.
    if (gram_rows_ < pos || pos >= kBasisCount || !gram_ok_[item]) return;
    std::array<double, kBasisCount> row{};
    for (std::size_t j = 0; j <= pos; ++j) row[j] = gs(item, path_[j]);
    if (!linalg::cholesky_row(std::span(row).first(pos + 1), l_, kBasisCount,
                              pos))
      return;
    fwd_[pos] = linalg::forward_entry(l_, kBasisCount, pos, bs_[item], fwd_);
    gram_rows_ = pos + 1;
  }

  /// The subset on the first `k` path positions, Gram first when allowed.
  std::optional<SubsetScore> score_node(std::size_t k, std::span<double> c) {
    if (src_.try_gram) {
      if (gram_rows_ == k) {
        if (auto score = score_gram(k, c)) {
          if (src_.counters) ++src_.counters->gram_solves;
          return score;
        }
      }
      if (src_.samples == nullptr) return std::nullopt;
      if (src_.counters) ++src_.counters->qr_fallbacks;
    }
    if (src_.counters) ++src_.counters->qr_solves;
    return score_qr(k, c);
  }

  /// The d_a scaling, scaled right-hand side and equilibrated table of
  /// every item pair, once per scorer.
  void build_gram_table() {
    const MomentSet& m = *src_.moments;
    for (std::size_t a = 0; a < item_count(); ++a) {
      const double gaa = m.gram(items_[a], items_[a]);
      gram_ok_[a] = gaa > 0.0 && std::isfinite(gaa);
      if (gram_ok_[a]) d_[a] = 1.0 / std::sqrt(gaa);
    }
    for (std::size_t a = 0; a < item_count(); ++a) {
      if (!gram_ok_[a]) continue;
      bs_[a] = m.xty(items_[a]) * d_[a];
      for (std::size_t b = 0; b < item_count(); ++b)
        if (gram_ok_[b])
          gs_[a * kMaxSubsetTerms + b] =
              m.gram(items_[a], items_[b]) * d_[a] * d_[b];
    }
    const double yty = m.yty();
    gram_tss_ = yty - m.sum_y() * m.sum_y() / src_.mass;
  }

  /// Gram leaf: completes the solve from the path's rows, then recovers
  /// RSS/R^2/BIC from the moments. Returns nullopt when the equilibrated
  /// sub-Gram is too ill-conditioned to certify ~1e-9 agreement with QR.
  std::optional<SubsetScore> score_gram(std::size_t k, std::span<double> c) {
    std::array<double, kBasisCount * kBasisCount> gs_sub{};
    std::array<double, kBasisCount> d{};
    std::array<double, kBasisCount> bs{};
    std::array<double, kBasisCount> r{};
    for (std::size_t i = 0; i < k; ++i) {
      d[i] = d_[path_[i]];
      bs[i] = bs_[path_[i]];
      c[i] = fwd_[i];
      for (std::size_t j = 0; j < k; ++j)
        gs_sub[i * kBasisCount + j] = gs(path_[i], path_[j]);
    }
    if (!linalg::finish_equilibrated_spd(gs_sub, l_, kBasisCount, k, d, bs, c,
                                         r))
      return std::nullopt;

    // RSS via the quadratic form ||y - Xc||^2 = y'y - 2 c'X'y + c'G c.
    const MomentSet& m = *src_.moments;
    double ctb = 0.0;
    double ctgc = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const BasisFn ti = items_[path_[i]];
      ctb += c[i] * m.xty(ti);
      double gc = 0.0;
      for (std::size_t j = 0; j < k; ++j)
        gc += m.gram(ti, items_[path_[j]]) * c[j];
      ctgc += c[i] * gc;
    }
    const double yty = m.yty();
    const double rss = std::max(yty - 2.0 * ctb + ctgc, 0.0);

    SubsetScore score;
    // Mirror r_squared()'s constant-observation edge case, with a relative
    // floor standing in for its exact ss_tot == 0 test (the moment-space
    // TSS carries cancellation noise of order eps * y'y).
    if (gram_tss_ <= 1e-12 * std::max(yty, 1e-300))
      score.r2 = rss <= 1e-12 * std::max(yty, 1e-300) ? 1.0 : 0.0;
    else
      score.r2 = 1.0 - rss / gram_tss_;
    score.bic = compute_bic(rss, src_.mass, k);
    return score;
  }

  /// QR leaf: back substitution on the path's R columns and right-hand
  /// side, then R^2 and BIC on the raw samples.
  std::optional<SubsetScore> score_qr(std::size_t k, std::span<double> c) {
    if (work_.empty()) allocate();
    bool any_nonzero = false;
    std::array<std::span<const double>, kMaxSubsetTerms> r_cols;
    std::array<std::span<const double>, kMaxSubsetTerms> raw_cols;
    for (std::size_t j = 0; j < k; ++j) {
      reflector(j);
      r_cols[j] = column(j, path_[j]);
      raw_cols[j] = raw_.subspan(path_[j] * n_, n_);
      any_nonzero = any_nonzero || nonzero_[path_[j]];
    }
    if (!any_nonzero) return std::nullopt;  // every column zero

    // Q^T b on the first k rows: the right-hand side after k - 1
    // reflections already holds rows 0..k-2, and the last reflection
    // changes row k - 1 by its coefficient alone.
    const std::span<const double> b = rhs(k - 1);
    std::array<double, kMaxSubsetTerms> y{};
    std::copy(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(k), y.begin());
    const Level& last = levels_[k - 1];
    if (last.h.beta != 0.0)
      y[k - 1] -= linalg::householder_coefficient(r_cols[k - 1], last.h.beta,
                                                  k - 1, b);
    const std::span<const std::span<const double>> r(r_cols.data(), k);
    linalg::back_substitute(r, std::span(y).first(k), c,
                            linalg::rank_threshold(r));
    for (std::size_t j = 0; j < k; ++j) c[j] *= scale_[path_[j]];

    // sum_j c[j] * phi_j(x), accumulated in term order: bitwise what
    // CurveModel::operator() returns, and r_squared()'s ss_res.
    double rss = 0.0;
    for (std::size_t row = 0; row < n_; ++row) {
      double predicted = 0.0;
      for (std::size_t j = 0; j < k; ++j) predicted += c[j] * raw_cols[j][row];
      const double d = observed_[row] - predicted;
      rss += d * d;
    }
    SubsetScore score;
    if (qr_tss_ == 0.0)
      score.r2 = rss == 0.0 ? 1.0 : 0.0;
    else
      score.r2 = 1.0 - rss / qr_tss_;
    score.bic = compute_bic(rss, src_.mass, k);
    return score;
  }

  /// Storage of `item`'s column at level `p`.
  [[nodiscard]] std::span<double> column(std::size_t p, std::size_t item) {
    const Level& level = levels_[p];
    PLBHEC_EXPECTS(item >= level.first);
    return level.cols.subspan((item - level.first) * n_, n_);
  }

  /// `item`'s column after the path's first `p` reflections (level 0: the
  /// equilibrated design column).
  std::span<double> stepped(std::size_t p, std::size_t item) {
    Level& level = levels_[p];
    const std::span<double> dst = column(p, item);
    const std::uint32_t bit = std::uint32_t{1} << item;
    if (level.cols_ok & bit) return dst;
    if (p == 0) {
      build_base();
      return dst;
    }
    const linalg::Reflector h = reflector(p - 1);
    const std::span<const double> src = stepped(p - 1, item);
    if (h.reflects)
      linalg::householder_apply(column(p - 1, path_[p - 1]), h.beta, p - 1,
                                src, dst);
    else
      std::copy(src.begin(), src.end(), dst.begin());
    level.cols_ok |= bit;
    return dst;
  }

  /// Reflector of path position `p`, computed in place in its column at
  /// level p; no sibling at p reads that column again.
  linalg::Reflector reflector(std::size_t p) {
    Level& level = levels_[p];
    if (!level.h_ok) {
      level.h = linalg::householder_reflector(stepped(p, path_[p]), p);
      level.h_ok = true;
    }
    return level.h;
  }

  /// The right-hand side after the path's first `p` reflections.
  std::span<const double> rhs(std::size_t p) {
    Level& level = levels_[p];
    if (level.b_ok) return level.b;
    if (p == 0) {
      build_base();
      return level.b;
    }
    const linalg::Reflector h = reflector(p - 1);
    const std::span<const double> src = rhs(p - 1);
    if (h.beta != 0.0)
      linalg::householder_apply(column(p - 1, path_[p - 1]), h.beta, p - 1,
                                src, level.b);
    else
      std::copy(src.begin(), src.end(), level.b.begin());
    level.b_ok = true;
    return level.b;
  }

  /// Level 0 from the samples: every item's design column, equilibrated,
  /// and the observed times as the right-hand side.
  void build_base() {
    Level& level = levels_[0];
    std::copy(observed_.begin(), observed_.end(), level.b.begin());
    std::copy(raw_.begin(), raw_.end(), level.cols.begin());
    for (std::size_t a = 0; a < item_count(); ++a) {
      const std::span<double> col = column(0, a);
      scale_[a] = linalg::equilibrate_column(col);
      double max_abs = 0.0;
      for (const double v : col) max_abs = std::max(max_abs, std::fabs(v));
      nonzero_[a] = max_abs != 0.0;
    }
    level.cols_ok = (std::uint32_t{1} << item_count()) - 1;
    level.b_ok = true;
  }

  /// The one workspace of a scorer, sized to the walk on its first QR
  /// leaf: the raw basis column of every item and the observed times, then
  /// per level p the columns that can still follow (all items at level 0,
  /// at most items - p deeper, none at the last level) and the right-hand
  /// side.
  void allocate() {
    PLBHEC_EXPECTS(src_.samples != nullptr);
    const auto& samples = src_.samples->items();
    n_ = samples.size();
    const std::size_t depth = std::min(max_depth_, n_);
    const std::size_t items = item_count();
    std::array<std::size_t, kMaxSubsetTerms + 1> cols{};
    std::size_t total = (items + 1) * n_;
    for (std::size_t p = 0; p <= depth; ++p) {
      cols[p] = p == depth ? 0 : items - p;
      total += (cols[p] + 1) * n_;
    }
    work_.resize(total);

    std::span<double> rest(work_);
    const auto take = [&](std::size_t count) {
      const std::span<double> out = rest.first(count);
      rest = rest.subspan(count);
      return out;
    };
    raw_ = take(items * n_);
    observed_ = take(n_);
    for (std::size_t p = 0; p <= depth; ++p) {
      levels_[p].cols = take(cols[p] * n_);
      levels_[p].b = take(n_);
    }

    std::array<double, kBasisCount> phi{};
    for (std::size_t row = 0; row < n_; ++row) {
      eval_all(samples[row].x, phi);
      for (std::size_t a = 0; a < items; ++a)
        raw_[a * n_ + row] = phi[basis(a)];
      observed_[row] = samples[row].time;
    }
    // r_squared()'s mean and total sum of squares, once per scorer.
    const double ybar = mean(observed_);
    qr_tss_ = 0.0;
    for (const double y : observed_) {
      const double t = y - ybar;
      qr_tss_ += t * t;
    }
  }

  FitSource src_;
  std::span<const BasisFn> items_;
  std::size_t fixed_;
  std::size_t max_depth_;

  // The walk in progress.
  ScoreTable* table_ = nullptr;
  std::size_t lo_ = 0;
  std::size_t hi_ = 0;
  std::array<std::size_t, kMaxSubsetTerms> path_{};  ///< item per position

  // Gram: per-item tables, then the path's factor rows and forward entries.
  std::array<bool, kMaxSubsetTerms> gram_ok_{};
  std::array<double, kMaxSubsetTerms> d_{};
  std::array<double, kMaxSubsetTerms> bs_{};
  std::array<double, kMaxSubsetTerms * kMaxSubsetTerms> gs_{};
  double gram_tss_ = 0.0;
  std::array<double, kBasisCount * kBasisCount> l_{};
  std::array<double, kBasisCount> fwd_{};
  std::size_t gram_rows_ = 0;  ///< leading positions whose rows stand

  // QR: the workspace and its views.
  std::vector<double> work_;
  std::size_t n_ = 0;
  std::span<double> raw_;
  std::span<double> observed_;
  double qr_tss_ = 0.0;
  std::array<double, kMaxSubsetTerms> scale_{};
  std::array<bool, kMaxSubsetTerms> nonzero_{};
  std::array<Level, kMaxSubsetTerms + 1> levels_{};
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
  [[nodiscard]] FitResult result() const {
    FitResult out;
    out.model.terms.assign(terms.begin(), terms.begin() + k);
    out.model.coefficients.assign(coefficients.begin(),
                                  coefficients.begin() + k);
    out.model.r2 = r2;
    out.r2 = r2;
    out.bic = bic;
    out.acceptable = valid() && r2 >= kR2Threshold;
    return out;
  }
};

/// The subset search shared by every selection path. `source` supplies
/// the fits; `n` is the sample count behind the DoF guard, `nonempty`
/// gates the intercept-only fallback and `x_lo` is the plausibility grid's
/// lower edge.
///
/// Every subset is scored into a table first; the rule below then reads
/// the table in the enumeration order (by size class, then by candidate
/// mask), because BIC ties at the margin depend on order.
///
/// Plausibility is checked lazily: only a candidate whose BIC beats
/// best_plausible by the tie margin can change it, so no other candidate
/// needs the 48-point curve check.
FitResult select_subsets(std::span<const BasisFn> candidate_terms,
                         std::size_t n, bool nonempty, double x_lo,
                         const FitSource& source) {
  Candidate best_plausible;
  Candidate best_any;

  const std::size_t m = candidate_terms.size();
  const std::size_t limit = std::min(kMaxTerms, m);

  // Degrees-of-freedom guard: an interpolating fit (params == samples) has
  // R^2 = 1 by construction and garbage extrapolation. Exception: with two
  // samples an exact line is still allowed — slope information is vital
  // for the block selection (a flat model hands the unit an arbitrary
  // share) and a 2-point line through a monotone curve extrapolates sanely.
  // Under 6 samples the guard admits the intercept and one term: extra
  // terms cut residuals on a handful of probe points almost for free but
  // wreck the extrapolation the block selection relies on.
  const std::size_t max_params =
      n < 2 ? 1 : std::max<std::size_t>(2, n / kSamplesPerParam);

  PLBHEC_EXPECTS(m < kMaxSubsetTerms);
  const std::size_t subsets = std::size_t{1} << m;
  std::array<BasisFn, kMaxSubsetTerms> items{};
  items[0] = BasisFn::kOne;
  std::copy(candidate_terms.begin(), candidate_terms.end(), items.begin() + 1);
  SubsetScorer scorer(source, std::span(items).first(1 + m), 1,
                      std::min(1 + limit, max_params));
  ScoreTable table;
  if (limit > 0) {
    table.reset(m, 1, limit, 1 + limit);
    scorer.score(1, limit, table);
  }
  PlausibilityGrid grid(x_lo);
  Candidate current;
  for (std::size_t size_class = 1; size_class <= limit; ++size_class) {
    std::size_t rank = 0;
    for (std::size_t mask = 1; mask < subsets; ++mask) {
      const auto bits = static_cast<std::size_t>(__builtin_popcountll(mask));
      if (bits != size_class) continue;
      const std::size_t slot = table.slot(size_class, rank++);
      const std::optional<SubsetScore>& score = table.score(slot);
      if (!score) continue;  // over the DoF guard, or not fittable
      current.k = 0;
      current.terms[current.k++] = BasisFn::kOne;
      for (std::size_t i = 0; i < m; ++i)
        if (mask & (std::size_t{1} << i))
          current.terms[current.k++] = candidate_terms[i];
      const std::span<const double> c = table.coefficients(slot, current.k);
      std::copy(c.begin(), c.end(), current.coefficients.begin());
      current.r2 = score->r2;
      current.bic = score->bic;

      if (current.bic < best_any.bic - kBicMargin) best_any = current;
      if (current.bic < best_plausible.bic - kBicMargin &&
          grid.plausible(current.term_span(), current.coefficient_span()))
        best_plausible = current;
    }
  }

  Candidate best =
      best_plausible.valid()
          ? best_plausible
          : best_any;  // all candidates unphysical: keep the best raw fit

  // Intercept-only fallback when nothing else was fittable (e.g. a single
  // sample): model the unit as a constant.
  if (!best.valid() && nonempty) {
    const std::array<BasisFn, 1> one{BasisFn::kOne};
    SubsetScorer constant(source, one, 1, 1);
    table.reset(0, 0, 0, 1);
    constant.score(0, 0, table);
    if (const std::optional<SubsetScore>& score = table.score(0)) {
      current.k = 1;
      current.terms[0] = BasisFn::kOne;
      current.coefficients[0] = table.coefficients(0, 1)[0];
      current.r2 = score->r2;
      current.bic = score->bic;
      best = current;
    }
  }
  return best.result();
}

/// The single subset `terms`, in its given order, as a one-path walk.
std::optional<FitResult> fit_path(const FitSource& source,
                                  std::span<const BasisFn> terms) {
  if (terms.empty()) return std::nullopt;
  const std::size_t k = terms.size();
  SubsetScorer scorer(source, terms, k, k);
  ScoreTable table;
  table.reset(0, 0, 0, k);
  scorer.score(0, 0, table);
  const std::optional<SubsetScore>& score = table.score(0);
  if (!score) return std::nullopt;
  FitResult result;
  const std::span<const double> c = table.coefficients(0, k);
  result.model.terms.assign(terms.begin(), terms.end());
  result.model.coefficients.assign(c.begin(), c.end());
  result.model.r2 = score->r2;
  result.r2 = score->r2;
  result.bic = score->bic;
  return result;
}

}  // namespace

std::optional<FitResult> fit_terms(const SampleSet& samples,
                                   std::span<const BasisFn> terms,
                                   FitEngine engine, FitCounters* counters) {
  return fit_path(sample_source(samples, engine, counters), terms);
}

FitResult select_model_from(const SampleSet& samples,
                            std::span<const BasisFn> candidate_terms,
                            const SelectionOptions& options,
                            FitCounters* counters) {
  double x_lo = 1.0;
  for (const auto& s : samples.items()) x_lo = std::min(x_lo, s.x);
  return select_subsets(candidate_terms, samples.size(), !samples.empty(),
                        x_lo, sample_source(samples, options.engine, counters));
}

FitResult select_model(const SampleSet& samples,
                       const SelectionOptions& options,
                       FitCounters* counters) {
  return select_model_from(samples, paper_terms(), options, counters);
}

FitResult select_model(const MomentSet& moments, double effective_n,
                       double x_lo) {
  FitSource source;
  source.moments = &moments;
  source.mass = effective_n;
  return select_subsets(paper_terms(), static_cast<std::size_t>(effective_n),
                        effective_n > 0.0, x_lo, source);
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
