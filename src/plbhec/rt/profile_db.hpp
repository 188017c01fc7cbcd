#pragma once
/// \file profile_db.hpp
/// Per-unit profiling database: accumulates (block fraction, time) samples
/// for execution and transfer, and fits the paper's performance models on
/// demand. Shared by PLB-HeC and HDSS.
///
/// Fitting pipeline: every recorded sample bumps a per-unit version
/// counter, and each unit caches its latest fit keyed on that version — so
/// the acceptance sweep in `maybe_finish_modeling` and the immediately
/// following `fit_and_select` share one fit per unit, and units that
/// received no new samples between two selections are never refit.
/// `fit_all` fans the per-unit model selection out across the
/// process-wide thread pool, one unit per chunk.

#include <cstdint>
#include <vector>

#include "plbhec/fit/least_squares.hpp"
#include "plbhec/fit/samples.hpp"
#include "plbhec/rt/types.hpp"

namespace plbhec::rt {

/// A processing unit's profile as one run hands it to another: the exec
/// and transfer samples, with x relative to `total_grains`, and the model
/// selection over the exec samples. The samples are the whole state; the
/// moments inside each SampleSet are their add() replay, and `fit` is
/// select_model over `exec` (the default SelectionOptions for a stored
/// profile), so the producer computes it once and a bit-exact seed serves
/// it as the unit's first fit.
struct SampledProfile {
  fit::SampleSet exec;
  fit::SampleSet transfer;
  double total_grains = 0.0;  ///< grain denominator of the sample x-values
  fit::FitResult fit;         ///< selection over `exec`

  friend bool operator==(const SampledProfile&,
                         const SampledProfile&) = default;
};

/// Warm-start profile for one processing unit: a stored entry from the
/// service layer's ProfileStore, or a job's own observations at an epoch
/// restart. With a matching grain total ProfileDb::seed copies the sample
/// sets and installs `fit`; otherwise it replays the samples with x
/// rescaled to the new run's total.
struct WarmProfile : SampledProfile {
  /// Staleness of the stored entry, in store writes: how many profiles the
  /// store has persisted (across all keys) since this one was last
  /// refreshed. 0 = just written (or an in-run profile). The scheduler's
  /// warm-start validation bound tightens with this.
  std::uint64_t age = 0;

  [[nodiscard]] bool usable() const {
    return !exec.empty() && total_grains > 0.0;
  }
};

/// Aggregate fit-pipeline statistics: cache effectiveness and which
/// numerical path the subset solves took.
struct FitStats {
  std::size_t fits_computed = 0;  ///< exec-curve model selections solved
  std::size_t fits_cached = 0;    ///< selections served from the cache
  std::size_t gram_solves = 0;    ///< subset fits via cached moments
  std::size_t qr_solves = 0;      ///< subset fits via design-matrix QR
  std::size_t qr_fallbacks = 0;   ///< Gram-path conditioning bailouts
};

class ProfileDb {
 public:
  ProfileDb() = default;
  ProfileDb(std::size_t units, std::size_t total_grains,
            fit::SelectionOptions options = {});

  /// Empties every unit and sets the selection options its fits run with.
  void reset(std::size_t units, std::size_t total_grains,
             fit::SelectionOptions options = {});

  /// Records a completed task's profile (bumps the unit's sample version,
  /// invalidating its cached fit). A task holds at most the run's total
  /// grains, so its block fraction lies in (0, 1]; a zero-grain task
  /// records nothing.
  void record(const TaskObservation& obs);

  /// Seeds a freshly reset unit with a warm-start profile. With matching
  /// grain totals the sample sets are copied, and the profile's selection
  /// becomes the unit's cached fit when this database selects with the
  /// default options; otherwise the samples are replayed with x rescaled
  /// to this run's total (fractions outside (0, 1] are dropped). Bumps the
  /// unit's version.
  void seed(UnitId u, const WarmProfile& warm);

  /// Drops every sample of one unit (warm-start validation failure path);
  /// bumps the unit's version so its cached fit cannot be served.
  void clear_unit(UnitId u);

  [[nodiscard]] std::size_t units() const { return exec_.size(); }
  [[nodiscard]] const fit::SampleSet& exec_samples(UnitId u) const;
  [[nodiscard]] const fit::SampleSet& transfer_samples(UnitId u) const;

  /// Monotonic per-unit sample version; advanced by every recorded sample
  /// (zero-grain observations do not change the samples and do not bump).
  [[nodiscard]] std::uint64_t version(UnitId u) const;

  /// Execution-curve model selection for unit `u`, served from the fit
  /// cache when the unit's samples have not changed since the last call.
  [[nodiscard]] fit::FitResult exec_fit(UnitId u) const;

  /// Fits F_p and G_p for unit `u`.
  [[nodiscard]] fit::PerfModel fit_unit(UnitId u) const;

  /// Fits every unit in parallel on the global thread pool; returns one
  /// PerfModel per unit (invalid models for units with no samples).
  [[nodiscard]] std::vector<fit::PerfModel> fit_all() const;

  [[nodiscard]] double grains_to_fraction(std::size_t grains) const;

  /// Snapshot of the cache/solver counters accumulated since reset().
  [[nodiscard]] FitStats fit_stats() const;

  /// Drops every cached fit and zeroes the counters without touching the
  /// samples (benchmark support: forces honest refits).
  void clear_fit_cache();

 private:
  /// A unit's sample version and its latest fits, each stamped with the
  /// version it was computed at (0: none; versions start at 1).
  struct UnitCache {
    std::uint64_t version = 1;
    std::uint64_t exec_version = 0;
    fit::FitResult exec;
    std::uint64_t transfer_version = 0;
    fit::TransferModel transfer;
  };

  /// Cached-or-computed exec fit; returns the unit's cache so fit_unit can
  /// attach the transfer model. Touches only cache_[u] — safe for the
  /// per-unit parallel fan-out in fit_all.
  UnitCache& exec_entry(UnitId u) const;

  std::vector<fit::SampleSet> exec_;
  std::vector<fit::SampleSet> transfer_;
  std::size_t total_grains_ = 1;
  fit::SelectionOptions options_;

  mutable std::vector<UnitCache> cache_;
  /// Mutated through std::atomic_ref (fit_all fans units across threads);
  /// plain fields keep ProfileDb copyable and movable.
  mutable FitStats counters_;
};

}  // namespace plbhec::rt
