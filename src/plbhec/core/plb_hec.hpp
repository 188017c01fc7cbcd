#pragma once
/// \file plb_hec.hpp
/// PLB-HeC: the paper's profile-based load-balancing algorithm (§III).
///
/// Phase 1 — performance modeling: per-unit probe blocks growing as
///   initialBlockSize * {1, 2, 4, 8}, rescaled per unit by the performance
///   preview t_f / t_k (fastest per-grain time over this unit's per-grain
///   time). Probing is *asynchronous*: a unit receives its next probe the
///   moment it finishes the previous one — the paper credits PLB-HeC's low
///   initial-phase idleness to exactly this ("starting to adapt the block
///   sizes after the submission of the first block"). Probing continues
///   until every unit's fitted curve reaches R^2 >= 0.7 (minimum four
///   samples each) or 20% of the input has been consumed.
/// Phase 2 — block size selection: fit F_p, G_p per unit, solve the
///   equal-time system (Eq. 3-5) by a root find on the common finish time
///   (the paper uses IPOPT; see solver/equal_time.hpp).
/// Phase 3 — execution & rebalancing: hand each unit blocks of its selected
///   size; when a unit's duration deviates from its model's prediction by
///   more than the threshold twice in a row, re-fit with all observations
///   and re-solve in place for every later block. No unit is parked (the
///   paper syncs first; see EXPERIMENTS.md "Known deviations").
///
/// The scheduler also honors unit failures (paper §VI future work): the
/// failed unit's share is re-solved across the survivors.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "plbhec/adapt/drift.hpp"
#include "plbhec/rt/profile_db.hpp"
#include "plbhec/rt/scheduler.hpp"
#include "plbhec/solver/block_selection.hpp"

namespace plbhec::core {

/// Minimum number of probe blocks per unit before the first fit attempt
/// (the paper's schedule: 4).
inline constexpr std::size_t kMinProbeRounds = 4;
/// Largest probe multiplier; the paper's schedule is 1, 2, 4, 8 and
/// additional points (when R^2 is still low) are taken at the final
/// multiplier rather than growing further.
inline constexpr std::size_t kMaxProbeMultiplier = 8;
/// Relative error bound of the warm validation rule: |observed -
/// predicted| / predicted on the validation block must stay under this.
inline constexpr double kWarmRelError = 0.35;
/// Staleness tightening of the warm validation bound: the effective bound
/// is kWarmRelError / (1 + kWarmAgeTightening * age), where age is
/// WarmProfile::age (store writes since the entry was refreshed). A fresh
/// profile keeps the full bound; one that predates hundreds of store
/// writes must predict the validation block much more precisely to be
/// trusted.
inline constexpr double kWarmAgeTightening = 0.01;
/// Profiles older than this many store writes are not seeded at all (cold
/// probing instead of spending a validation block on a curve that long
/// predates the cluster's current behavior).
inline constexpr std::uint64_t kWarmMaxAge = 1024;
struct PlbHecOptions {
  /// Probe block of the first round, in grains. 0 = use the engine hint
  /// (WorkInfo::initial_block).
  std::size_t initial_block = 0;
  /// Stop the modeling phase once this fraction of the input is consumed,
  /// even if some fit is still below the R^2 threshold (paper: 20%).
  double modeling_data_cap = 0.20;
  /// Rebalance when one unit's block duration deviates from its model's
  /// prediction by more than this fraction of the prediction on
  /// kRebalanceStrikes (2) completions in a row. The paper compares the
  /// finishing times of tasks: "the threshold must be determined
  /// empirically; in practice, values of about 10% ... a good trade-off".
  /// The selection equalizes every block's predicted duration, so one
  /// unit's deviation from its prediction stands in for the paper's
  /// difference between tasks, and it holds across selections and
  /// asynchronous blocks; bench/abl_threshold sweeps the value.
  double rebalance_threshold = 0.15;
  /// Fraction of the total input distributed per execution "step"; each
  /// unit's per-task block is its fraction of this window.
  double step_fraction = 0.25;
  /// Barrier-free progressive refinements (§II: "a progressive refinement
  /// of the performance models ... during execution"): after every unit
  /// has completed one execution-phase block of the current selection, the
  /// models are re-fitted with those large-block samples and the fractions
  /// updated for *future* blocks — the same in-place re-solve a threshold
  /// rebalance runs. Each refinement costs one solver call.
  std::size_t refinements = 2;
  /// Curve-fit engine (the acceptance bar is fit::kR2Threshold, the
  /// paper's 0.7).
  fit::SelectionOptions fit;
  /// Per-unit warm-start profiles (the service layer loads these from its
  /// ProfileStore at job admission), indexed by the unit ids passed to
  /// start(). A unit whose profile's fit is acceptable (R^2 >=
  /// fit::kR2Threshold) is seeded with the persisted samples and issues ONE
  /// cheap validation block instead of the exponential probe schedule; if
  /// the seeded fit still predicts that block within the kWarmRelError
  /// bound, the unit's modeling is complete (warm hit). Otherwise the
  /// stored samples are dropped and the unit falls back to cold probing
  /// (warm miss). Units beyond the vector, or with unusable entries,
  /// always cold-start.
  std::vector<rt::WarmProfile> warm;
  /// Online drift adaptation (src/plbhec/adapt/): per-unit residual CUSUM
  /// change-point detection over the execution phase, targeted re-probe of
  /// a tripped unit via a short geometric block ladder while the rest of
  /// the cluster keeps running, and a refreshed fit from the recent-window
  /// moments swapped in at the next block boundary. Disabled by default:
  /// the fit-once scheduler is unchanged unless adapt.enabled is set.
  adapt::DriftOptions adapt;
  /// Bounded preemption latency: upper bound, in engine seconds, on a
  /// single execution-phase block's *predicted* duration (latest observed
  /// per-grain time of the unit). The multi-tenant service revokes and
  /// grows leases only at block boundaries, so an uncapped block — e.g. a
  /// full step_fraction window issued to a one-unit lease the moment a
  /// warm start skips the probing ramp — pins the lease for the block's
  /// whole duration and strands grains on slow units while faster ones
  /// are already granted. 0 (the default) keeps the paper's behavior:
  /// blocks are whatever the equal-time selection says.
  double max_block_seconds = 0.0;
};

/// Probe, warm-start and drift counters of a PLB-HeC run. The service
/// sums them per job and per run (svc::JobOutcome, svc::ServiceResult).
struct ProbeStats {
  std::size_t probe_blocks = 0;    ///< modeling-phase blocks completed
  std::size_t probe_blocks_saved = 0;  ///< schedule blocks skipped by warm
                                       ///< hits (kMinProbeRounds - 1 each)
  std::size_t warm_hits = 0;       ///< units whose stored profile validated
  std::size_t warm_misses = 0;     ///< stored profiles rejected at validation
  std::size_t warm_stale_skips = 0;  ///< stored profiles too old to seed
  std::size_t drift_detections = 0;  ///< residual CUSUM trips
  std::size_t reprobe_blocks = 0;    ///< targeted re-probe ladder blocks
  std::size_t reprobe_swaps = 0;     ///< refreshed fits swapped in

  ProbeStats& operator+=(const ProbeStats& o) {
    probe_blocks += o.probe_blocks;
    probe_blocks_saved += o.probe_blocks_saved;
    warm_hits += o.warm_hits;
    warm_misses += o.warm_misses;
    warm_stale_skips += o.warm_stale_skips;
    drift_detections += o.drift_detections;
    reprobe_blocks += o.reprobe_blocks;
    reprobe_swaps += o.reprobe_swaps;
    return *this;
  }
};

/// Diagnostics exposed for the benchmark harness: the profile database's
/// fit counters (rt::FitStats, synced at every fit), the probe, warm and
/// drift counters, and the selection history.
struct PlbHecStats : rt::FitStats, ProbeStats {
  std::size_t probe_rounds = 0;
  std::size_t solves = 0;          ///< block-size selections performed
  std::size_t refinements = 0;     ///< barrier-free progressive refinements
  std::size_t rebalances = 0;      ///< threshold-triggered re-solves
  std::vector<double> solve_seconds;  ///< wall time per selection
  double modeling_grains = 0.0;    ///< grains consumed by the modeling phase
  std::vector<std::vector<double>> fraction_history;  ///< per selection
  /// Ladder blocks per unit; re-probe is targeted, so drift on one unit
  /// must leave every other unit's counter at zero (gated in bench_adapt).
  std::vector<std::size_t> reprobe_blocks_per_unit;
};

class PlbHecScheduler final : public rt::Scheduler {
 public:
  explicit PlbHecScheduler(PlbHecOptions options = {});

  [[nodiscard]] std::string name() const override { return "PLB-HeC"; }

  void start(const std::vector<rt::UnitInfo>& units,
             const rt::WorkInfo& work) override;
  [[nodiscard]] std::size_t next_block(rt::UnitId unit, double now) override;
  void on_complete(const rt::TaskObservation& obs) override;
  void on_barrier(double now) override;
  void on_unit_failed(rt::UnitId unit, std::size_t lost_grains,
                      double now) override;

  /// Block-size fractions from the most recent selection (Fig. 6 data).
  [[nodiscard]] const std::vector<double>& fractions() const {
    return fractions_;
  }
  /// Fitted models from the most recent selection (Fig. 1 data).
  [[nodiscard]] const std::vector<fit::PerfModel>& models() const {
    return models_;
  }
  [[nodiscard]] const PlbHecStats& stats() const { return stats_; }
  /// Raw profiling samples (Fig. 1 reproduction data).
  [[nodiscard]] const rt::ProfileDb& profiles() const { return profiles_; }

 private:
  enum class Phase { kModeling, kExecuting };
  /// Consecutive over-threshold completions of one unit before a rebalance
  /// is declared (debounces measurement noise).
  static constexpr std::size_t kRebalanceStrikes = 2;
  /// Probes a unit needs before the data cap may end the modeling phase:
  /// with fewer there is no reliable slope.
  static constexpr std::size_t kMinSlopeProbes = 3;
  /// Warm-start lifecycle of one unit: kPending between seeding and the
  /// validation block's completion; kValidated counts as fully probed.
  enum class WarmState : std::uint8_t { kCold, kPending, kValidated };

  /// Everything the scheduler keeps about one unit. Fields marked
  /// "counted" feed the running counts (alive_, under_slope_,
  /// under_rounds_, unsampled_, fastest_) and change only through
  /// set_probe_count, note_probe, mark_failed, count_gen_sample and
  /// fit_and_select, so no per-block callback rescans the units.
  struct UnitState {
    bool failed = false;              ///< counted
    std::size_t probe_count = 0;      ///< counted: probes completed
    double last_probe_grains = 0.0;   ///< counted: most recent probe size
    double last_probe_time = 0.0;     ///< counted: its duration
    double prev_probe_grains = 0.0;   ///< counted: the probe before it
    double prev_probe_time = 0.0;     ///< counted: its duration
    std::size_t gen_samples = 0;      ///< counted: exec completions this
                                      ///< generation
    double per_grain = 0.0;           ///< latest per-grain time (s)
    WarmState warm = WarmState::kCold;
    std::uint64_t warm_age = 0;       ///< staleness of the seeded profile,
                                      ///< in store writes
    bool reprobing = false;           ///< on the re-probe ladder
    bool censored = false;            ///< tripped with the block in flight
    std::size_t reprobe_round = 0;    ///< ladder blocks completed
    double inflight_issue = -1.0;     ///< issue time of the in-flight exec
                                      ///< block (-1 = idle)
    double inflight_predicted = 0.0;  ///< its predicted duration
    fit::CurveModel exec_override;    ///< refreshed recent-window fit,
                                      ///< consumed by the next selection
    double last_duration = 0.0;       ///< last exec-phase task duration
    std::size_t threshold_strikes = 0;  ///< rebalance debounce
    std::size_t issue_gen = 0;        ///< generation of the outstanding
                                      ///< block (the engine keeps at most
                                      ///< one task in flight per unit)

    /// Per-grain cost of the last probe's marginal grains (0 = no probe).
    [[nodiscard]] double marginal_tau() const;
  };

  /// Minimum over unit slots at O(log n) per update: a segment tree whose
  /// leaves start at +infinity.
  class MinTree {
   public:
    void reset(std::size_t slots);
    void set(std::size_t slot, double value);
    /// The smallest leaf; +infinity when there is none.
    [[nodiscard]] double min() const { return node_[1]; }

   private:
    std::size_t leaves_ = 1;
    std::vector<double> node_;
  };

  [[nodiscard]] std::size_t plan_probe_block(rt::UnitId unit) const;
  /// Settles a pending warm validation with the observed block. Returns
  /// true on a hit (the probe count already set); false leaves the unit on
  /// the cold path with the observation re-recorded as its first sample.
  bool resolve_warm_validation(const rt::TaskObservation& obs,
                               double predicted);
  /// Detector trip: drop the unit's mixed-regime history, keep the trip
  /// observation as the first post-change sample, and flip the unit into
  /// the targeted re-probe ladder. The rest of the cluster keeps running.
  void begin_reprobe(const rt::TaskObservation& obs, double residual);
  /// Censored trip (adapt.overdue_factor): a peer's in-flight block is
  /// already far past its predicted duration, so the unit flips into
  /// re-probe *before* the block completes; the completion is then the
  /// first post-change sample, not a ladder round.
  void begin_reprobe_censored(rt::UnitId unit, double now,
                              double overdue_ratio);
  /// Scans every busy peer's in-flight block age against the overdue
  /// bound. Runs on each exec-phase completion (the only clock ticks an
  /// event-driven scheduler gets).
  void check_overdue(double now);
  /// Records an exec-phase block issue for the overdue scan.
  void track_inflight(rt::UnitId unit, double now, std::size_t block);
  /// Ladder complete: refit from the recent window's moments and swap the
  /// refreshed model in at this block boundary (one re-solve, no drain).
  void finish_reprobe(rt::UnitId unit, double now);
  void maybe_finish_modeling();
  void fit_and_select();

  // Mutators of the counted fields.
  void set_probe_count(rt::UnitId u, std::size_t count);
  /// Shifts a completed probe into the unit's last two.
  void note_probe(rt::UnitId u, double grains, double duration);
  void mark_failed(rt::UnitId u);
  void count_gen_sample(rt::UnitId u);

  PlbHecOptions options_;
  rt::WorkInfo work_;
  rt::ProfileDb profiles_;

  Phase phase_ = Phase::kModeling;
  std::size_t initial_block_ = 1;
  std::vector<UnitState> state_;             ///< indexed by unit id
  std::size_t alive_ = 0;                    ///< units not failed
  std::size_t under_slope_ = 0;              ///< alive units with fewer than
                                             ///< kMinSlopeProbes probes
  std::size_t under_rounds_ = 0;             ///< alive units with fewer than
                                             ///< kMinProbeRounds probes
  std::size_t unsampled_ = 0;                ///< alive units with no exec
                                             ///< sample this generation
  MinTree fastest_;                          ///< alive units' positive
                                             ///< marginal_tau()
  std::size_t modeling_issued_ = 0;          ///< probe grains handed out

  adapt::DriftMonitor monitor_;              ///< per-unit windows + CUSUMs

  std::vector<fit::PerfModel> models_;
  std::vector<double> fractions_;
  std::size_t refine_budget_ = 0;
  std::size_t issued_grains_ = 0;            ///< grains handed out so far
  std::size_t generation_ = 0;               ///< bumped at every selection
  double grains_consumed_ = 0.0;
  double last_now_ = 0.0;  ///< latest virtual time seen from the engine;
                           ///< timestamps decision events raised from
                           ///< callbacks that carry no clock (fit/solve)

  PlbHecStats stats_;
};

}  // namespace plbhec::core
