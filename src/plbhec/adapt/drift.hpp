#pragma once
/// \file drift.hpp
/// The drift-adaptation front end the schedulers talk to. A DriftMonitor
/// keeps, per processing unit, (a) a recent-behavior moment window
/// (WindowedSampleSet), (b) a two-sided residual CUSUM (ResidualCusum) and
/// (c) an optional robust ingest filter (BlockMinFilter). Execution-phase
/// observations flow through observe(); a true return is a detected
/// change point — the scheduler then flips that unit into a targeted
/// re-probe and, at the swap boundary, refits from the recent window via
/// fit_recent() (moments-only Gram solves, no raw-sample refit).

#include <cstddef>
#include <vector>

#include "plbhec/adapt/cusum.hpp"
#include "plbhec/adapt/robust.hpp"
#include "plbhec/adapt/window.hpp"
#include "plbhec/fit/least_squares.hpp"

namespace plbhec::adapt {

/// Forgetting factor of every unit's recent window (an effective window
/// of ~10 samples).
inline constexpr double kDriftLambda = 0.9;
/// Block size of the robust ingest filter (DriftOptions::robust_ingest).
inline constexpr std::size_t kRobustBlock = 3;

/// Knobs for the whole subsystem; embedded in core::PlbHecOptions so the
/// service layer inherits them per job.
struct DriftOptions {
  /// Master switch. Off by default: the fit-once behavior of the scheduler
  /// is unchanged unless a caller opts in.
  bool enabled = false;

  /// Every unit's residual CUSUM: trip threshold and warmup length.
  CusumOptions cusum;

  /// Length of the geometric re-probe ladder run on a tripped unit
  /// (blocks of initial, 2x, 4x, ... the probing block size).
  std::size_t reprobe_rounds = 3;

  /// Censored-observation detection: a residual CUSUM only sees a slow
  /// block when it *completes*, so a unit throttled mid-block by a large
  /// factor stays invisible for the block's whole stretched duration.
  /// When another unit's completion shows a peer's in-flight block already
  /// `overdue_factor` times its predicted duration, the peer trips
  /// immediately — the elapsed time is a lower bound on the residual, no
  /// completion needed. <= 1 disables the check.
  double overdue_factor = 4.0;

  /// Robust ingest: pass execution observations through a per-unit
  /// BlockMinFilter of kRobustBlock samples before they reach the window.
  bool robust_ingest = false;
};

class DriftMonitor {
 public:
  /// (Re)configures for `units` processing units. Clears all state.
  void configure(const DriftOptions& options, std::size_t units);

  [[nodiscard]] bool enabled() const { return options_.enabled; }
  [[nodiscard]] const DriftOptions& options() const { return options_; }
  [[nodiscard]] std::size_t units() const { return windows_.size(); }

  /// Feeds one execution-time sample (block fraction x, exec seconds) into
  /// the unit's recent window, through the robust ingest filter when that
  /// is enabled. No-op when the subsystem is disabled.
  void ingest(std::size_t unit, double x, double time);

  /// Feeds one relative prediction residual (observed - predicted) /
  /// predicted into the unit's CUSUM. Returns true on a trip (and counts
  /// it). No-op returning false when the subsystem is disabled or the
  /// residual is not finite.
  [[nodiscard]] bool observe(std::size_t unit, double residual_ratio);

  /// Counts a trip decided outside the CUSUM — the scheduler's censored
  /// overdue-block detection (DriftOptions::overdue_factor), where the
  /// evidence is an in-flight block's age, not a completed residual.
  void force_trip(std::size_t unit);

  /// Restarts a unit's window, detector and ingest filter. Called on a
  /// trip (the window must start collecting post-change behavior) and
  /// again when the refreshed fit is swapped in (the detector baseline
  /// must describe the new model's residuals).
  void reset_unit(std::size_t unit);

  [[nodiscard]] const WindowedSampleSet& window(std::size_t unit) const;
  [[nodiscard]] const ResidualCusum& detector(std::size_t unit) const;
  [[nodiscard]] std::size_t trips(std::size_t unit) const;
  [[nodiscard]] std::size_t total_trips() const;

 private:
  DriftOptions options_;
  std::vector<WindowedSampleSet> windows_;
  std::vector<ResidualCusum> detectors_;
  std::vector<BlockMinFilter> filters_;
  std::vector<std::size_t> trips_;
};

/// Subset model selection over a window's moments alone: fit::select_model's
/// moments overload on the discounted moments, the window's
/// effective sample mass and its smallest block fraction — no raw samples
/// required. Candidates whose sub-Gram is too ill-conditioned are skipped
/// (there is no QR fallback without rows). Returns an invalid-model
/// FitResult when nothing is fittable; callers fall back to their
/// full-history fit.
[[nodiscard]] fit::FitResult fit_recent(const WindowedSampleSet& window);

}  // namespace plbhec::adapt
