#include "plbhec/core/plb_hec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "plbhec/common/contracts.hpp"
#include "plbhec/obs/sink.hpp"

namespace plbhec::core {

PlbHecScheduler::PlbHecScheduler(PlbHecOptions options)
    : options_(std::move(options)) {}

void PlbHecScheduler::start(const std::vector<rt::UnitInfo>& units,
                            const rt::WorkInfo& work) {
  PLBHEC_EXPECTS(!units.empty());
  work_ = work;
  profiles_.reset(units.size(), work.total_grains, options_.fit);

  initial_block_ = options_.initial_block ? options_.initial_block
                                          : std::max<std::size_t>(
                                                1, work.initial_block);
  phase_ = Phase::kModeling;
  state_.assign(units.size(), UnitState{});
  alive_ = under_slope_ = under_rounds_ = unsampled_ = units.size();
  fastest_.reset(units.size());
  modeling_issued_ = 0;
  monitor_.configure(options_.adapt, units.size());
  stats_ = {};
  stats_.reprobe_blocks_per_unit.assign(units.size(), 0);
  for (rt::UnitId u = 0; u < units.size() && u < options_.warm.size(); ++u) {
    const rt::WarmProfile& warm = options_.warm[u];
    if (!warm.usable() || !warm.fit.acceptable) continue;
    // A profile that predates too many store writes describes a cluster
    // state nobody has observed lately; probing costs less than betting a
    // validation block on it.
    if (warm.age > kWarmMaxAge) {
      ++stats_.warm_stale_skips;
      continue;
    }
    profiles_.seed(u, warm);
    // Rescaled seeding drops fractions outside (0, 1]; a remnant too small
    // to fit from is useless — revert to cold probing.
    if (profiles_.exec_samples(u).size() < 3) {
      profiles_.clear_unit(u);
      continue;
    }
    state_[u].warm = WarmState::kPending;
    state_[u].warm_age = warm.age;
  }
  models_.clear();
  fractions_.clear();
  refine_budget_ = options_.refinements;
  issued_grains_ = 0;
  generation_ = 0;
  grains_consumed_ = 0.0;
  last_now_ = 0.0;
}

double PlbHecScheduler::UnitState::marginal_tau() const {
  if (last_probe_grains <= 0.0 || last_probe_time <= 0.0) return 0.0;
  const double avg = last_probe_time / last_probe_grains;
  if (prev_probe_grains > 0.0 && last_probe_grains != prev_probe_grains) {
    const double marg = (last_probe_time - prev_probe_time) /
                        (last_probe_grains - prev_probe_grains);
    return std::clamp(marg, avg / 16.0, avg * 16.0);
  }
  return avg;
}

void PlbHecScheduler::MinTree::reset(std::size_t slots) {
  leaves_ = std::bit_ceil(std::max<std::size_t>(slots, 1));
  node_.assign(2 * leaves_, std::numeric_limits<double>::infinity());
}

void PlbHecScheduler::MinTree::set(std::size_t slot, double value) {
  std::size_t i = leaves_ + slot;
  node_[i] = value;
  for (i /= 2; i > 0; i /= 2)
    node_[i] = std::min(node_[2 * i], node_[2 * i + 1]);
}

void PlbHecScheduler::set_probe_count(rt::UnitId u, std::size_t count) {
  UnitState& s = state_[u];
  if (!s.failed) {
    if (s.probe_count < kMinSlopeProbes) --under_slope_;
    if (s.probe_count < kMinProbeRounds) --under_rounds_;
    if (count < kMinSlopeProbes) ++under_slope_;
    if (count < kMinProbeRounds) ++under_rounds_;
  }
  s.probe_count = count;
}

void PlbHecScheduler::note_probe(rt::UnitId u, double grains,
                                 double duration) {
  UnitState& s = state_[u];
  s.prev_probe_grains = s.last_probe_grains;
  s.prev_probe_time = s.last_probe_time;
  s.last_probe_grains = grains;
  s.last_probe_time = duration;
  const double tau = s.marginal_tau();
  if (!s.failed)
    fastest_.set(u, tau > 0.0 ? tau : std::numeric_limits<double>::infinity());
}

void PlbHecScheduler::mark_failed(rt::UnitId u) {
  UnitState& s = state_[u];
  s.failed = true;
  --alive_;
  if (s.probe_count < kMinSlopeProbes) --under_slope_;
  if (s.probe_count < kMinProbeRounds) --under_rounds_;
  if (s.gen_samples == 0) --unsampled_;
  fastest_.set(u, std::numeric_limits<double>::infinity());
}

void PlbHecScheduler::count_gen_sample(rt::UnitId u) {
  UnitState& s = state_[u];
  if (!s.failed && s.gen_samples == 0) --unsampled_;
  ++s.gen_samples;
}

std::size_t PlbHecScheduler::plan_probe_block(rt::UnitId unit) const {
  // §III-B: probe k of a unit is initialBlockSize * 2^(k-1), rescaled by
  // the performance preview t_f / t_k. We apply the preview on *marginal*
  // per-grain times (the slope between the last two probes, clamped near
  // the average) rather than raw round durations: average per-grain time
  // misleads on devices whose small-block time is flat (one GPU wave costs
  // the same for 10 or 100 grains) and would shrink their probes into a
  // dead end, while the marginal cost correctly signals "bigger blocks are
  // nearly free here".
  // A pending warm-start unit issues a single validation block of the
  // initial size: cheap, and well inside the stored curve's probed range.
  const UnitState& self = state_[unit];
  const std::size_t k = self.probe_count;  // probes already done
  const double multiplier =
      self.warm == WarmState::kPending
          ? 1.0
          : std::min(std::pow(2.0, static_cast<double>(k)),
                     static_cast<double>(kMaxProbeMultiplier));

  // The fastest alive unit's marginal cost, kept current by note_probe and
  // mark_failed.
  const double fastest = fastest_.min();
  const double tau_f = std::isinf(fastest) ? 0.0 : fastest;
  double scale = 1.0;
  const double tau_self = self.marginal_tau();
  if (tau_f > 0.0 && tau_self > 0.0)
    scale = std::clamp(tau_f / tau_self, 1.0 / 1024.0, 8.0);

  double size = multiplier * static_cast<double>(initial_block_) * scale;

  // The paper's 20% rule: never let probing overrun the modeling budget.
  // Budgeted on *issued* grains so concurrent in-flight probes cannot
  // collectively overshoot.
  const double budget = options_.modeling_data_cap *
                            static_cast<double>(work_.total_grains) -
                        static_cast<double>(modeling_issued_);
  size = std::min(size, std::max(budget, 1.0));
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(size)));
}

std::size_t PlbHecScheduler::next_block(rt::UnitId unit, double now) {
  PLBHEC_EXPECTS(unit < state_.size());
  last_now_ = now;
  UnitState& s = state_[unit];
  if (s.failed) return 0;

  if (phase_ == Phase::kModeling) {
    const std::size_t block = plan_probe_block(unit);
    issued_grains_ += block;
    modeling_issued_ += block;
    s.issue_gen = generation_;
    PLBHEC_OBS_RECORD(sink_, {now, obs::EventKind::kProbeIssued,
                              static_cast<std::uint32_t>(unit), 0.0, 0.0,
                              block, s.probe_count + 1});
    return block;
  }

  // Execution phase. The nominal block is the unit's fraction of one
  // window; once less than a full window remains, blocks shrink with the
  // pool so all units run dry together instead of some idling through the
  // last window.
  const std::size_t remaining =
      work_.total_grains - std::min(issued_grains_, work_.total_grains);
  if (remaining == 0) return 0;

  // Targeted re-probe: a tripped unit runs a short geometric ladder
  // (initial, 2x, 4x, ...) exactly like a modeling-phase probe schedule,
  // while every other unit keeps executing from the current selection.
  if (s.reprobing) {
    const double multiplier =
        std::min(std::pow(2.0, static_cast<double>(s.reprobe_round)),
                 static_cast<double>(kMaxProbeMultiplier));
    double size = multiplier * static_cast<double>(initial_block_);
    if (options_.max_block_seconds > 0.0 && s.per_grain > 0.0)
      size = std::min(size, options_.max_block_seconds / s.per_grain);
    size = std::min(size, static_cast<double>(remaining));
    const std::size_t block = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(size)));
    issued_grains_ += block;
    s.issue_gen = generation_;
    ++stats_.reprobe_blocks;
    ++stats_.reprobe_blocks_per_unit[unit];
    PLBHEC_OBS_RECORD(sink_, {now, obs::EventKind::kProbeIssued,
                              static_cast<std::uint32_t>(unit), 0.0, 0.0,
                              block, s.reprobe_round + 1});
    return block;
  }

  const double window = options_.step_fraction *
                        static_cast<double>(work_.total_grains);
  const double effective = std::min(window, static_cast<double>(remaining));
  const double nominal = fractions_.empty() ? 0.0 : fractions_[unit];
  std::size_t block = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(nominal * effective)));
  // Bounded preemption latency: never issue a block predicted to run
  // longer than max_block_seconds, so revocations and lease growth (which
  // only act at block boundaries) stay responsive even when one slow unit
  // holds the whole window.
  if (options_.max_block_seconds > 0.0 && s.per_grain > 0.0) {
    const double cap = options_.max_block_seconds / s.per_grain;
    block = std::min(block,
                     std::max<std::size_t>(1, static_cast<std::size_t>(cap)));
  }
  issued_grains_ += block;
  s.issue_gen = generation_;
  track_inflight(unit, now, block);
  return block;
}

void PlbHecScheduler::track_inflight(rt::UnitId unit, double now,
                                     std::size_t block) {
  if (!monitor_.enabled() || options_.adapt.overdue_factor <= 1.0) return;
  state_[unit].inflight_issue = now;
  state_[unit].inflight_predicted =
      unit < models_.size() && models_[unit].valid() && block > 0
          ? models_[unit].total_time(profiles_.grains_to_fraction(block))
          : 0.0;
}

void PlbHecScheduler::maybe_finish_modeling() {
  const double cap = options_.modeling_data_cap *
                     static_cast<double>(work_.total_grains);
  // A unit with fewer than three samples has no reliable slope: exact
  // 2-point fits tie across curve families and extrapolate arbitrarily.
  // Keep probing (the budget clamp shrinks everyone else's probes to a
  // single grain meanwhile).
  const bool data_cap_hit =
      stats_.modeling_grains + static_cast<double>(alive_) >= cap &&
      under_slope_ == 0;
  const bool enough_samples = under_rounds_ == 0;

  bool fits_acceptable = false;
  if (enough_samples && !data_cap_hit) {
    // Served from the ProfileDb fit cache: the fit_and_select that follows
    // an all-acceptable sweep reuses these selections instead of refitting.
    fits_acceptable = true;
    for (rt::UnitId u = 0; u < state_.size(); ++u) {
      if (state_[u].failed) continue;
      if (!profiles_.exec_fit(u).acceptable) {
        fits_acceptable = false;
        break;
      }
    }
  }

  if ((enough_samples && fits_acceptable) || data_cap_hit) {
    phase_ = Phase::kExecuting;
    PLBHEC_OBS_RECORD(sink_, {last_now_, obs::EventKind::kPhaseChange,
                              obs::kNoUnit, stats_.modeling_grains, 0.0,
                              static_cast<std::uint64_t>(Phase::kExecuting),
                              0});
    fit_and_select();
  }
  static_cast<rt::FitStats&>(stats_) = profiles_.fit_stats();
}

void PlbHecScheduler::on_complete(const rt::TaskObservation& obs) {
  PLBHEC_EXPECTS(obs.unit < state_.size());
  last_now_ = obs.finish_time;
  UnitState& s = state_[obs.unit];

  // Warm validation predicts the block from the *seeded* fit, so the
  // prediction must be taken before the observation is folded in.
  double warm_predicted = -1.0;
  if (phase_ == Phase::kModeling && s.warm == WarmState::kPending &&
      obs.grains > 0) {
    const fit::PerfModel seeded = profiles_.fit_unit(obs.unit);
    if (seeded.valid())
      warm_predicted =
          seeded.total_time(profiles_.grains_to_fraction(obs.grains));
  }

  profiles_.record(obs);
  grains_consumed_ += static_cast<double>(obs.grains);

  const double duration = obs.transfer_seconds + obs.exec_seconds;
  if (obs.grains > 0)
    s.per_grain = duration / static_cast<double>(obs.grains);

  if (phase_ == Phase::kModeling) {
    ++stats_.probe_blocks;
    stats_.modeling_grains += static_cast<double>(obs.grains);
    note_probe(obs.unit, static_cast<double>(obs.grains), duration);
    bool counted = false;
    if (s.warm == WarmState::kPending)
      counted = resolve_warm_validation(obs, warm_predicted);
    if (!counted) {
      set_probe_count(obs.unit, s.probe_count + 1);
      stats_.probe_rounds = std::max(stats_.probe_rounds, s.probe_count);
    }
    maybe_finish_modeling();
    return;
  }

  // Execution phase.
  s.inflight_issue = -1.0;
  if (monitor_.enabled()) check_overdue(obs.finish_time);

  // A tripped unit's completions are ladder observations: they feed the
  // recent window (the refreshed fit is selected from exactly these) and
  // advance the ladder, but take no part in refinement or threshold
  // bookkeeping — those reason about the current selection's blocks.
  if (s.reprobing) {
    // The overdue block behind a censored trip: profiles_.record above
    // already stored it as the first post-change sample (the unit's
    // history was dropped at the trip); it seeds the window but does not
    // advance the ladder — the ladder's multi-size schedule starts now.
    if (s.censored) {
      s.censored = false;
      if (obs.grains > 0)
        monitor_.ingest(obs.unit, profiles_.grains_to_fraction(obs.grains),
                        obs.exec_seconds);
      return;
    }
    if (obs.grains > 0)
      monitor_.ingest(obs.unit, profiles_.grains_to_fraction(obs.grains),
                      obs.exec_seconds);
    if (++s.reprobe_round >= options_.adapt.reprobe_rounds)
      finish_reprobe(obs.unit, obs.finish_time);
    return;
  }

  if (s.issue_gen == generation_) {
    s.last_duration = duration;
    count_gen_sample(obs.unit);
  }

  // Progressive refinement (§II): once every unit has produced one
  // large-block sample under the current selection, re-fit and update the
  // fractions for future blocks. No drain — only future requests change.
  if (refine_budget_ > 0) {
    if (unsampled_ == 0) {
      --refine_budget_;
      ++stats_.refinements;
      PLBHEC_OBS_RECORD(sink_, {obs.finish_time, obs::EventKind::kRefinement,
                                obs::kNoUnit, 0.0, 0.0, refine_budget_, 0});
      fit_and_select();
      return;
    }
    // Until the *first* refinement, the fractions are known to be
    // provisional (fitted from small probe blocks only), and their
    // imperfection would trip the threshold again and again; the
    // refinement about to fix them is a single re-solve. Later refinements
    // run with the threshold monitor active so genuine drift still
    // re-solves.
    if (refine_budget_ == options_.refinements) return;
  }

  // Once less than half a window is left, the tail blocks are too small for
  // their deviations to say much about the selection: skip the check. Both
  // guards are measured: without them `bench_matrix --full` fires 1,694
  // rebalances instead of 141, and 49 rows run up to 10.7 % slower.
  const double window = options_.step_fraction *
                        static_cast<double>(work_.total_grains);
  if (static_cast<double>(work_.total_grains -
                          std::min(issued_grains_, work_.total_grains)) <
      0.5 * window)
    return;

  // Threshold monitoring (§III-D). The selection equalizes the *predicted*
  // E_g of every block, so "the difference in finishing times between any
  // two tasks exceeds the threshold" is equivalent to one unit's observed
  // duration deviating from its model's prediction by the threshold —
  // and the deviation form stays valid across selections and block sizes
  // (tasks are asynchronous here, not round-aligned).
  if (obs.unit >= models_.size() || !models_[obs.unit].valid() ||
      obs.grains == 0)
    return;
  const double x = profiles_.grains_to_fraction(obs.grains);
  const double predicted = models_[obs.unit].total_time(x);
  if (predicted <= 0.0) return;
  const double residual = (duration - predicted) / predicted;
  const double deviation = std::fabs(residual);

  // Drift adaptation: the recent window tracks the unit's execution curve
  // continuously, and the standardized residual feeds its CUSUM. A trip
  // takes precedence over threshold rebalancing — a persistent shift means
  // the model itself is wrong, and the targeted ladder (one unit re-probed)
  // is cheaper than repeated global re-solves over a model that cannot
  // converge while pre-change samples dominate its fit.
  if (monitor_.enabled()) {
    if (obs.grains > 0) monitor_.ingest(obs.unit, x, obs.exec_seconds);
    if (monitor_.observe(obs.unit, residual)) {
      begin_reprobe(obs, residual);
      return;
    }
  }

  // A declared rebalance re-solves in place, like a refinement: blocks in
  // flight keep their size, every block issued from here on gets new shares.
  if (deviation > options_.rebalance_threshold) {
    if (++s.threshold_strikes >= kRebalanceStrikes) {
      for (UnitState& other : state_) other.threshold_strikes = 0;
      ++stats_.rebalances;
      PLBHEC_OBS_RECORD(sink_,
                        {obs.finish_time, obs::EventKind::kRebalanceTriggered,
                         static_cast<std::uint32_t>(obs.unit), deviation,
                         options_.rebalance_threshold, kRebalanceStrikes, 0});
      fit_and_select();
    }
  } else {
    s.threshold_strikes = 0;
  }
}

bool PlbHecScheduler::resolve_warm_validation(const rt::TaskObservation& obs,
                                              double predicted) {
  const double duration = obs.transfer_seconds + obs.exec_seconds;
  const fit::FitResult refit = profiles_.exec_fit(obs.unit);
  const double rel_error =
      predicted > 0.0 ? std::fabs(duration - predicted) / predicted : 1e300;
  const std::uint64_t seeded_samples =
      profiles_.exec_samples(obs.unit).size();

  // Staleness tightening: the older the stored profile (in store writes
  // since it was refreshed), the more precisely it must predict the
  // validation block. A freshly written profile keeps the full bound.
  UnitState& s = state_[obs.unit];
  const double bound =
      kWarmRelError /
      (1.0 + kWarmAgeTightening * static_cast<double>(s.warm_age));
  if (refit.acceptable && rel_error <= bound) {
    s.warm = WarmState::kValidated;
    // The stored curve stands in for the probe schedule: mark the unit
    // fully probed so modeling can finish after this single block. The
    // real block count lives in stats_.probe_blocks.
    stats_.probe_blocks_saved += kMinProbeRounds - 1;
    set_probe_count(obs.unit, kMinProbeRounds);
    ++stats_.warm_hits;
    PLBHEC_OBS_RECORD(sink_, {obs.finish_time, obs::EventKind::kWarmStartHit,
                              static_cast<std::uint32_t>(obs.unit), rel_error,
                              refit.r2, seeded_samples, 0});
    return true;
  }

  // The stored profile no longer describes this (workload, device) pair:
  // drop the seeded samples and re-record the validation block as the
  // first sample of a cold probing schedule.
  profiles_.clear_unit(obs.unit);
  profiles_.record(obs);
  s.warm = WarmState::kCold;
  ++stats_.warm_misses;
  PLBHEC_OBS_RECORD(sink_, {obs.finish_time, obs::EventKind::kWarmStartMiss,
                            static_cast<std::uint32_t>(obs.unit), rel_error,
                            refit.r2, seeded_samples, 0});
  return false;
}

void PlbHecScheduler::begin_reprobe(const rt::TaskObservation& obs,
                                    double residual) {
  const rt::UnitId u = obs.unit;
  ++stats_.drift_detections;
  const adapt::ResidualCusum& det = monitor_.detector(u);
  PLBHEC_OBS_RECORD(sink_,
                    {obs.finish_time, obs::EventKind::kDriftDetected,
                     static_cast<std::uint32_t>(u),
                     std::max(det.positive(), det.negative()), residual,
                     det.observed(), monitor_.trips(u)});
  // The pre-change history would dominate any refit and keep the model
  // wrong for the rest of the run: drop it, keeping the trip observation
  // as the first post-change sample, and restart the recent window so the
  // swap fits post-change behavior only.
  profiles_.clear_unit(u);
  profiles_.record(obs);
  monitor_.reset_unit(u);
  if (obs.grains > 0)
    monitor_.ingest(u, profiles_.grains_to_fraction(obs.grains),
                    obs.exec_seconds);
  UnitState& s = state_[u];
  s.reprobing = true;
  s.reprobe_round = 0;
  s.threshold_strikes = 0;
}

void PlbHecScheduler::check_overdue(double now) {
  const double factor = options_.adapt.overdue_factor;
  if (factor <= 1.0) return;
  for (rt::UnitId u = 0; u < state_.size(); ++u) {
    const UnitState& s = state_[u];
    if (s.failed || s.reprobing) continue;
    if (s.inflight_issue < 0.0 || s.inflight_predicted <= 0.0) continue;
    const double elapsed = now - s.inflight_issue;
    // The model underestimates tiny end-of-run blocks (fixed overheads
    // dominate far from the fitted range), so the bar is the larger of
    // the prediction and the unit's last completed block under the
    // current selection: a genuinely hung block dwarfs both.
    const double bar = std::max(s.inflight_predicted, s.last_duration);
    if (elapsed <= factor * bar) continue;
    begin_reprobe_censored(u, now, elapsed / bar);
  }
}

void PlbHecScheduler::begin_reprobe_censored(rt::UnitId unit, double now,
                                             double overdue_ratio) {
  ++stats_.drift_detections;
  monitor_.force_trip(unit);
  // The elapsed/predicted ratio is a *lower bound* on the block's true
  // residual — the block has not finished. Recorded in the cusum-stat and
  // residual slots so exports stay uniform; observations = 0 marks the
  // censored path.
  PLBHEC_OBS_RECORD(sink_, {now, obs::EventKind::kDriftDetected,
                            static_cast<std::uint32_t>(unit), overdue_ratio,
                            overdue_ratio - 1.0, 0, monitor_.trips(unit)});
  // Same history reset as a completion-triggered trip, except there is no
  // observation yet: the overdue block itself becomes the first post-change
  // sample when it finally lands (see the censored branch in on_complete).
  profiles_.clear_unit(unit);
  monitor_.reset_unit(unit);
  UnitState& s = state_[unit];
  s.reprobing = true;
  s.censored = true;
  s.reprobe_round = 0;
  s.threshold_strikes = 0;
  s.inflight_issue = -1.0;
}

void PlbHecScheduler::finish_reprobe(rt::UnitId unit, double now) {
  state_[unit].reprobing = false;
  state_[unit].reprobe_round = 0;
  ++stats_.reprobe_swaps;
  // The refreshed execution curve is selected from the recent window's
  // moments alone (no raw-sample refit); a window too degenerate to yield
  // an acceptable model falls back to the post-change profile samples in
  // the selection below.
  const fit::FitResult recent = adapt::fit_recent(monitor_.window(unit));
  if (recent.model.valid() && recent.acceptable)
    state_[unit].exec_override = recent.model;
  PLBHEC_OBS_RECORD(sink_, {now, obs::EventKind::kReprobeSwap,
                            static_cast<std::uint32_t>(unit), recent.r2, 0.0,
                            monitor_.window(unit).count(),
                            stats_.reprobe_blocks_per_unit[unit]});
  // Detector baseline restarts against the refreshed model's residuals.
  monitor_.reset_unit(unit);
  fit_and_select();
}

void PlbHecScheduler::fit_and_select() {
  ++generation_;
  const std::vector<fit::PerfModel> prev_models = models_;
  models_ = profiles_.fit_all();
  static_cast<rt::FitStats&>(stats_) = profiles_.fit_stats();

  // Drift hooks. A unit mid-ladder owns only a handful of post-change
  // samples, not enough for a trustworthy model — a refit triggered
  // elsewhere (refinement, rebalance, failure) keeps scheduling it from
  // its superseded model until the swap boundary. At the swap, the
  // recent-window selection replaces the execution curve for this one
  // generation; later refits draw on the same post-change samples.
  for (rt::UnitId u = 0; u < state_.size(); ++u) {
    UnitState& s = state_[u];
    if (s.reprobing && u < prev_models.size() && prev_models[u].valid()) {
      models_[u] = prev_models[u];
    } else if (s.exec_override.valid()) {
      models_[u].exec = s.exec_override;
      s.exec_override = fit::CurveModel{};
    }
  }

  // Build the model list over alive units only.
  std::vector<fit::PerfModel> alive_models;
  std::vector<rt::UnitId> alive_ids;
  for (rt::UnitId u = 0; u < state_.size(); ++u) {
    if (state_[u].failed) continue;
    PLBHEC_ASSERT(models_[u].valid());
    PLBHEC_OBS_RECORD(
        sink_, {last_now_, obs::EventKind::kModelFitted,
                static_cast<std::uint32_t>(u), models_[u].exec.r2, 0.0,
                profiles_.exec_samples(u).size(),
                models_[u].exec.r2 >= fit::kR2Threshold ? 1u : 0u});
    alive_models.push_back(models_[u]);
    alive_ids.push_back(u);
  }
  PLBHEC_EXPECTS(!alive_models.empty());

  // Solve the equal-time system at the *window* level (Eq. 3-5 with the
  // simplex right-hand side equal to one execution window): with nonlinear
  // curves, equal E at full shares does not imply equal E for the blocks
  // actually issued, and window-level shares stay within the probed range.
  const solver::BlockSelection sel =
      solver::select_block_sizes(alive_models, options_.step_fraction);
  ++stats_.solves;
  PLBHEC_OBS_RECORD(sink_, {last_now_, obs::EventKind::kSolve, obs::kNoUnit,
                            sel.solve_seconds, sel.predicted_time, 0, 0});
  stats_.solve_seconds.push_back(sel.solve_seconds);
  PLBHEC_ASSERT(sel.ok);

  // Normalize window shares to a unit sum: next_block() multiplies by the
  // effective window, and Fig. 6 reports the normalized shares.
  fractions_.assign(state_.size(), 0.0);
  for (std::size_t i = 0; i < alive_ids.size(); ++i)
    fractions_[alive_ids[i]] = sel.fractions[i] / options_.step_fraction;

  stats_.fraction_history.push_back(fractions_);
  // A new generation: no unit has a sample under this selection yet.
  for (UnitState& s : state_) {
    s.last_duration = 0.0;
    s.gen_samples = 0;
  }
  unsampled_ = alive_;
}

void PlbHecScheduler::on_barrier(double now) {
  last_now_ = now;
  if (phase_ == Phase::kModeling) {
    // Asynchronous probing never parks units, so a barrier here means the
    // engine drained for another reason (e.g. failures): force selection.
    maybe_finish_modeling();
    if (phase_ == Phase::kModeling) {
      phase_ = Phase::kExecuting;
      PLBHEC_OBS_RECORD(sink_, {now, obs::EventKind::kPhaseChange,
                                obs::kNoUnit, stats_.modeling_grains, 0.0,
                                static_cast<std::uint64_t>(Phase::kExecuting),
                                0});
      fit_and_select();
    }
    return;
  }

  // An execution-phase barrier means the engine still holds work our
  // issued-count says is gone (engine-side clamping of a past block). At a
  // barrier nothing is in flight, so the true consumption equals the
  // completed count — resynchronize and keep serving.
  issued_grains_ = static_cast<std::size_t>(grains_consumed_);
}

void PlbHecScheduler::on_unit_failed(rt::UnitId unit,
                                     std::size_t lost_grains,
                                     double now) {
  PLBHEC_EXPECTS(unit < state_.size());
  last_now_ = now;
  if (state_[unit].failed) return;
  mark_failed(unit);
  // The unit's in-flight block returned to the pool: credit it back so the
  // remaining-work estimate (and the shrinking tail windows) stay correct.
  issued_grains_ -= std::min(lost_grains, issued_grains_);
  state_[unit].inflight_issue = -1.0;
  state_[unit].censored = false;
  if (alive_ == 0) return;
  if (phase_ == Phase::kExecuting) {
    // Redistribute the failed unit's share across the survivors (§VI).
    fit_and_select();
  }
}

}  // namespace plbhec::core
