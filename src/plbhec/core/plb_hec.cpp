#include "plbhec/core/plb_hec.hpp"

#include <algorithm>
#include <cmath>

#include "plbhec/common/contracts.hpp"
#include "plbhec/obs/sink.hpp"

namespace plbhec::core {

PlbHecScheduler::PlbHecScheduler(PlbHecOptions options)
    : options_(std::move(options)) {}

void PlbHecScheduler::start(const std::vector<rt::UnitInfo>& units,
                            const rt::WorkInfo& work) {
  PLBHEC_EXPECTS(!units.empty());
  units_ = units;
  work_ = work;
  profiles_.reset(units.size(), work.total_grains, options_.fit);

  initial_block_ = options_.initial_block ? options_.initial_block
                                          : std::max<std::size_t>(
                                                1, work.initial_block);
  phase_ = Phase::kModeling;
  probe_count_.assign(units.size(), 0);
  per_grain_.assign(units.size(), 0.0);
  last_probe_grains_.assign(units.size(), 0.0);
  last_probe_time_.assign(units.size(), 0.0);
  prev_probe_grains_.assign(units.size(), 0.0);
  prev_probe_time_.assign(units.size(), 0.0);
  modeling_issued_ = 0;
  monitor_.configure(options_.adapt, units.size());
  reprobing_.assign(units.size(), 0);
  censored_.assign(units.size(), 0);
  reprobe_round_.assign(units.size(), 0);
  inflight_issue_.assign(units.size(), -1.0);
  inflight_predicted_.assign(units.size(), 0.0);
  exec_override_.assign(units.size(), fit::CurveModel{});
  warm_state_.assign(units.size(), WarmState::kCold);
  warm_age_.assign(units.size(), 0);
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
    warm_state_[u] = WarmState::kPending;
    warm_age_[u] = warm.age;
  }
  failed_.assign(units.size(), false);
  models_.clear();
  fractions_.clear();
  last_duration_.assign(units.size(), 0.0);
  gen_samples_.assign(units.size(), 0);
  refine_budget_ = options_.refinements;
  threshold_strikes_.assign(units.size(), 0);
  issued_grains_ = 0;
  generation_ = 0;
  issue_gen_.assign(units.size(), 0);
  grains_consumed_ = 0.0;
  last_now_ = 0.0;
}

std::size_t PlbHecScheduler::alive_count() const {
  std::size_t n = 0;
  for (bool f : failed_)
    if (!f) ++n;
  return n;
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
  const std::size_t k = probe_count_[unit];  // probes already done
  const double multiplier =
      warm_state_[unit] == WarmState::kPending
          ? 1.0
          : std::min(std::pow(2.0, static_cast<double>(k)),
                     static_cast<double>(kMaxProbeMultiplier));

  auto marginal_tau = [&](rt::UnitId u) -> double {
    if (last_probe_grains_[u] <= 0.0 || last_probe_time_[u] <= 0.0)
      return 0.0;
    const double avg = last_probe_time_[u] / last_probe_grains_[u];
    if (prev_probe_grains_[u] > 0.0 &&
        last_probe_grains_[u] != prev_probe_grains_[u]) {
      const double marg = (last_probe_time_[u] - prev_probe_time_[u]) /
                          (last_probe_grains_[u] - prev_probe_grains_[u]);
      return std::clamp(marg, avg / 16.0, avg * 16.0);
    }
    return avg;
  };

  double tau_f = 0.0;
  for (rt::UnitId u = 0; u < units_.size(); ++u) {
    if (failed_[u]) continue;
    const double tau = marginal_tau(u);
    if (tau <= 0.0) continue;
    if (tau_f == 0.0 || tau < tau_f) tau_f = tau;
  }
  double scale = 1.0;
  const double tau_self = marginal_tau(unit);
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
  PLBHEC_EXPECTS(unit < units_.size());
  last_now_ = now;
  if (failed_[unit]) return 0;

  if (phase_ == Phase::kModeling) {
    const std::size_t block = plan_probe_block(unit);
    issued_grains_ += block;
    modeling_issued_ += block;
    issue_gen_[unit] = generation_;
    PLBHEC_OBS_RECORD(sink_, {now, obs::EventKind::kProbeIssued,
                              static_cast<std::uint32_t>(unit), 0.0, 0.0,
                              block, probe_count_[unit] + 1});
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
  if (reprobing_[unit] != 0) {
    const double multiplier =
        std::min(std::pow(2.0, static_cast<double>(reprobe_round_[unit])),
                 static_cast<double>(kMaxProbeMultiplier));
    double size = multiplier * static_cast<double>(initial_block_);
    if (options_.max_block_seconds > 0.0 && per_grain_[unit] > 0.0)
      size = std::min(size, options_.max_block_seconds / per_grain_[unit]);
    size = std::min(size, static_cast<double>(remaining));
    const std::size_t block = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(size)));
    issued_grains_ += block;
    issue_gen_[unit] = generation_;
    ++stats_.reprobe_blocks;
    ++stats_.reprobe_blocks_per_unit[unit];
    PLBHEC_OBS_RECORD(sink_, {now, obs::EventKind::kProbeIssued,
                              static_cast<std::uint32_t>(unit), 0.0, 0.0,
                              block, reprobe_round_[unit] + 1});
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
  if (options_.max_block_seconds > 0.0 && per_grain_[unit] > 0.0) {
    const double cap = options_.max_block_seconds / per_grain_[unit];
    block = std::min(block,
                     std::max<std::size_t>(1, static_cast<std::size_t>(cap)));
  }
  issued_grains_ += block;
  issue_gen_[unit] = generation_;
  track_inflight(unit, now, block);
  return block;
}

void PlbHecScheduler::track_inflight(rt::UnitId unit, double now,
                                     std::size_t block) {
  if (!monitor_.enabled() || options_.adapt.overdue_factor <= 1.0) return;
  inflight_issue_[unit] = now;
  inflight_predicted_[unit] =
      unit < models_.size() && models_[unit].valid() && block > 0
          ? models_[unit].total_time(profiles_.grains_to_fraction(block))
          : 0.0;
}

void PlbHecScheduler::maybe_finish_modeling() {
  const double cap = options_.modeling_data_cap *
                     static_cast<double>(work_.total_grains);
  bool data_cap_hit =
      stats_.modeling_grains + static_cast<double>(alive_count()) >= cap;

  bool enough_samples = true;
  for (rt::UnitId u = 0; u < units_.size(); ++u) {
    if (failed_[u]) continue;
    if (probe_count_[u] < kMinProbeRounds) enough_samples = false;
    // A unit with fewer than three samples has no reliable slope: exact
    // 2-point fits tie across curve families and extrapolate arbitrarily.
    // Keep probing (the budget clamp shrinks everyone else's probes to a
    // single grain meanwhile).
    if (probe_count_[u] < 3) data_cap_hit = false;
  }

  bool fits_acceptable = false;
  if (enough_samples && !data_cap_hit) {
    // Served from the ProfileDb fit cache: the fit_and_select that follows
    // an all-acceptable sweep reuses these selections instead of refitting.
    fits_acceptable = true;
    for (rt::UnitId u = 0; u < units_.size(); ++u) {
      if (failed_[u]) continue;
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
  PLBHEC_EXPECTS(obs.unit < units_.size());
  last_now_ = obs.finish_time;

  // Warm validation predicts the block from the *seeded* fit, so the
  // prediction must be taken before the observation is folded in.
  double warm_predicted = -1.0;
  if (phase_ == Phase::kModeling &&
      warm_state_[obs.unit] == WarmState::kPending && obs.grains > 0) {
    const fit::PerfModel seeded = profiles_.fit_unit(obs.unit);
    if (seeded.valid())
      warm_predicted =
          seeded.total_time(profiles_.grains_to_fraction(obs.grains));
  }

  profiles_.record(obs);
  grains_consumed_ += static_cast<double>(obs.grains);

  const double duration = obs.transfer_seconds + obs.exec_seconds;
  if (obs.grains > 0)
    per_grain_[obs.unit] = duration / static_cast<double>(obs.grains);

  if (phase_ == Phase::kModeling) {
    ++stats_.probe_blocks;
    stats_.modeling_grains += static_cast<double>(obs.grains);
    prev_probe_grains_[obs.unit] = last_probe_grains_[obs.unit];
    prev_probe_time_[obs.unit] = last_probe_time_[obs.unit];
    last_probe_grains_[obs.unit] = static_cast<double>(obs.grains);
    last_probe_time_[obs.unit] = duration;
    bool counted = false;
    if (warm_state_[obs.unit] == WarmState::kPending)
      counted = resolve_warm_validation(obs, warm_predicted);
    if (!counted) {
      ++probe_count_[obs.unit];
      stats_.probe_rounds =
          std::max(stats_.probe_rounds, probe_count_[obs.unit]);
    }
    maybe_finish_modeling();
    return;
  }

  // Execution phase.
  inflight_issue_[obs.unit] = -1.0;
  if (monitor_.enabled()) check_overdue(obs.finish_time);

  // A tripped unit's completions are ladder observations: they feed the
  // recent window (the refreshed fit is selected from exactly these) and
  // advance the ladder, but take no part in refinement or threshold
  // bookkeeping — those reason about the current selection's blocks.
  if (reprobing_[obs.unit] != 0) {
    // The overdue block behind a censored trip: profiles_.record above
    // already stored it as the first post-change sample (the unit's
    // history was dropped at the trip); it seeds the window but does not
    // advance the ladder — the ladder's multi-size schedule starts now.
    if (censored_[obs.unit] != 0) {
      censored_[obs.unit] = 0;
      if (obs.grains > 0)
        monitor_.ingest(obs.unit, profiles_.grains_to_fraction(obs.grains),
                        obs.exec_seconds);
      return;
    }
    if (obs.grains > 0)
      monitor_.ingest(obs.unit, profiles_.grains_to_fraction(obs.grains),
                      obs.exec_seconds);
    if (++reprobe_round_[obs.unit] >= options_.adapt.reprobe_rounds)
      finish_reprobe(obs.unit, obs.finish_time);
    return;
  }

  if (issue_gen_[obs.unit] == generation_) {
    last_duration_[obs.unit] = duration;
    ++gen_samples_[obs.unit];
  }

  // Progressive refinement (§II): once every unit has produced one
  // large-block sample under the current selection, re-fit and update the
  // fractions for future blocks. No drain — only future requests change.
  if (refine_budget_ > 0) {
    bool all_sampled = true;
    for (rt::UnitId u = 0; u < units_.size(); ++u)
      if (!failed_[u] && gen_samples_[u] == 0) all_sampled = false;
    if (all_sampled) {
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
    if (++threshold_strikes_[obs.unit] >= kRebalanceStrikes) {
      threshold_strikes_.assign(units_.size(), 0);
      ++stats_.rebalances;
      PLBHEC_OBS_RECORD(sink_,
                        {obs.finish_time, obs::EventKind::kRebalanceTriggered,
                         static_cast<std::uint32_t>(obs.unit), deviation,
                         options_.rebalance_threshold, kRebalanceStrikes, 0});
      fit_and_select();
    }
  } else {
    threshold_strikes_[obs.unit] = 0;
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
  const double bound =
      kWarmRelError /
      (1.0 + kWarmAgeTightening * static_cast<double>(warm_age_[obs.unit]));
  if (refit.acceptable && rel_error <= bound) {
    warm_state_[obs.unit] = WarmState::kValidated;
    // The stored curve stands in for the probe schedule: mark the unit
    // fully probed so modeling can finish after this single block. The
    // real block count lives in stats_.probe_blocks.
    stats_.probe_blocks_saved += kMinProbeRounds - 1;
    probe_count_[obs.unit] = kMinProbeRounds;
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
  warm_state_[obs.unit] = WarmState::kCold;
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
  reprobing_[u] = 1;
  reprobe_round_[u] = 0;
  threshold_strikes_[u] = 0;
}

void PlbHecScheduler::check_overdue(double now) {
  const double factor = options_.adapt.overdue_factor;
  if (factor <= 1.0) return;
  for (rt::UnitId u = 0; u < units_.size(); ++u) {
    if (failed_[u] || reprobing_[u] != 0) continue;
    if (inflight_issue_[u] < 0.0 || inflight_predicted_[u] <= 0.0) continue;
    const double elapsed = now - inflight_issue_[u];
    // The model underestimates tiny end-of-run blocks (fixed overheads
    // dominate far from the fitted range), so the bar is the larger of
    // the prediction and the unit's last completed block under the
    // current selection: a genuinely hung block dwarfs both.
    const double bar = std::max(inflight_predicted_[u], last_duration_[u]);
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
  // sample when it finally lands (see the censored_ branch in on_complete).
  profiles_.clear_unit(unit);
  monitor_.reset_unit(unit);
  reprobing_[unit] = 1;
  censored_[unit] = 1;
  reprobe_round_[unit] = 0;
  threshold_strikes_[unit] = 0;
  inflight_issue_[unit] = -1.0;
}

void PlbHecScheduler::finish_reprobe(rt::UnitId unit, double now) {
  reprobing_[unit] = 0;
  reprobe_round_[unit] = 0;
  ++stats_.reprobe_swaps;
  // The refreshed execution curve is selected from the recent window's
  // moments alone (no raw-sample refit); a window too degenerate to yield
  // an acceptable model falls back to the post-change profile samples in
  // the selection below.
  const fit::FitResult recent = adapt::fit_recent(monitor_.window(unit));
  if (recent.model.valid() && recent.acceptable)
    exec_override_[unit] = recent.model;
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
  for (rt::UnitId u = 0; u < units_.size(); ++u) {
    if (reprobing_[u] != 0 && u < prev_models.size() &&
        prev_models[u].valid()) {
      models_[u] = prev_models[u];
    } else if (exec_override_[u].valid()) {
      models_[u].exec = exec_override_[u];
      exec_override_[u] = fit::CurveModel{};
    }
  }

  // Build the model list over alive units only.
  std::vector<fit::PerfModel> alive_models;
  std::vector<rt::UnitId> alive_ids;
  for (rt::UnitId u = 0; u < units_.size(); ++u) {
    if (failed_[u]) continue;
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
  fractions_.assign(units_.size(), 0.0);
  for (std::size_t i = 0; i < alive_ids.size(); ++i)
    fractions_[alive_ids[i]] = sel.fractions[i] / options_.step_fraction;

  stats_.fraction_history.push_back(fractions_);
  last_duration_.assign(units_.size(), 0.0);
  gen_samples_.assign(units_.size(), 0);
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
  PLBHEC_EXPECTS(unit < units_.size());
  last_now_ = now;
  if (failed_[unit]) return;
  failed_[unit] = true;
  // The unit's in-flight block returned to the pool: credit it back so the
  // remaining-work estimate (and the shrinking tail windows) stay correct.
  issued_grains_ -= std::min(lost_grains, issued_grains_);
  inflight_issue_[unit] = -1.0;
  censored_[unit] = 0;
  if (alive_count() == 0) return;
  if (phase_ == Phase::kExecuting) {
    // Redistribute the failed unit's share across the survivors (§VI).
    fit_and_select();
  }
}

}  // namespace plbhec::core
