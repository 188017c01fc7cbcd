// Drift-adaptation subsystem tests: windowed moment sets (exponential
// forgetting), the two-sided residual CUSUM, the robust ingest
// filter, the DriftMonitor front end and its moments-only fit_recent;
// then the scheduler-level behavior on a simulated mid-run throttle —
// detection, targeted (confined) re-probe, censored overdue-block
// detection — and the profile-store staleness stamps with the
// warm-start age gates they feed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "plbhec/adapt/cusum.hpp"
#include "plbhec/adapt/drift.hpp"
#include "plbhec/adapt/robust.hpp"
#include "plbhec/adapt/window.hpp"
#include "plbhec/apps/grn.hpp"
#include "plbhec/core/plb_hec.hpp"
#include "plbhec/fit/least_squares.hpp"
#include "plbhec/obs/sink.hpp"
#include "plbhec/rt/engine.hpp"
#include "plbhec/sim/machine.hpp"
#include "plbhec/svc/profile_store.hpp"

namespace plbhec {
namespace {

// ---- WindowedSampleSet ----------------------------------------------------

TEST(WindowedSampleSet, NoForgettingMatchesPlainMomentsBitForBit) {
  adapt::WindowConfig config;  // lambda = 1
  adapt::WindowedSampleSet window(config);
  fit::MomentSet plain;
  for (int i = 1; i <= 40; ++i) {
    const double x = 0.01 * i;
    const double t = 0.2 + 3.0 * x + 0.5 * x * x;
    window.add(x, t);
    plain.add(x, t);
  }
  EXPECT_TRUE(window.moments() == plain);
  EXPECT_EQ(window.count(), 40u);
  EXPECT_DOUBLE_EQ(window.effective_count(), 40.0);
}

TEST(WindowedSampleSet, ForgettingModeWeightsRecentBehavior) {
  adapt::WindowConfig config;
  config.lambda = 0.8;  // effective window ~5 samples
  adapt::WindowedSampleSet window(config);
  // Regime change: slope 1 for 30 samples, then slope 4 for 30.
  for (int i = 1; i <= 30; ++i) window.add(0.01 * i, 1.0 * 0.01 * i);
  for (int i = 1; i <= 30; ++i) window.add(0.01 * i, 4.0 * 0.01 * i);

  const fit::FitResult recent = adapt::fit_recent(window);
  ASSERT_TRUE(recent.model.valid());
  // The discounted fit must describe the new regime, not the average.
  EXPECT_NEAR(recent.model(0.2), 0.8, 0.1);
  // Discounted mass converges to 1/(1 - lambda).
  EXPECT_NEAR(window.effective_count(), 5.0, 0.05);
}

TEST(FitRecent, UndiscountedWindowAgreesWithFreshRefit) {
  adapt::WindowedSampleSet window{adapt::WindowConfig{}};  // lambda = 1
  fit::SampleSet all;
  for (int i = 1; i <= 30; ++i) {
    const double x = 0.01 * i;
    const double t = 0.05 + 3.0 * x;
    window.add(x, t);
    all.add(x, t);
  }
  const fit::FitResult from_window = adapt::fit_recent(window);
  const fit::FitResult from_samples = fit::select_model(all);
  ASSERT_TRUE(from_window.model.valid());
  ASSERT_TRUE(from_samples.model.valid());
  for (double x : {0.01, 0.15, 0.30, 0.5, 0.9})
    EXPECT_NEAR(from_window.model(x), from_samples.model(x), 1e-9);
  EXPECT_NEAR(from_window.r2, from_samples.r2, 1e-9);
}

TEST(FitRecent, EmptyWindowGivesInvalidModel) {
  adapt::WindowedSampleSet window{adapt::WindowConfig{}};
  const fit::FitResult result = adapt::fit_recent(window);
  EXPECT_FALSE(result.model.valid());
  EXPECT_FALSE(result.acceptable);
}

// ---- ResidualCusum --------------------------------------------------------

adapt::CusumOptions fast_cusum() {
  adapt::CusumOptions options;
  options.min_stable = 4;
  return options;
}

TEST(ResidualCusum, ArmsAfterWarmupAndIgnoresQuietStream) {
  adapt::ResidualCusum detector(fast_cusum());
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(detector.observe(0.0));
  EXPECT_TRUE(detector.armed());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(detector.observe(0.0));
}

TEST(ResidualCusum, PersistentShiftTripsButSpikeDoesNot) {
  // With a zero-residual warmup the spread sits at the sigma floor
  // (0.05), so a 0.2 residual is z = 4: one spike leaves S+ = 3.5 < h,
  // and the following quiet samples drain it by k = 0.5 each.
  adapt::ResidualCusum spiked(fast_cusum());
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(spiked.observe(0.0));
  EXPECT_FALSE(spiked.observe(0.2));
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(spiked.observe(0.0));

  // The same shift sustained accumulates 3.5 per step and trips fast.
  adapt::ResidualCusum shifted(fast_cusum());
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(shifted.observe(0.0));
  EXPECT_FALSE(shifted.observe(0.2));
  EXPECT_TRUE(shifted.observe(0.2));
}

TEST(ResidualCusum, NegativeShiftTripsTheOtherSide) {
  adapt::ResidualCusum detector(fast_cusum());
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(detector.observe(0.0));
  EXPECT_FALSE(detector.observe(-0.2));
  EXPECT_TRUE(detector.observe(-0.2));
  EXPECT_GT(detector.negative(), detector.options().h);
}

TEST(ResidualCusum, DeterministicAcrossInstances) {
  const std::vector<double> stream = {0.0, 0.01, -0.02, 0.0,  0.05, 0.12,
                                      0.2, 0.22, 0.19,  0.25, 0.3,  0.28};
  adapt::ResidualCusum a(fast_cusum());
  adapt::ResidualCusum b(fast_cusum());
  for (double r : stream) EXPECT_EQ(a.observe(r), b.observe(r));
  EXPECT_EQ(a.positive(), b.positive());
  EXPECT_EQ(a.observed(), b.observed());
}

// ---- BlockMinFilter -------------------------------------------------------

TEST(BlockMinFilter, ForwardsNormalizedCostMinimum) {
  adapt::BlockMinFilter filter(3);
  EXPECT_FALSE(filter.push(0.1, 2.0).has_value());   // cost 20
  EXPECT_FALSE(filter.push(0.2, 2.0).has_value());   // cost 10 <- min
  const auto out = filter.push(0.1, 4.0);            // cost 40
  ASSERT_TRUE(out.has_value());
  EXPECT_DOUBLE_EQ(out->x, 0.2);
  EXPECT_DOUBLE_EQ(out->time, 2.0);
}

TEST(BlockMinFilter, TiesKeepTheEarliestObservation) {
  adapt::BlockMinFilter filter(3);
  EXPECT_FALSE(filter.push(0.1, 1.0).has_value());  // cost 10, first
  EXPECT_FALSE(filter.push(0.2, 2.0).has_value());  // cost 10, tie
  const auto out = filter.push(0.4, 4.0);           // cost 10, tie
  ASSERT_TRUE(out.has_value());
  EXPECT_DOUBLE_EQ(out->x, 0.1);
}

TEST(BlockMinFilter, FlushReturnsPartialBlockBest) {
  adapt::BlockMinFilter filter(4);
  EXPECT_FALSE(filter.push(0.1, 3.0).has_value());
  EXPECT_FALSE(filter.push(0.1, 1.0).has_value());
  const auto out = filter.flush();
  ASSERT_TRUE(out.has_value());
  EXPECT_DOUBLE_EQ(out->time, 1.0);
  EXPECT_EQ(filter.pending(), 0u);
  EXPECT_FALSE(filter.flush().has_value());
}

TEST(BlockMinFilter, DegenerateBlockForwardsEverything) {
  adapt::BlockMinFilter filter(1);
  for (int i = 1; i <= 5; ++i)
    EXPECT_TRUE(filter.push(0.1 * i, 1.0).has_value());
}

// ---- DriftMonitor ---------------------------------------------------------

TEST(DriftMonitor, DisabledMonitorIsInert) {
  adapt::DriftMonitor monitor;
  adapt::DriftOptions options;  // enabled = false
  monitor.configure(options, 2);
  monitor.ingest(0, 0.1, 1.0);
  EXPECT_FALSE(monitor.observe(0, 100.0));
  EXPECT_EQ(monitor.window(0).count(), 0u);
  EXPECT_EQ(monitor.total_trips(), 0u);
}

TEST(DriftMonitor, TripsCountPerUnitAndResetClearsState) {
  adapt::DriftMonitor monitor;
  adapt::DriftOptions options;
  options.enabled = true;
  options.cusum.min_stable = 2;
  monitor.configure(options, 3);

  for (int i = 0; i < 2; ++i) EXPECT_FALSE(monitor.observe(1, 0.0));
  bool tripped = false;
  for (int i = 0; i < 10 && !tripped; ++i) tripped = monitor.observe(1, 0.5);
  EXPECT_TRUE(tripped);
  EXPECT_EQ(monitor.trips(1), 1u);
  EXPECT_EQ(monitor.trips(0), 0u);

  monitor.force_trip(2);  // censored overdue-block path
  EXPECT_EQ(monitor.trips(2), 1u);
  EXPECT_EQ(monitor.total_trips(), 2u);

  monitor.ingest(1, 0.1, 1.0);
  EXPECT_EQ(monitor.window(1).count(), 1u);
  monitor.reset_unit(1);
  EXPECT_EQ(monitor.window(1).count(), 0u);
  EXPECT_FALSE(monitor.detector(1).armed());
  EXPECT_EQ(monitor.trips(1), 1u);  // trip history survives the reset
}

TEST(DriftMonitor, RobustIngestFiltersThroughBlockMin) {
  adapt::DriftMonitor monitor;
  adapt::DriftOptions options;
  options.enabled = true;
  options.robust_ingest = true;  // blocks of kRobustBlock = 3
  monitor.configure(options, 1);
  monitor.ingest(0, 0.1, 5.0);
  monitor.ingest(0, 0.1, 1.0);
  EXPECT_EQ(monitor.window(0).count(), 0u);  // block still filling
  monitor.ingest(0, 0.1, 9.0);
  EXPECT_EQ(monitor.window(0).count(), 1u);  // min forwarded
}

// ---- Scheduler-level drift adaptation (simulated cluster) -----------------

constexpr std::size_t kGrains = 60'000;
constexpr double kThrottle = 0.02;

core::PlbHecOptions frozen_options() {
  core::PlbHecOptions opts;
  opts.step_fraction = 0.05;
  opts.refinements = 0;
  opts.rebalance_threshold = 1e9;  // stock rebalancing never fires
  return opts;
}

core::PlbHecOptions adaptive_options() {
  core::PlbHecOptions opts = frozen_options();
  opts.adapt.enabled = true;
  opts.adapt.cusum.min_stable = 2;  // noise-free sim: short warmup is safe
  opts.adapt.reprobe_rounds = 2;
  return opts;
}

struct DriftRun {
  rt::RunResult result;
  core::PlbHecStats stats;
  std::vector<obs::Event> events;
};

DriftRun run_drifted(const core::PlbHecOptions& opts, std::size_t drift_unit,
                     double drift_time, double factor) {
  sim::SimCluster cluster(sim::scenario(2));
  if (drift_time >= 0.0)
    cluster.add_speed_event(drift_unit, drift_time, factor);
  apps::GrnWorkload workload(apps::GrnWorkload::paper_instance(kGrains));
  obs::EventSink sink;
  rt::EngineOptions eopts;
  eopts.seed = 42;
  eopts.noise = sim::NoiseModel::none();
  eopts.record_trace = false;
  eopts.sink = &sink;
  rt::SimEngine engine(cluster, eopts);
  core::PlbHecScheduler plb(opts);
  DriftRun run;
  run.result = engine.run(workload, plb);
  run.stats = plb.stats();
  run.events = sink.drain();
  return run;
}

/// The run's workhorse: the unit that completed the most grains on an
/// undrifted trace (throttling it maximizes the fit-once penalty).
std::size_t workhorse_unit(const rt::RunResult& nominal) {
  std::size_t best = 0;
  for (std::size_t u = 1; u < nominal.units.size(); ++u)
    if (nominal.unit_stats[u].grains > nominal.unit_stats[best].grains)
      best = u;
  return best;
}

TEST(PlbHecAdapt, StepThrottleDetectsConfinesAndBeatsFitOnce) {
  const DriftRun nominal = run_drifted(frozen_options(), 0, -1.0, 1.0);
  ASSERT_TRUE(nominal.result.ok) << nominal.result.error;
  const std::size_t unit = workhorse_unit(nominal.result);
  const double onset = 0.3 * nominal.result.makespan;

  const DriftRun frozen =
      run_drifted(frozen_options(), unit, onset, kThrottle);
  const DriftRun adaptive =
      run_drifted(adaptive_options(), unit, onset, kThrottle);
  ASSERT_TRUE(frozen.result.ok) << frozen.result.error;
  ASSERT_TRUE(adaptive.result.ok) << adaptive.result.error;

  // No grain may be lost to the throttle under either configuration.
  EXPECT_EQ(frozen.result.grains_completed, frozen.result.total_grains);
  EXPECT_EQ(adaptive.result.grains_completed, adaptive.result.total_grains);

  // The drift subsystem saw the change and swapped a refreshed fit in.
  EXPECT_GE(adaptive.stats.drift_detections, 1u);
  EXPECT_GE(adaptive.stats.reprobe_swaps, 1u);
  EXPECT_EQ(frozen.stats.drift_detections, 0u);

  // Targeted re-probe: every ladder block ran on the drifted unit.
  const auto& per_unit = adaptive.stats.reprobe_blocks_per_unit;
  ASSERT_EQ(per_unit.size(), adaptive.result.units.size());
  EXPECT_GT(per_unit[unit], 0u);
  for (std::size_t u = 0; u < per_unit.size(); ++u)
    if (u != unit) EXPECT_EQ(per_unit[u], 0u) << "ladder leaked to " << u;

  // Adapting must beat the frozen model on the same drifted trace.
  EXPECT_LT(adaptive.result.makespan, 0.95 * frozen.result.makespan);
}

TEST(PlbHecAdapt, UndriftedTraceStaysQuiet) {
  // Default warmup (min_stable = 8): the baseline absorbs the frozen
  // model's size-dependent error as blocks shrink, so a clean trace must
  // not trip. (The short test warmup used above is a step-detection
  // accelerator and is allowed to be hair-triggered.)
  core::PlbHecOptions opts = frozen_options();
  opts.adapt.enabled = true;
  opts.adapt.reprobe_rounds = 2;
  const DriftRun run = run_drifted(opts, 0, -1.0, 1.0);
  ASSERT_TRUE(run.result.ok) << run.result.error;
  EXPECT_EQ(run.stats.drift_detections, 0u);
  EXPECT_EQ(run.stats.reprobe_swaps, 0u);
  EXPECT_EQ(run.stats.reprobe_blocks, 0u);
}

TEST(PlbHecAdapt, AdaptDisabledByDefaultKeepsFitOnceBehavior) {
  core::PlbHecOptions defaults;
  EXPECT_FALSE(defaults.adapt.enabled);
  const DriftRun nominal = run_drifted(frozen_options(), 0, -1.0, 1.0);
  ASSERT_TRUE(nominal.result.ok);
  const std::size_t unit = workhorse_unit(nominal.result);
  const DriftRun frozen = run_drifted(
      frozen_options(), unit, 0.3 * nominal.result.makespan, kThrottle);
  ASSERT_TRUE(frozen.result.ok);
  EXPECT_EQ(frozen.stats.drift_detections, 0u);
  EXPECT_EQ(frozen.stats.reprobe_blocks, 0u);
}

TEST(PlbHecAdapt, OverdueDetectionBeatsCompletionOnlyCusum) {
  // At a 50x throttle the residual CUSUM cannot see the slow block until
  // it completes -- the censored-observation problem. The overdue check
  // (adapt.overdue_factor) trips from the block's age instead; disabling
  // it must delay the first detection.
  const DriftRun nominal = run_drifted(frozen_options(), 0, -1.0, 1.0);
  ASSERT_TRUE(nominal.result.ok);
  const std::size_t unit = workhorse_unit(nominal.result);
  const double onset = 0.3 * nominal.result.makespan;

  core::PlbHecOptions censored_off = adaptive_options();
  censored_off.adapt.overdue_factor = 0.0;
  const DriftRun with_overdue =
      run_drifted(adaptive_options(), unit, onset, kThrottle);
  const DriftRun without_overdue =
      run_drifted(censored_off, unit, onset, kThrottle);
  ASSERT_TRUE(with_overdue.result.ok);
  ASSERT_TRUE(without_overdue.result.ok);
  EXPECT_GE(with_overdue.stats.drift_detections, 1u);
  EXPECT_GE(without_overdue.stats.drift_detections, 1u);

  const auto first_detection = [](const DriftRun& run) {
    for (const obs::Event& ev : run.events)
      if (ev.kind == obs::EventKind::kDriftDetected) return ev.time;
    return -1.0;
  };
  const double t_overdue = first_detection(with_overdue);
  const double t_cusum = first_detection(without_overdue);
  if (t_overdue < 0.0 || t_cusum < 0.0)
    GTEST_SKIP() << "observability events compiled out";
  EXPECT_LT(t_overdue, t_cusum);
  EXPECT_LE(with_overdue.result.makespan, without_overdue.result.makespan);
}

// ---- ProfileStore staleness stamps + warm-start age gates -----------------

fit::SampleSet curve_samples(double slope, double intercept,
                             std::size_t count) {
  fit::SampleSet set;
  for (std::size_t i = 1; i <= count; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(count + 1);
    set.add(x, intercept + slope * x);
  }
  return set;
}

svc::ProfileEntry entry_for(const std::string& app) {
  return svc::make_entry(app, "dev-cpu", curve_samples(2.0, 0.1, 8),
                         curve_samples(0.5, 0.01, 8), 1000.0);
}

TEST(ProfileStoreStamps, PutAdvancesSequenceAndStampsEntries) {
  svc::ProfileStore store;
  store.put(entry_for("app-a"));
  store.put(entry_for("app-b"));
  store.put(entry_for("app-a"));  // refresh: re-stamped, update count kept
  EXPECT_EQ(store.sequence(), 3u);

  const svc::ProfileEntry* a = store.find("app-a", "dev-cpu");
  const svc::ProfileEntry* b = store.find("app-b", "dev-cpu");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_GT(a->stamp, b->stamp);  // app-a was refreshed last
  EXPECT_EQ(a->updates, 2u);

  // warm_profile exposes the age = sequence - stamp the scheduler gates on.
  EXPECT_EQ(store.warm_profile("app-a", "dev-cpu").age,
            store.sequence() - a->stamp);
  EXPECT_EQ(store.warm_profile("app-b", "dev-cpu").age,
            store.sequence() - b->stamp);
  EXPECT_GT(store.warm_profile("app-b", "dev-cpu").age, 0u);
}

TEST(ProfileStoreStamps, StampsAndSequenceSurviveEncodeDecode) {
  svc::ProfileStore store;
  store.put(entry_for("app-a"));
  store.put(entry_for("app-b"));
  const std::vector<std::uint8_t> bytes = store.encode();
  svc::ProfileStore loaded;
  ASSERT_EQ(svc::ProfileStore::decode(bytes, loaded),
            svc::StoreLoadStatus::kOk);
  EXPECT_EQ(loaded.sequence(), store.sequence());
  ASSERT_EQ(loaded.size(), store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(loaded.entries()[i].stamp, store.entries()[i].stamp);
    EXPECT_EQ(loaded.entries()[i].updates, store.entries()[i].updates);
  }
}

TEST(ProfileStoreStamps, VersionSkewStillRejectsCleanly) {
  svc::ProfileStore store;
  store.put(entry_for("app-a"));
  std::vector<std::uint8_t> bytes = store.encode();
  ASSERT_GT(bytes.size(), 12u);
  bytes[8] += 1;  // version u32 lives at offset 8, little-endian
  svc::ProfileStore loaded;
  EXPECT_EQ(svc::ProfileStore::decode(bytes, loaded),
            svc::StoreLoadStatus::kVersionSkew);
  EXPECT_TRUE(loaded.empty());
}

/// A warm profile old enough to hit the scheduler's hard age ceiling.
rt::WarmProfile aged_profile(std::uint64_t age) {
  rt::WarmProfile warm;
  warm.total_grains = kGrains;
  warm.age = age;
  for (int i = 1; i <= 8; ++i) warm.exec.add(0.02 * i, 0.01 * i);
  warm.fit = fit::select_model(warm.exec);
  return warm;
}

TEST(PlbHecAdapt, StaleWarmProfileIsSkippedNotSeeded) {
  core::PlbHecOptions opts = frozen_options();
  opts.warm.assign(1, aged_profile(core::kWarmMaxAge + 1));
  sim::SimCluster cluster(sim::scenario(2));
  apps::GrnWorkload workload(apps::GrnWorkload::paper_instance(kGrains));
  rt::EngineOptions eopts;
  eopts.seed = 42;
  eopts.noise = sim::NoiseModel::none();
  rt::SimEngine engine(cluster, eopts);
  core::PlbHecScheduler plb(opts);
  const rt::RunResult result = engine.run(workload, plb);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(plb.stats().warm_stale_skips, 1u);
  EXPECT_EQ(plb.stats().warm_hits, 0u);
  EXPECT_EQ(plb.stats().warm_misses, 0u);  // skipped before validation
}

TEST(PlbHecAdapt, FreshProfileOfSameShapeReachesValidation) {
  core::PlbHecOptions opts = frozen_options();
  opts.warm.assign(1, aged_profile(0));
  sim::SimCluster cluster(sim::scenario(2));
  apps::GrnWorkload workload(apps::GrnWorkload::paper_instance(kGrains));
  rt::EngineOptions eopts;
  eopts.seed = 42;
  eopts.noise = sim::NoiseModel::none();
  rt::SimEngine engine(cluster, eopts);
  core::PlbHecScheduler plb(opts);
  const rt::RunResult result = engine.run(workload, plb);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(plb.stats().warm_stale_skips, 0u);
  // Age 0 passes the staleness gate; the observation-based validation
  // then accepts or rejects it -- either way it was considered.
  EXPECT_EQ(plb.stats().warm_hits + plb.stats().warm_misses, 1u);
}

}  // namespace
}  // namespace plbhec
