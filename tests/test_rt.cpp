// Tests for the task runtime: the discrete-event engine's dispatch /
// barrier / failure semantics and the dispatcher's lease protocol (driven
// by scripted stub schedulers), the profiling database, and the
// real-threaded engine
// (actual kernels on host threads, schedule-independent results).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "plbhec/apps/synthetic.hpp"
#include "plbhec/rt/engine.hpp"
#include "plbhec/rt/profile_db.hpp"
#include "plbhec/rt/sim_dispatch.hpp"
#include "plbhec/rt/thread_engine.hpp"
#include "plbhec/sim/machine.hpp"

namespace plbhec::rt {
namespace {

apps::SyntheticWorkload::Config small_config() {
  apps::SyntheticWorkload::Config c;
  c.grains = 1000;
  c.flops_per_grain = 1e7;
  c.bytes_per_grain = 4096;
  c.spin_iters_per_grain = 50;
  return c;
}

/// Hands out fixed-size chunks forever (greedy-like).
class FixedScheduler final : public Scheduler {
 public:
  explicit FixedScheduler(std::size_t block) : block_(block) {}
  std::string name() const override { return "fixed"; }
  void start(const std::vector<UnitInfo>& units, const WorkInfo& work) override {
    units_seen = units.size();
    work_seen = work;
  }
  std::size_t next_block(UnitId, double) override { return block_; }
  void on_complete(const TaskObservation& obs) override {
    completions.push_back(obs);
  }
  std::size_t units_seen = 0;
  WorkInfo work_seen;
  std::vector<TaskObservation> completions;

 private:
  std::size_t block_;
};

/// Hands every unit one 10-grain block per round and parks it until the
/// barrier. Logs whom it served (kRound marks each barrier), every failure
/// it heard of, and when each unit finished its first block.
class BarrierScheduler final : public Scheduler {
 public:
  static constexpr UnitId kRound = ~UnitId{0};

  std::string name() const override { return "barrier"; }
  void start(const std::vector<UnitInfo>& units, const WorkInfo&) override {
    owed_.assign(units.size(), true);
    first_finish.assign(units.size(), -1.0);
  }
  std::size_t next_block(UnitId u, double) override {
    if (!owed_[u]) return 0;
    owed_[u] = false;
    served.push_back(u);
    return 10;
  }
  void on_complete(const TaskObservation& obs) override {
    if (first_finish[obs.unit] < 0.0) first_finish[obs.unit] = obs.finish_time;
  }
  void on_barrier(double) override {
    ++barriers;
    served.push_back(kRound);
    owed_.assign(owed_.size(), true);
  }
  void on_unit_failed(UnitId u, std::size_t lost, double) override {
    failed.emplace_back(u, lost);
  }

  /// The units served in each round, in the order they were asked.
  [[nodiscard]] std::vector<std::vector<UnitId>> rounds() const {
    std::vector<std::vector<UnitId>> out(1);
    for (const UnitId u : served) {
      if (u == kRound) {
        out.emplace_back();
      } else {
        out.back().push_back(u);
      }
    }
    return out;
  }

  std::size_t barriers = 0;
  std::vector<UnitId> served;
  std::vector<std::pair<UnitId, std::size_t>> failed;
  std::vector<double> first_finish;

 private:
  std::vector<bool> owed_;
};

/// Refuses to schedule anything (engine must error out, not hang).
class RefusingScheduler final : public Scheduler {
 public:
  std::string name() const override { return "refuse"; }
  void start(const std::vector<UnitInfo>&, const WorkInfo&) override {}
  std::size_t next_block(UnitId, double) override { return 0; }
  void on_complete(const TaskObservation&) override {}
};

sim::SimCluster one_machine() { return sim::SimCluster(sim::scenario(1)); }

TEST(SimEngine, CompletesAllGrains) {
  auto cluster = one_machine();
  apps::SyntheticWorkload w(small_config());
  SimEngine engine(cluster, {});
  FixedScheduler sched(64);
  const RunResult r = engine.run(w, sched);
  ASSERT_TRUE(r.ok) << r.error;
  std::size_t done = 0;
  for (const auto& s : r.unit_stats) done += s.grains;
  EXPECT_EQ(done, w.total_grains());
  EXPECT_GT(r.makespan, 0.0);
}

TEST(SimEngine, SchedulerSeesClusterAndWork) {
  auto cluster = one_machine();
  apps::SyntheticWorkload w(small_config());
  SimEngine engine(cluster, {});
  FixedScheduler sched(64);
  (void)engine.run(w, sched);
  EXPECT_EQ(sched.units_seen, 2u);
  EXPECT_EQ(sched.work_seen.total_grains, 1000u);
  EXPECT_GT(sched.work_seen.initial_block, 0u);
}

TEST(SimEngine, LastBlockClamped) {
  auto cluster = one_machine();
  auto cfg = small_config();
  cfg.grains = 100;
  apps::SyntheticWorkload w(cfg);
  SimEngine engine(cluster, {});
  FixedScheduler sched(64);  // 64 + 64 would exceed 100
  const RunResult r = engine.run(w, sched);
  ASSERT_TRUE(r.ok);
  std::size_t total = 0;
  for (const auto& obs : sched.completions) {
    EXPECT_LE(obs.grains, 64u);
    total += obs.grains;
  }
  EXPECT_EQ(total, 100u);
}

TEST(SimEngine, ObservationsHaveConsistentTimes) {
  auto cluster = one_machine();
  apps::SyntheticWorkload w(small_config());
  SimEngine engine(cluster, {});
  FixedScheduler sched(100);
  const RunResult r = engine.run(w, sched);
  ASSERT_TRUE(r.ok);
  for (const auto& obs : sched.completions) {
    EXPECT_GT(obs.exec_seconds, 0.0);
    EXPECT_GT(obs.transfer_seconds, 0.0);
    EXPECT_NEAR(obs.finish_time - obs.start_time,
                obs.exec_seconds + obs.transfer_seconds, 1e-12);
  }
}

TEST(SimEngine, DeterministicForSameSeed) {
  auto cluster = one_machine();
  apps::SyntheticWorkload w(small_config());
  EngineOptions opts;
  opts.seed = 99;
  SimEngine engine(cluster, opts);
  FixedScheduler s1(64), s2(64);
  const RunResult r1 = engine.run(w, s1);
  const RunResult r2 = engine.run(w, s2);
  EXPECT_DOUBLE_EQ(r1.makespan, r2.makespan);
}

TEST(SimEngine, SeedChangesNoise) {
  auto cluster = one_machine();
  apps::SyntheticWorkload w(small_config());
  EngineOptions a, b;
  a.seed = 1;
  b.seed = 2;
  FixedScheduler s1(64), s2(64);
  const RunResult r1 = SimEngine(cluster, a).run(w, s1);
  const RunResult r2 = SimEngine(cluster, b).run(w, s2);
  EXPECT_NE(r1.makespan, r2.makespan);
}

TEST(SimEngine, NoNoiseIsExactlyDeterministic) {
  auto cluster = one_machine();
  apps::SyntheticWorkload w(small_config());
  EngineOptions opts;
  opts.noise = sim::NoiseModel::none();
  SimEngine engine(cluster, opts);
  FixedScheduler sched(64);
  const RunResult r = engine.run(w, sched);
  ASSERT_TRUE(r.ok);
  // Two identical units (CPU vs GPU differ, but each task of the same size
  // on the same unit must take exactly the same time).
  for (std::size_t i = 1; i + 1 < sched.completions.size(); ++i) {
    const auto& a = sched.completions[i - 1];
    const auto& b = sched.completions[i];
    if (a.unit == b.unit && a.grains == b.grains)
      EXPECT_DOUBLE_EQ(a.exec_seconds, b.exec_seconds);
  }
}

TEST(SimEngine, BarrierProtocol) {
  auto cluster = one_machine();
  auto cfg = small_config();
  cfg.grains = 100;  // 2 units x 10 grains per round -> 5 barriers expected
  apps::SyntheticWorkload w(cfg);
  SimEngine engine(cluster, {});
  BarrierScheduler sched;
  const RunResult r = engine.run(w, sched);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(sched.barriers, 4u);  // rounds 2..5 each preceded by a barrier
  EXPECT_EQ(r.barriers, 4u);
}

TEST(SimEngine, RefusingSchedulerErrorsOut) {
  auto cluster = one_machine();
  apps::SyntheticWorkload w(small_config());
  SimEngine engine(cluster, {});
  RefusingScheduler sched;
  const RunResult r = engine.run(w, sched);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST(SimEngine, TraceAccountsEveryExecGrain) {
  auto cluster = one_machine();
  apps::SyntheticWorkload w(small_config());
  SimEngine engine(cluster, {});
  FixedScheduler sched(128);
  const RunResult r = engine.run(w, sched);
  ASSERT_TRUE(r.ok);
  std::size_t traced = 0;
  for (const auto& seg : r.trace.segments())
    if (seg.kind == SegmentKind::kExec) traced += seg.grains;
  EXPECT_EQ(traced, w.total_grains());
}

TEST(SimEngine, TraceSegmentsAreOrderedPerUnit) {
  auto cluster = one_machine();
  apps::SyntheticWorkload w(small_config());
  SimEngine engine(cluster, {});
  FixedScheduler sched(64);
  const RunResult r = engine.run(w, sched);
  ASSERT_TRUE(r.ok);
  std::vector<double> last_end(cluster.size(), 0.0);
  for (const auto& seg : r.trace.segments()) {
    EXPECT_GE(seg.start, last_end[seg.unit] - 1e-12);
    EXPECT_GE(seg.end, seg.start);
    last_end[seg.unit] = seg.end;
  }
}

TEST(SimEngine, IdleFractionInUnitRange) {
  auto cluster = sim::SimCluster(sim::scenario(2));
  apps::SyntheticWorkload w(small_config());
  SimEngine engine(cluster, {});
  FixedScheduler sched(32);
  const RunResult r = engine.run(w, sched);
  ASSERT_TRUE(r.ok);
  for (UnitId u = 0; u < cluster.size(); ++u) {
    EXPECT_GE(r.idle_fraction(u), -1e-9);
    EXPECT_LE(r.idle_fraction(u), 1.0 + 1e-9);
  }
}

TEST(SimEngine, FailedUnitWorkIsReassigned) {
  auto cluster = one_machine();
  cluster.fail_unit(0, 1e-5);  // CPU dies almost immediately
  apps::SyntheticWorkload w(small_config());
  SimEngine engine(cluster, {});
  FixedScheduler sched(64);
  const RunResult r = engine.run(w, sched);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.unit_stats[0].failed);
  std::size_t done = 0;
  for (const auto& s : r.unit_stats) done += s.grains;
  EXPECT_EQ(done, w.total_grains());
  EXPECT_EQ(r.unit_stats[0].grains, 0u);  // its in-flight task was lost
}

TEST(SimEngine, AllUnitsFailedIsError) {
  auto cluster = one_machine();
  cluster.fail_unit(0, 1e-6);
  cluster.fail_unit(1, 1e-6);
  apps::SyntheticWorkload w(small_config());
  SimEngine engine(cluster, {});
  FixedScheduler sched(64);
  const RunResult r = engine.run(w, sched);
  EXPECT_FALSE(r.ok);
}

TEST(SimEngine, SlowdownEventStretchesRun) {
  auto cluster_fast = one_machine();
  auto cluster_slow = one_machine();
  cluster_slow.add_speed_event(1, 0.0, 0.25);  // GPU at quarter speed
  apps::SyntheticWorkload w(small_config());
  EngineOptions opts;
  opts.noise = sim::NoiseModel::none();
  FixedScheduler s1(64), s2(64);
  const RunResult fast = SimEngine(cluster_fast, opts).run(w, s1);
  const RunResult slow = SimEngine(cluster_slow, opts).run(w, s2);
  ASSERT_TRUE(fast.ok && slow.ok);
  EXPECT_GT(slow.makespan, fast.makespan);
}

/// 40 copies of machine A: 80 units, so a job's idle set spans two words.
sim::SimCluster wide_cluster() {
  return sim::SimCluster(
      std::vector<sim::MachineConfig>(40, sim::machine_a()));
}

std::vector<UnitId> ids(std::size_t n, std::vector<UnitId> except = {}) {
  std::vector<UnitId> out;
  for (UnitId u = 0; u < n; ++u) {
    if (std::find(except.begin(), except.end(), u) == except.end())
      out.push_back(u);
  }
  return out;
}

TEST(SimDispatcher, EngineAsksIdleUnitsInIdOrderAcrossWords) {
  sim::SimCluster cluster = wide_cluster();
  const std::size_t n = cluster.size();
  ASSERT_GT(n, 64u);
  EngineOptions options;
  options.noise = sim::NoiseModel::none();
  // One round for every unit, then three for every unit but one.
  auto config = small_config();
  config.grains = 10 * (n + 3 * (n - 1));

  // A fault-free pass says when each unit goes idle in the first round.
  BarrierScheduler pass;
  {
    apps::SyntheticWorkload w(config);
    SimEngine engine(cluster, options);
    ASSERT_TRUE(engine.run(w, pass).ok);
  }
  const double round_end =
      *std::max_element(pass.first_finish.begin(), pass.first_finish.end());
  UnitId victim = 64;  // the second word's earliest finisher
  for (UnitId u = 64; u < n; ++u) {
    if (pass.first_finish[u] < pass.first_finish[victim]) victim = u;
  }
  ASSERT_LT(pass.first_finish[victim], round_end);
  // It dies idle, while the round's slowest blocks are still out.
  cluster.fail_unit(victim, 0.5 * (pass.first_finish[victim] + round_end));

  BarrierScheduler sched;
  apps::SyntheticWorkload w(config);
  SimEngine engine(cluster, options);
  const RunResult r = engine.run(w, sched);
  ASSERT_TRUE(r.ok) << r.error;
  const std::vector<std::vector<UnitId>> rounds = sched.rounds();
  ASSERT_EQ(rounds.size(), 4u);
  EXPECT_EQ(rounds[0], ids(n));
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i], ids(n, {victim})) << "round after barrier " << i;
  }
  ASSERT_EQ(sched.failed.size(), 1u);  // retired once, with nothing lost
  EXPECT_EQ(sched.failed[0], std::make_pair(victim, std::size_t{0}));
  EXPECT_TRUE(r.unit_stats[victim].failed);
  EXPECT_EQ(r.unit_stats[victim].tasks, 1u);
}

TEST(SimDispatcher, SkipsReleasedUnitsAndRejoinsReattachedOnes) {
  // The service's lease protocol on one dispatcher: a unit leaves a job at
  // a block boundary (release), serves another job, and comes back with
  // the first job's next epoch (attach).
  const sim::SimCluster cluster = wide_cluster();
  const std::size_t n = cluster.size();
  ASSERT_GT(n, 64u);
  auto config = small_config();
  config.grains = 100'000;
  apps::SyntheticWorkload wa(config);
  apps::SyntheticWorkload wb(config);
  SimDispatcher dispatch(cluster, sim::NoiseModel::none(), 1, nullptr);
  const auto drain = [&] {
    while (dispatch.step()) {
    }
  };
  SimJob a(0, wa);
  SimJob b(1, wb);
  BarrierScheduler first_epoch;
  BarrierScheduler borrower;
  a.scheduler = &first_epoch;
  b.scheduler = &borrower;

  dispatch.attach(a, ids(n));
  first_epoch.start(std::vector<UnitInfo>(n), {});
  ASSERT_EQ(dispatch.dispatch(a), SimDispatcher::Outcome::kOk);
  drain();
  dispatch.release(5);
  dispatch.release(70);
  // Everyone left is idle and parked: a barrier, then a round without the
  // two released units.
  ASSERT_EQ(dispatch.dispatch(a), SimDispatcher::Outcome::kOk);
  dispatch.attach(b, {5, 70});
  borrower.start(std::vector<UnitInfo>(2), {});
  ASSERT_EQ(dispatch.dispatch(b), SimDispatcher::Outcome::kOk);
  drain();
  EXPECT_EQ(first_epoch.rounds(),
            (std::vector<std::vector<UnitId>>{ids(n), ids(n, {5, 70})}));
  EXPECT_EQ(first_epoch.failed,
            (std::vector<std::pair<UnitId, std::size_t>>{{5, 0}, {70, 0}}));
  EXPECT_EQ(borrower.rounds(), (std::vector<std::vector<UnitId>>{{0, 1}}));

  // The borrower gives both back; the first job's next epoch holds all.
  dispatch.attach(b, {});
  BarrierScheduler next_epoch;
  a.scheduler = &next_epoch;
  dispatch.attach(a, ids(n));
  next_epoch.start(std::vector<UnitInfo>(n), {});
  ASSERT_EQ(dispatch.dispatch(a), SimDispatcher::Outcome::kOk);
  EXPECT_EQ(next_epoch.rounds(), (std::vector<std::vector<UnitId>>{ids(n)}));
  EXPECT_EQ(a.in_flight, 10 * n);
  EXPECT_TRUE(dispatch.error().empty());
}

TEST(ProfileDb, RecordsAndFits) {
  ProfileDb db(2, 1000);
  for (std::size_t g : {10u, 20u, 40u, 80u, 160u}) {
    TaskObservation obs;
    obs.unit = 0;
    obs.grains = g;
    obs.exec_seconds = 0.01 + 0.002 * static_cast<double>(g);
    obs.transfer_seconds = 0.001 * static_cast<double>(g);
    db.record(obs);
  }
  EXPECT_EQ(db.exec_samples(0).size(), 5u);
  EXPECT_EQ(db.exec_samples(1).size(), 0u);
  const fit::PerfModel m = db.fit_unit(0);
  ASSERT_TRUE(m.valid());
  // exec(x) = 0.01 + 2.0 * x with x = grains/1000.
  EXPECT_NEAR(m.exec(0.1), 0.21, 0.02);
  EXPECT_NEAR(m.transfer(0.1), 0.1, 0.01);
}

TEST(ProfileDb, GrainsToFraction) {
  ProfileDb db(1, 200);
  EXPECT_DOUBLE_EQ(db.grains_to_fraction(50), 0.25);
}

TEST(ProfileDb, ZeroGrainObservationIgnored) {
  ProfileDb db(1, 100);
  TaskObservation obs;
  obs.unit = 0;
  obs.grains = 0;
  db.record(obs);
  EXPECT_TRUE(db.exec_samples(0).empty());
  // No sample was added, so cached fits must stay valid.
  EXPECT_EQ(db.version(0), db.version(0));
  const std::uint64_t v = db.version(0);
  db.record(obs);
  EXPECT_EQ(db.version(0), v);
}

// ---- Fit cache --------------------------------------------------------------

/// Unit u's blocks grow by 10 + 3u grains from 10; every block lies within
/// the 1000-grain total up to 16 units of 12 samples (the largest is 615).
ProfileDb seeded_db(std::size_t units = 2, std::size_t samples = 6,
                    fit::SelectionOptions options = {}) {
  ProfileDb db(units, 1000, options);
  TaskObservation obs;
  for (UnitId u = 0; u < units; ++u) {
    obs.unit = u;
    std::size_t g = 10;
    for (std::size_t i = 0; i < samples; ++i, g += 10 + 3 * u) {
      obs.grains = g;
      obs.exec_seconds =
          (0.01 + 0.002 * static_cast<double>(g)) * (1.0 + 0.2 * u);
      obs.transfer_seconds = 0.001 * static_cast<double>(g);
      db.record(obs);
    }
  }
  return db;
}

TEST(ProfileDbFitCache, HitOnUnchangedSamples) {
  ProfileDb db = seeded_db(1);
  const fit::FitResult a = db.exec_fit(0);
  const fit::FitResult b = db.exec_fit(0);
  const FitStats s = db.fit_stats();
  EXPECT_EQ(s.fits_computed, 1u);
  EXPECT_EQ(s.fits_cached, 1u);
  EXPECT_EQ(a.model.terms, b.model.terms);
  EXPECT_EQ(a.model.coefficients, b.model.coefficients);
  EXPECT_DOUBLE_EQ(a.bic, b.bic);
}

TEST(ProfileDbFitCache, RecordInvalidates) {
  ProfileDb db = seeded_db(1);
  const std::uint64_t v0 = db.version(0);
  (void)db.exec_fit(0);
  TaskObservation obs;
  obs.unit = 0;
  obs.grains = 500;
  obs.exec_seconds = 1.1;
  obs.transfer_seconds = 0.5;
  db.record(obs);
  EXPECT_GT(db.version(0), v0);
  (void)db.exec_fit(0);
  const FitStats s = db.fit_stats();
  EXPECT_EQ(s.fits_computed, 2u);
  EXPECT_EQ(s.fits_cached, 0u);
}

TEST(ProfileDbFitCache, ResetClearsCacheAndCounters) {
  ProfileDb db = seeded_db(1);
  (void)db.exec_fit(0);
  (void)db.exec_fit(0);
  db.reset(1, 1000);
  const FitStats s = db.fit_stats();
  EXPECT_EQ(s.fits_computed, 0u);
  EXPECT_EQ(s.fits_cached, 0u);
  EXPECT_EQ(s.gram_solves, 0u);
  EXPECT_EQ(s.qr_solves, 0u);
}

TEST(ProfileDbFitCache, EngineSetAtConstructionReachesEveryFit) {
  // Twelve samples put the default engine on the moment solves; a QR
  // database fits the same samples without touching the moments.
  const ProfileDb gram = seeded_db(1, 12);
  const ProfileDb qr = seeded_db(1, 12, {fit::FitEngine::kQr});
  (void)gram.exec_fit(0);
  (void)qr.exec_fit(0);
  (void)qr.exec_fit(0);
  EXPECT_GT(gram.fit_stats().gram_solves, 0u);
  EXPECT_EQ(qr.fit_stats().gram_solves, 0u);
  EXPECT_GT(qr.fit_stats().qr_solves, 0u);
  EXPECT_EQ(qr.fit_stats().fits_computed, 1u);
  EXPECT_EQ(qr.fit_stats().fits_cached, 1u);
}

TEST(ProfileDbFitCache, FitUnitSharesExecFitAndCachesTransfer) {
  ProfileDb db = seeded_db(1);
  const fit::FitResult f = db.exec_fit(0);
  const fit::PerfModel m1 = db.fit_unit(0);
  const fit::PerfModel m2 = db.fit_unit(0);
  const FitStats s = db.fit_stats();
  EXPECT_EQ(s.fits_computed, 1u);  // exec_fit + both fit_unit calls share it
  EXPECT_EQ(s.fits_cached, 2u);
  EXPECT_EQ(m1.exec.terms, f.model.terms);
  EXPECT_DOUBLE_EQ(m1.transfer.slope, m2.transfer.slope);
  EXPECT_DOUBLE_EQ(m1.transfer.latency, m2.transfer.latency);
}

TEST(ProfileDbFitCache, ClearFitCacheForcesRefit) {
  ProfileDb db = seeded_db(1);
  (void)db.exec_fit(0);
  db.clear_fit_cache();
  (void)db.exec_fit(0);
  EXPECT_EQ(db.fit_stats().fits_computed, 1u);
  EXPECT_EQ(db.fit_stats().fits_cached, 0u);
}

TEST(ProfileDbFitCache, ParallelFitAllMatchesSerialFits) {
  // 16 units fitted on the global pool; every unit touches only its own
  // cache slot, which this test exercises under TSan (see ci.yml).
  ProfileDb db = seeded_db(16, 12);
  const std::vector<fit::PerfModel> models = db.fit_all();
  ASSERT_EQ(models.size(), 16u);
  EXPECT_EQ(db.fit_stats().fits_computed, 16u);
  for (UnitId u = 0; u < 16; ++u) {
    ASSERT_TRUE(models[u].valid()) << "unit " << u;
    const fit::PerfModel serial = db.fit_unit(u);
    EXPECT_EQ(serial.exec.terms, models[u].exec.terms) << "unit " << u;
    EXPECT_EQ(serial.exec.coefficients, models[u].exec.coefficients);
  }
  // The verification pass was served entirely from the cache.
  EXPECT_EQ(db.fit_stats().fits_computed, 16u);
  EXPECT_EQ(db.fit_stats().fits_cached, 16u);
}

TEST(RunResultDeathTest, OutOfRangeUnitIdAbortsInsteadOfReadingPastTheEnd) {
  RunResult result;
  result.unit_stats.resize(2);
  result.makespan = 1.0;
  EXPECT_EQ(result.stats_for(1).grains, 0u);        // in range: fine
  EXPECT_DOUBLE_EQ(result.idle_fraction(0), 1.0);
  EXPECT_DEATH((void)result.stats_for(2), "precondition");
  EXPECT_DEATH((void)result.idle_fraction(7), "precondition");
}

// ---- Real-threaded engine ---------------------------------------------------

TEST(ThreadEngine, RunsRealKernelToCompletion) {
  apps::SyntheticWorkload w(small_config());
  ThreadEngineOptions opts;
  opts.slowdowns = {1.0, 1.5};
  ThreadEngine engine(opts);
  FixedScheduler sched(100);
  const RunResult r = engine.run(w, sched);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(w.executed_grains(), w.total_grains());
  EXPECT_GT(r.makespan, 0.0);
  std::size_t done = 0;
  for (const auto& s : r.unit_stats) done += s.grains;
  EXPECT_EQ(done, w.total_grains());
}

TEST(ThreadEngine, ChecksumIndependentOfSchedule) {
  apps::SyntheticWorkload w1(small_config());
  apps::SyntheticWorkload w2(small_config());
  ThreadEngineOptions opts;
  opts.slowdowns = {1.0, 2.0, 3.0};
  FixedScheduler s1(37), s2(200);
  const RunResult r1 = ThreadEngine(opts).run(w1, s1);
  const RunResult r2 = ThreadEngine(opts).run(w2, s2);
  ASSERT_TRUE(r1.ok && r2.ok);
  EXPECT_NEAR(w1.checksum(), w2.checksum(), 1e-6 * std::fabs(w1.checksum()));
}

TEST(ThreadEngine, BarrierSchedulerWorks) {
  auto cfg = small_config();
  cfg.grains = 60;  // 3 units x 10 per round -> barriers
  apps::SyntheticWorkload w(cfg);
  ThreadEngineOptions opts;
  opts.slowdowns = {1.0, 1.0, 1.0};
  ThreadEngine engine(opts);
  BarrierScheduler sched;
  const RunResult r = engine.run(w, sched);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GE(sched.barriers, 1u);
  EXPECT_EQ(w.executed_grains(), 60u);
}

TEST(ThreadEngine, RefusingSchedulerFailsGracefully) {
  apps::SyntheticWorkload w(small_config());
  ThreadEngineOptions opts;
  opts.slowdowns = {1.0, 1.0};
  ThreadEngine engine(opts);
  RefusingScheduler sched;
  const RunResult r = engine.run(w, sched);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST(ThreadEngine, UnitNamesAndKinds) {
  ThreadEngineOptions opts;
  opts.slowdowns = {1.0, 2.0};
  ThreadEngine engine(opts);
  ASSERT_EQ(engine.units().size(), 2u);
  EXPECT_EQ(engine.units()[0].name, "host.cpu0");
  EXPECT_EQ(engine.units()[1].kind, ProcKind::kCpu);
}

}  // namespace
}  // namespace plbhec::rt
