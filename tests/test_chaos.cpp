// Tests for the fault-injection seam and the scenario grid: FaultScript
// ordering / validation / capability rejection, scripted faults on the
// simulated cluster (demotion, slow-down, link degradation, determinism),
// the scenario registries and cell-id round-trip, bit-deterministic
// run_cell replay with full grain accounting, and the seam contract
// itself: the same script object, injected into the simulator and played
// against a rig of two real worker daemons, produces the same
// scheduler-visible demotion sequence with zero lost grains on both sides.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "plbhec/apps/synthetic.hpp"
#include "plbhec/chaos/fault.hpp"
#include "plbhec/chaos/net_target.hpp"
#include "plbhec/chaos/scenario.hpp"
#include "plbhec/chaos/sim_target.hpp"
#include "plbhec/core/plb_hec.hpp"
#include "plbhec/net/remote_unit.hpp"
#include "plbhec/net/workerd.hpp"
#include "plbhec/rt/engine.hpp"
#include "plbhec/rt/thread_engine.hpp"

namespace plbhec::chaos {
namespace {

// ---- FaultScript ----------------------------------------------------------

TEST(Script, FluentBuildersSortStablyAndReportDemotions) {
  FaultScript script;
  script.kill(3, 0.5)
      .slow_down(1, 0.1, 0.25)
      .freeze(2, 0.5)  // same time as the kill: insertion order must hold
      .degrade_link(0, 0.2, 1e-3, 0.5)
      .partition(4, 0.9);

  const auto sorted = script.sorted();
  ASSERT_EQ(sorted.size(), 5u);
  EXPECT_EQ(sorted[0].kind, FaultKind::kSlowDown);
  EXPECT_EQ(sorted[1].kind, FaultKind::kLinkDegrade);
  EXPECT_EQ(sorted[2].unit, 3u);  // kill inserted before the tied freeze
  EXPECT_EQ(sorted[3].unit, 2u);
  EXPECT_EQ(sorted[4].kind, FaultKind::kPartition);

  EXPECT_EQ(script.demoted_units(), (std::vector<std::size_t>{3, 2, 4}));
  EXPECT_EQ(script.max_unit(), 4u);
  EXPECT_FALSE(script.empty());
  EXPECT_TRUE(FaultScript{}.empty());
}

TEST(Script, DemotesClassifiesKinds) {
  EXPECT_TRUE(demotes(FaultKind::kKill));
  EXPECT_TRUE(demotes(FaultKind::kFreeze));
  EXPECT_TRUE(demotes(FaultKind::kPartition));
  EXPECT_FALSE(demotes(FaultKind::kSlowDown));
  EXPECT_FALSE(demotes(FaultKind::kLinkDegrade));
}

TEST(Script, InjectRejectsOutOfRangeUnitsDeliveringNothing) {
  sim::SimCluster cluster = make_cluster("u2-mild", 1);
  SimFaultTarget target(cluster);
  FaultScript script;
  script.kill(0, 0.1).kill(5, 0.2);  // unit 5 beyond the 2-unit cluster
  EXPECT_FALSE(validate(script, target));
  EXPECT_FALSE(inject(script, target));
}

// ---- Scripted faults on the simulated cluster -----------------------------

/// Delegating scheduler that records the order in which the engine reports
/// permanent unit failures — the scheduler-visible demotion sequence the
/// seam contract is stated in. The record may be read from another thread
/// while the run is in flight.
class RecordingScheduler final : public rt::Scheduler {
 public:
  explicit RecordingScheduler(std::unique_ptr<rt::Scheduler> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void start(const std::vector<rt::UnitInfo>& units,
             const rt::WorkInfo& work) override {
    inner_->start(units, work);
  }
  [[nodiscard]] std::size_t next_block(rt::UnitId unit,
                                       double now) override {
    return inner_->next_block(unit, now);
  }
  void on_complete(const rt::TaskObservation& obs) override {
    inner_->on_complete(obs);
  }
  void on_barrier(double now) override { inner_->on_barrier(now); }
  void on_unit_failed(rt::UnitId unit, std::size_t lost_grains,
                      double now) override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      failed_order_.push_back(unit);
    }
    recorded_.notify_all();
    inner_->on_unit_failed(unit, lost_grains, now);
  }

  [[nodiscard]] std::vector<rt::UnitId> failed_order() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return failed_order_;
  }

  /// Blocks until `unit`'s failure is recorded or `budget` runs out; true
  /// when it was recorded.
  bool wait_for_failure(rt::UnitId unit,
                        std::chrono::milliseconds budget) const {
    std::unique_lock<std::mutex> lock(mutex_);
    return recorded_.wait_for(lock, budget, [&] {
      return std::find(failed_order_.begin(), failed_order_.end(), unit) !=
             failed_order_.end();
    });
  }

 private:
  std::unique_ptr<rt::Scheduler> inner_;
  mutable std::mutex mutex_;
  mutable std::condition_variable recorded_;
  std::vector<rt::UnitId> failed_order_;
};

rt::RunResult run_sim(sim::SimCluster& cluster, rt::Workload& workload,
                      rt::Scheduler& scheduler, std::uint64_t seed = 7) {
  rt::EngineOptions opts;
  opts.seed = seed;
  opts.record_trace = false;
  rt::SimEngine engine(cluster, opts);
  return engine.run(workload, scheduler);
}

TEST(SimChaos, KillScriptDemotesScriptedUnitsAndConservesGrains) {
  sim::SimCluster cluster = make_cluster("u4-mild", 3);
  const auto workload = make_workload("regular", cluster);

  FaultScript script;
  script.kill(1, 0.2).freeze(3, 0.45);
  SimFaultTarget target(cluster);
  ASSERT_TRUE(inject(script, target));

  RecordingScheduler scheduler(std::make_unique<core::PlbHecScheduler>());
  const rt::RunResult r = run_sim(cluster, *workload, scheduler);
  ASSERT_TRUE(r.ok) << r.error;
  // Zero lost grains: every grain completed despite two mid-run demotions
  // (the in-flight ones were requeued, not dropped).
  EXPECT_EQ(r.grains_completed, workload->total_grains());
  EXPECT_EQ(scheduler.failed_order(),
            (std::vector<rt::UnitId>{1, 3}));
  EXPECT_TRUE(r.unit_stats[1].failed);
  EXPECT_TRUE(r.unit_stats[3].failed);
  EXPECT_FALSE(r.unit_stats[0].failed);
}

TEST(SimChaos, SlowdownStretchesMakespanWithoutDemotion) {
  sim::SimCluster clean = make_cluster("u2-mild", 5);
  sim::SimCluster faulted = make_cluster("u2-mild", 5);
  const auto workload_clean = make_workload("regular", clean);
  const auto workload_faulted = make_workload("regular", faulted);

  FaultScript script;
  script.slow_down(0, 0.1, 0.2).slow_down(1, 0.1, 0.2);
  SimFaultTarget target(faulted);
  ASSERT_TRUE(inject(script, target));

  core::PlbHecScheduler s1;
  core::PlbHecScheduler s2;
  const rt::RunResult base = run_sim(clean, *workload_clean, s1);
  const rt::RunResult slow = run_sim(faulted, *workload_faulted, s2);
  ASSERT_TRUE(base.ok) << base.error;
  ASSERT_TRUE(slow.ok) << slow.error;
  EXPECT_EQ(slow.grains_completed, workload_faulted->total_grains());
  // Both units at 1/5 speed from 10% in: the run must take visibly longer,
  // but nothing may be demoted (QoS degradation, not failure).
  EXPECT_GT(slow.makespan, 1.5 * base.makespan);
  for (const auto& stats : slow.unit_stats) EXPECT_FALSE(stats.failed);
}

TEST(SimChaos, LinkDegradeIsAcceptedBySimAndKeepsGrainsAccounted) {
  sim::SimCluster cluster = make_cluster("u4-extreme", 9);
  const auto workload = make_workload("mixed", cluster);

  FaultScript script;
  for (std::size_t i = 1; i < cluster.size(); i += 2)
    script.degrade_link(i, 0.2, 5e-3, 0.1);
  SimFaultTarget target(cluster);
  EXPECT_TRUE(target.supports(FaultKind::kLinkDegrade));
  ASSERT_TRUE(inject(script, target));

  core::PlbHecScheduler plb;
  const rt::RunResult r = run_sim(cluster, *workload, plb);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.grains_completed, workload->total_grains());
  for (const auto& stats : r.unit_stats) EXPECT_FALSE(stats.failed);
}

TEST(SimChaos, ScriptedRunReplaysBitIdentically) {
  const auto run_once = [] {
    sim::SimCluster cluster = make_cluster("u4-extreme", 11);
    const auto workload = make_workload("irregular", cluster);
    FaultScript script;
    script.kill(2, 0.3).slow_down(0, 0.1, 0.5);
    SimFaultTarget target(cluster);
    EXPECT_TRUE(inject(script, target));
    core::PlbHecScheduler plb;
    return run_sim(cluster, *workload, plb, 123);
  };
  const rt::RunResult a = run_once();
  const rt::RunResult b = run_once();
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(a.makespan, b.makespan);  // bitwise: same timeline, same noise
  EXPECT_EQ(a.grains_completed, b.grains_completed);
  EXPECT_EQ(a.grains_requeued, b.grains_requeued);
  EXPECT_EQ(a.barriers, b.barriers);
}

// ---- Scenario grid --------------------------------------------------------

TEST(Scenario, CellIdRoundTripsForEveryGridCell) {
  for (const ScenarioCell& cell : smoke_grid()) {
    const auto parsed = parse_cell_id(cell.id());
    ASSERT_TRUE(parsed.has_value()) << cell.id();
    EXPECT_EQ(*parsed, cell);
  }
  for (const char* bad :
       {"", "u4-mild", "u4-mild/regular", "u4-mild/regular/none",
        "u3-mild/regular/none@1", "u4-mild/bogus/none@1",
        "u4-mild/regular/bogus@1", "u4-mild/regular/none@",
        "u4-mild/regular/none@x", "u4-mild/regular/none@1 "}) {
    EXPECT_FALSE(parse_cell_id(bad).has_value()) << bad;
  }
}

TEST(Scenario, GridsCoverEveryAxisValue) {
  const auto covers = [](const std::vector<ScenarioCell>& cells) {
    std::set<std::string> shapes;
    std::set<std::string> workloads;
    std::set<std::string> faults;
    for (const auto& c : cells) {
      shapes.insert(c.shape);
      workloads.insert(c.workload);
      faults.insert(c.fault);
    }
    return shapes.size() == shape_names().size() &&
           workloads.size() == workload_names().size() &&
           faults.size() == fault_names().size();
  };
  EXPECT_TRUE(covers(smoke_grid()));
  EXPECT_TRUE(covers(full_grid(1)));
  EXPECT_EQ(full_grid(2).size(), shape_names().size() *
                                     workload_names().size() *
                                     fault_names().size() * 2);
}

TEST(Scenario, FaultScriptsNeverDemoteTheWholeCluster) {
  for (const std::string& fault : fault_names()) {
    for (const std::size_t units : {2u, 4u, 16u, 256u}) {
      const FaultScript script = make_fault_script(fault, units, 1.0);
      const auto demoted = script.demoted_units();
      EXPECT_LT(demoted.size(), units) << fault << " units=" << units;
      for (const std::size_t unit : demoted)
        EXPECT_LT(unit, units) << fault;
      for (const auto& event : script.events)
        EXPECT_LT(event.unit, units) << fault;
    }
  }
}

TEST(Scenario, RunCellReplaysBitIdenticallyAndAccountsEveryGrain) {
  const auto cell = parse_cell_id("u2-extreme/irregular/kill1@1");
  ASSERT_TRUE(cell.has_value());
  const CellResult a = run_cell(*cell);
  const CellResult b = run_cell(*cell);

  // Full grain accounting under a kill: every scheduler finished every
  // grain, and the scripted victim was demoted in every run.
  EXPECT_TRUE(a.grains_accounted);
  ASSERT_EQ(a.outcomes.size(), scheduler_names().size());
  for (const auto& outcome : a.outcomes) {
    EXPECT_TRUE(outcome.ok) << outcome.scheduler << ": " << outcome.error;
    EXPECT_EQ(outcome.grains_completed, a.total_grains) << outcome.scheduler;
    EXPECT_EQ(outcome.lost_grains, 0u) << outcome.scheduler;
    EXPECT_EQ(outcome.failed_units, 1u) << outcome.scheduler;
  }

  // Bit-deterministic replay from the cell id alone: the contract the
  // bench's replay_identical flag and every CI replay command rely on.
  ASSERT_EQ(b.outcomes.size(), a.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].makespan, b.outcomes[i].makespan)
        << a.outcomes[i].scheduler;
    EXPECT_EQ(a.outcomes[i].grains_requeued, b.outcomes[i].grains_requeued);
    EXPECT_EQ(a.outcomes[i].barriers, b.outcomes[i].barriers);
  }
  EXPECT_EQ(a.plb_vs_best, b.plb_vs_best);
  EXPECT_EQ(a.plb_win, b.plb_win);
  EXPECT_EQ(a.best_baseline, b.best_baseline);
  EXPECT_EQ(a.total_grains, b.total_grains);
}

// ---- The seam: real worker daemons ----------------------------------------

TEST(NetChaos, SlowdownsCompoundThroughTheSeam) {
  net::WorkerDaemon daemon({0, "wd", 1.0});
  NetFaultTarget target({&daemon});
  FaultScript script;
  script.slow_down(0, 0.0, 0.5).slow_down(0, 0.0, 0.5);
  ASSERT_TRUE(inject(script, target));
  // Two 0.5x QoS events stack: the daemon now runs at a quarter speed,
  // expressed as a 4x stretch.
  EXPECT_DOUBLE_EQ(daemon.slowdown(), 4.0);
}

TEST(NetChaos, LinkDegradeIsRejectedUpFrontByTheRealRig) {
  net::WorkerDaemon daemon({0, "wd", 1.0});
  NetFaultTarget target({&daemon});
  EXPECT_FALSE(target.supports(FaultKind::kLinkDegrade));
  FaultScript script;
  script.slow_down(0, 0.0, 0.5).degrade_link(0, 0.1, 1e-3, 0.5);
  EXPECT_FALSE(validate(script, target));
  EXPECT_FALSE(inject(script, target));
  // All-or-nothing: the supported slow-down was not delivered either.
  EXPECT_DOUBLE_EQ(daemon.slowdown(), 1.0);
}

TEST(NetChaos, ScriptPlayerDropsEverythingWhenTheRunNeverArms) {
  net::WorkerDaemon daemon({0, "wd", 1.0});
  NetFaultTarget target({&daemon});
  FaultScript script;
  script.kill(0, 0.0).slow_down(0, 0.01, 0.5);
  ScriptPlayer::Options options;
  options.armed = [] { return false; };  // the run "finished" instantly
  options.arm_timeout = std::chrono::milliseconds(50);
  ScriptPlayer player(std::move(script), target, std::move(options));
  player.start();
  player.join();
  EXPECT_EQ(player.delivered_events(), 0u);
  EXPECT_EQ(player.dropped_events(), 2u);
  EXPECT_DOUBLE_EQ(daemon.slowdown(), 1.0);
}

// Tight liveness budget so heartbeat demotion of the frozen daemon is
// fast; mirrors the hand-written failover tests in test_net.cpp.
net::RemoteUnitOptions chaos_rig_options(std::uint16_t port) {
  net::RemoteUnitOptions ro;
  ro.port = port;
  ro.heartbeat_interval_seconds = 0.02;
  ro.max_missed_heartbeats = 3;
  ro.max_reconnect_attempts = 2;
  ro.backoff_initial_seconds = 0.01;
  ro.backoff_max_seconds = 0.05;
  return ro;
}

// Generous heartbeat budget for the unit whose fault is a kill: crash
// detection rides the immediate I/O error, so the wide heartbeat window
// costs nothing there, while it keeps a starved-but-healthy daemon from
// being falsely demoted *before* its scripted kill lands (which would
// scramble the demotion order under a parallel ctest run).
net::RemoteUnitOptions steady_rig_options(std::uint16_t port) {
  net::RemoteUnitOptions ro = chaos_rig_options(port);
  ro.heartbeat_interval_seconds = 0.2;
  ro.max_missed_heartbeats = 15;
  return ro;
}

/// Event gate for a real-rig unit that a script faults last: forwards the
/// unit's first block, then holds every later block until `release`
/// returns before forwarding it. With `release` waiting for the
/// ScriptPlayer to finish, the unit always has a block outstanding when
/// the script's last event lands, so the run cannot complete before it,
/// and that block meets the fault exactly as a block in flight does.
class HoldAfterFirstBlock final : public rt::ExecUnit {
 public:
  HoldAfterFirstBlock(std::unique_ptr<rt::ExecUnit> inner,
                      std::function<void()> release)
      : inner_(std::move(inner)), release_(std::move(release)) {}

  [[nodiscard]] rt::UnitInfo describe() const override {
    return inner_->describe();
  }
  [[nodiscard]] bool begin_run(rt::Workload& workload) override {
    return inner_->begin_run(workload);
  }
  [[nodiscard]] bool execute(rt::Workload& workload, std::size_t begin,
                             std::size_t end,
                             rt::BlockTiming& timing) override {
    if (blocks_++ > 0) release_();
    return inner_->execute(workload, begin, end, timing);
  }
  void end_run() override { inner_->end_run(); }

 private:
  std::unique_ptr<rt::ExecUnit> inner_;
  std::function<void()> release_;
  std::size_t blocks_ = 0;  ///< only the unit's engine worker touches it
};

/// Event gate for the order of two demotions on a real rig: forwards every
/// event to `inner`, but delivers an event on `gated` only once
/// `scheduler` has recorded `prior`'s failure. The wait is bounded by
/// `budget`; if the earlier demotion never comes, the event goes through
/// late and the run's demotion record shows it.
class AfterFailure final : public FaultTarget {
 public:
  AfterFailure(FaultTarget& inner, const RecordingScheduler& scheduler,
               rt::UnitId prior, std::size_t gated,
               std::chrono::milliseconds budget)
      : inner_(inner),
        scheduler_(scheduler),
        prior_(prior),
        gated_(gated),
        budget_(budget) {}

  [[nodiscard]] std::size_t unit_count() const override {
    return inner_.unit_count();
  }
  [[nodiscard]] bool supports(FaultKind kind) const override {
    return inner_.supports(kind);
  }
  void deliver(const FaultEvent& event) override {
    if (event.unit == gated_)
      (void)scheduler_.wait_for_failure(prior_, budget_);
    inner_.deliver(event);
  }

 private:
  FaultTarget& inner_;
  const RecordingScheduler& scheduler_;
  rt::UnitId prior_;
  std::size_t gated_;
  std::chrono::milliseconds budget_;
};

TEST(NetChaos, SameScriptProducesSameDemotionSequenceOnBothSidesOfSeam) {
  // One script, written once: freeze unit 1 early, kill unit 2 later.
  // The seam contract (fault.hpp): the scheduler-visible outcome — the
  // demotion sequence and zero lost grains — is identical whether the
  // script lands on the simulated cluster's virtual timeline or on real
  // worker daemons via the wall-clock player.
  FaultScript script;
  script.freeze(1, 0.05).kill(2, 0.6);

  // Sim side: a 3-unit cluster, workload weak-scaled to a >= 1 s virtual
  // horizon, so both scripted times land mid-run.
  std::vector<rt::UnitId> sim_order;
  {
    sim::SimCluster cluster = make_cluster("u3-mild", 17);
    ASSERT_EQ(cluster.size(), 3u);
    const auto workload = make_workload("regular", cluster);
    SimFaultTarget target(cluster);
    ASSERT_TRUE(inject(script, target));
    RecordingScheduler scheduler(std::make_unique<core::PlbHecScheduler>());
    const rt::RunResult r = run_sim(cluster, *workload, scheduler);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.grains_completed, workload->total_grains());
    ASSERT_GT(r.makespan, 0.6);  // both events landed before the end
    sim_order = scheduler.failed_order();
  }

  // Real side: unit 0 is coordinator-local, units 1 and 2 are daemons.
  // The player arms once both daemons have served a block (the run is
  // demonstrably in flight on every scripted unit), then replays the
  // same script in wall time. Both orders are event-gated, not raced:
  // unit 2's kill waits until the scheduler has seen unit 1's freeze
  // demote it, however long heartbeat detection takes on a loaded host;
  // and unit 2, whose kill is the script's last event, holds every block
  // after its first until the player has delivered the whole script, so
  // the kill always lands on a block in flight however fast the rig runs.
  std::vector<rt::UnitId> net_order;
  {
    net::WorkerDaemon d1({0, "wd1", 1.0});
    net::WorkerDaemon d2({0, "wd2", 1.0});
    NetFaultTarget rig({nullptr, &d1, &d2});
    RecordingScheduler scheduler(std::make_unique<core::PlbHecScheduler>());
    AfterFailure target(rig, scheduler, 1, 2, std::chrono::seconds(30));

    ScriptPlayer::Options options;
    options.armed = [&] {
      return d1.blocks_served() > 0 && d2.blocks_served() > 0;
    };
    ScriptPlayer player(script, target, std::move(options));

    std::vector<std::unique_ptr<rt::ExecUnit>> units;
    units.push_back(std::make_unique<rt::LocalExecUnit>(
        rt::LocalExecUnit::Options{"local0", 1.0}));
    units.push_back(
        std::make_unique<net::RemoteUnit>(chaos_rig_options(d1.port())));
    units.push_back(std::make_unique<HoldAfterFirstBlock>(
        std::make_unique<net::RemoteUnit>(steady_rig_options(d2.port())),
        [&player] { player.join(); }));
    rt::ThreadEngine engine(rt::ThreadEngineOptions{}, std::move(units));

    apps::SyntheticWorkload workload(apps::SyntheticWorkload::Config{
        40'000, 1e6, 64.0, 16.0, 2.0, 0.97, 0.5, 0.5, 6'000});

    player.start();

    const rt::RunResult r = engine.run(workload, scheduler);
    player.join();
    d1.unfreeze();

    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(player.delivered_events(), script.events.size());
    EXPECT_EQ(player.dropped_events(), 0u);
    // Zero lost grains on the real rig too: every grain executed exactly
    // once despite the hang and the crash.
    EXPECT_EQ(workload.executed_grains(), 40'000u);
    EXPECT_TRUE(r.unit_stats[1].failed);
    EXPECT_TRUE(r.unit_stats[2].failed);
    net_order = scheduler.failed_order();
    d1.stop();
    d2.stop();
  }

  // The seam contract: same demotion sequence, and it is exactly the
  // script's own demotion order.
  EXPECT_EQ(sim_order, script.demoted_units());
  EXPECT_EQ(net_order, sim_order);
}

}  // namespace
}  // namespace plbhec::chaos
