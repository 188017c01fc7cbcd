// Scheduler behavior tests: PLB-HeC's phase structure, block selection
// quality and rebalancing; greedy, HDSS, Acosta and the static-profile
// oracle baseline. Uses the simulated engine with controlled noise.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "plbhec/apps/matmul.hpp"
#include "plbhec/apps/synthetic.hpp"
#include "plbhec/baselines/acosta.hpp"
#include "plbhec/baselines/greedy.hpp"
#include "plbhec/baselines/hdss.hpp"
#include "plbhec/baselines/static_profile.hpp"
#include "plbhec/common/rng.hpp"
#include "plbhec/core/plb_hec.hpp"
#include "plbhec/fit/least_squares.hpp"
#include "plbhec/rt/engine.hpp"
#include "plbhec/sim/machine.hpp"

namespace plbhec {
namespace {

apps::SyntheticWorkload::Config medium_config() {
  apps::SyntheticWorkload::Config c;
  c.grains = 20'000;
  c.flops_per_grain = 5e7;
  c.bytes_per_grain = 2048;
  c.gpu_threads_per_grain = 32;
  return c;
}

rt::RunResult run_with(rt::Scheduler& sched, rt::Workload& w,
                       std::size_t machines = 2, std::uint64_t seed = 42) {
  sim::SimCluster cluster(sim::scenario(machines));
  rt::EngineOptions opts;
  opts.seed = seed;
  rt::SimEngine engine(cluster, opts);
  return engine.run(w, sched);
}

TEST(PlbHec, CompletesAndSelectsOnce) {
  apps::SyntheticWorkload w(medium_config());
  core::PlbHecScheduler plb;
  const rt::RunResult r = run_with(plb, w);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GE(plb.stats().solves, 1u);
  EXPECT_GE(plb.stats().probe_rounds, 4u);
  EXPECT_EQ(plb.fractions().size(), r.units.size());
}

TEST(PlbHec, FractionsSumToOne) {
  apps::SyntheticWorkload w(medium_config());
  core::PlbHecScheduler plb;
  const rt::RunResult r = run_with(plb, w, 4);
  ASSERT_TRUE(r.ok);
  const double sum = std::accumulate(plb.fractions().begin(),
                                     plb.fractions().end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(PlbHec, ModelingRespectsDataCap) {
  apps::SyntheticWorkload w(medium_config());
  core::PlbHecOptions opts;
  opts.modeling_data_cap = 0.10;
  core::PlbHecScheduler plb(opts);
  const rt::RunResult r = run_with(plb, w);
  ASSERT_TRUE(r.ok);
  // Budgeted probes stop at the cap; only 1-grain keep-busy fillers (while
  // the slowest units finish their minimum probe count) may run past it,
  // so the overshoot must stay bounded by the cap itself.
  EXPECT_LE(plb.stats().modeling_grains, 2.0 * 0.10 * 20'000);
}

TEST(PlbHec, ModelsAreFittedForEveryUnit) {
  apps::SyntheticWorkload w(medium_config());
  core::PlbHecScheduler plb;
  const rt::RunResult r = run_with(plb, w);
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(plb.models().size(), r.units.size());
  for (const auto& m : plb.models()) EXPECT_TRUE(m.valid());
}

TEST(PlbHec, MaxBlockSecondsCapsExecutionBlocks) {
  // Bounded preemption latency (the warm-start-regression fix): with a
  // one-unit lease the equal-time selection hands the whole step_fraction
  // window (2500 grains, 2.5 s at 1 ms/grain) to that unit as a single
  // block. The service can only revoke or grow leases at block
  // boundaries, so max_block_seconds must clamp the block to the bound's
  // worth of predicted work.
  core::PlbHecOptions opts;
  opts.max_block_seconds = 0.010;
  core::PlbHecScheduler plb(opts);
  std::vector<rt::UnitInfo> units(1);
  units[0].id = 0;
  units[0].name = "slow.cpu";
  rt::WorkInfo work;
  work.name = "synthetic";
  work.total_grains = 10'000;
  work.initial_block = 16;
  plb.start(units, work);

  constexpr double kPerGrain = 1e-3;
  double now = 0.0;
  for (int i = 0; i < 64 && plb.stats().solves == 0; ++i) {
    const std::size_t g = plb.next_block(0, now);
    ASSERT_GT(g, 0u);
    rt::TaskObservation obs;
    obs.unit = 0;
    obs.grains = g;
    obs.exec_seconds = kPerGrain * static_cast<double>(g);
    obs.start_time = now;
    obs.finish_time = now + obs.exec_seconds;
    now = obs.finish_time;
    plb.on_complete(obs);
  }
  ASSERT_GE(plb.stats().solves, 1u);  // execution phase reached

  const std::size_t capped = plb.next_block(0, now);
  EXPECT_GE(capped, 1u);
  EXPECT_LE(capped,
            static_cast<std::size_t>(opts.max_block_seconds / kPerGrain));

  // The default (0) keeps the paper's behavior: the same drive without
  // the cap issues the full window in one block.
  core::PlbHecScheduler uncapped;
  uncapped.start(units, work);
  now = 0.0;
  for (int i = 0; i < 64 && uncapped.stats().solves == 0; ++i) {
    const std::size_t g = uncapped.next_block(0, now);
    ASSERT_GT(g, 0u);
    rt::TaskObservation obs;
    obs.unit = 0;
    obs.grains = g;
    obs.exec_seconds = kPerGrain * static_cast<double>(g);
    obs.start_time = now;
    obs.finish_time = now + obs.exec_seconds;
    now = obs.finish_time;
    uncapped.on_complete(obs);
  }
  ASSERT_GE(uncapped.stats().solves, 1u);
  EXPECT_GT(uncapped.next_block(0, now), 1'000u);
}

TEST(PlbHec, PricesBlocksAsTransferPlusExecWhateverTheirSpan) {
  // A pipelined transport finishes a block sooner than transfer + exec.
  // The scheduler prices every block by the paper's Eq. 1 all the same,
  // so one observation stream must drive the same decisions whether each
  // block's span hid its smaller phase entirely or ran the phases end to
  // end. Completions arrive round-robin, so the order is the same too.
  struct Pass {
    std::vector<std::size_t> blocks;
    std::vector<std::vector<double>> fractions;
  };
  const auto drive = [](bool overlapped) {
    std::vector<rt::UnitInfo> units(2);
    units[0].name = "fast";
    units[1].id = 1;
    units[1].name = "slow";
    rt::WorkInfo work;
    work.name = "synthetic";
    work.total_grains = 20'000;
    work.initial_block = 16;
    core::PlbHecScheduler plb;
    plb.start(units, work);

    // Per-grain kernel and wire costs; the wire is comparable to the
    // kernel, so an overlapped span is well below the serial sum.
    constexpr double kExec[2] = {1e-3, 3e-3};
    constexpr double kWire[2] = {0.8e-3, 2e-3};
    double clock[2] = {0.0, 0.0};
    std::size_t remaining = work.total_grains;
    Pass pass;
    while (remaining > 0) {
      for (rt::UnitId u = 0; u < 2 && remaining > 0; ++u) {
        const std::size_t g = std::min(plb.next_block(u, clock[u]), remaining);
        EXPECT_GT(g, 0u);
        if (g == 0) return pass;
        remaining -= g;
        pass.blocks.push_back(g);
        rt::TaskObservation obs;
        obs.unit = u;
        obs.grains = g;
        obs.exec_seconds = 1e-4 + kExec[u] * static_cast<double>(g);
        obs.transfer_seconds = 2e-4 + kWire[u] * static_cast<double>(g);
        obs.start_time = clock[u];
        obs.finish_time =
            clock[u] + (overlapped
                            ? std::max(obs.exec_seconds, obs.transfer_seconds)
                            : obs.exec_seconds + obs.transfer_seconds);
        clock[u] = obs.finish_time;
        plb.on_complete(obs);
      }
    }
    pass.fractions = plb.stats().fraction_history;
    return pass;
  };
  const Pass pipelined = drive(/*overlapped=*/true);
  const Pass serial = drive(/*overlapped=*/false);
  ASSERT_FALSE(serial.fractions.empty());
  EXPECT_EQ(pipelined.fractions, serial.fractions);
  EXPECT_EQ(pipelined.blocks, serial.blocks);
}

TEST(PlbHec, GpuGetsLargerShareThanCpuOnComputeBoundWork) {
  // Machine A: Tesla K20c vs 10-core Xeon — the GPU must win a compute-
  // bound division (the paper's Fig. 6 observation).
  apps::MatMulWorkload w(16384);
  core::PlbHecScheduler plb;
  const rt::RunResult r = run_with(plb, w, 1);
  ASSERT_TRUE(r.ok);
  EXPECT_GT(plb.fractions()[1], plb.fractions()[0]);
}

TEST(PlbHec, SelectedSharesTrackOracle) {
  apps::MatMulWorkload w(16384);
  sim::SimCluster cluster(sim::scenario(4, true));
  rt::SimEngine engine(cluster, {});
  core::PlbHecScheduler plb;
  const rt::RunResult r = engine.run(w, plb);
  ASSERT_TRUE(r.ok);
  const auto oracle = baselines::oracle_static_weights(
      cluster, w.profile(), w.total_grains(), w.bytes_per_grain());
  for (std::size_t u = 0; u < oracle.size(); ++u)
    EXPECT_NEAR(plb.fractions()[u], oracle[u], 0.35 * oracle[u] + 0.01)
        << r.units[u].name;
}

TEST(PlbHec, RebalanceTriggersOnQosChange) {
  apps::SyntheticWorkload w(medium_config());
  sim::SimCluster cluster(sim::scenario(2));
  // Halve the GPU of machine A mid-run: durations diverge -> rebalance.
  cluster.add_speed_event(1, 0.0, 1.0);
  core::PlbHecScheduler probe_only;  // first run to estimate makespan
  rt::SimEngine engine(cluster, {});
  const rt::RunResult probe_run = engine.run(w, probe_only);
  ASSERT_TRUE(probe_run.ok);

  cluster.add_speed_event(1, probe_run.makespan * 0.5, 0.25);
  core::PlbHecScheduler plb;
  const rt::RunResult r = engine.run(w, plb);
  ASSERT_TRUE(r.ok) << r.error;
  // The scheduler must have adapted: either a threshold rebalance fired or
  // a progressive refinement re-solved after the drop; in all cases the
  // selection ran more than once.
  EXPECT_GE(plb.stats().rebalances + plb.stats().refinements, 1u);
  EXPECT_GE(plb.stats().solves, 2u);
}

TEST(PlbHec, SurvivesUnitFailureAndResolves) {
  apps::SyntheticWorkload w(medium_config());
  sim::SimCluster cluster(sim::scenario(2));
  core::PlbHecScheduler probe_only;
  rt::SimEngine engine(cluster, {});
  const rt::RunResult probe_run = engine.run(w, probe_only);
  ASSERT_TRUE(probe_run.ok);

  cluster.fail_unit(3, probe_run.makespan * 0.5);
  core::PlbHecScheduler plb;
  const rt::RunResult r = engine.run(w, plb);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.unit_stats[3].failed);
  std::size_t done = 0;
  for (const auto& s : r.unit_stats) done += s.grains;
  EXPECT_EQ(done, w.total_grains());
  // The failed unit's share was redistributed.
  EXPECT_DOUBLE_EQ(plb.fractions()[3], 0.0);
}

TEST(PlbHec, SingleUnitDegeneratesGracefully) {
  apps::SyntheticWorkload w(medium_config());
  sim::SimCluster cluster(
      std::vector<sim::MachineConfig>{sim::machine_a()});
  // Strip to one unit by failing the CPU immediately.
  cluster.fail_unit(0, 0.0);
  rt::SimEngine engine(cluster, {});
  core::PlbHecScheduler plb;
  const rt::RunResult r = engine.run(w, plb);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.unit_stats[1].grains, w.total_grains());
}

TEST(PlbHec, SolveTimesRecorded) {
  apps::SyntheticWorkload w(medium_config());
  core::PlbHecScheduler plb;
  const rt::RunResult r = run_with(plb, w);
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(plb.stats().solve_seconds.size(), plb.stats().solves);
  for (double s : plb.stats().solve_seconds) {
    EXPECT_GE(s, 0.0);
    EXPECT_LT(s, 10.0);
  }
}

TEST(PlbHec, HonorsExplicitInitialBlock) {
  apps::SyntheticWorkload w(medium_config());
  core::PlbHecOptions opts;
  opts.initial_block = 13;
  core::PlbHecScheduler plb(opts);
  sim::SimCluster cluster(sim::scenario(1));
  rt::EngineOptions eopts;
  eopts.noise = sim::NoiseModel::none();
  rt::SimEngine engine(cluster, eopts);
  const rt::RunResult r = engine.run(w, plb);
  ASSERT_TRUE(r.ok);
  // The first probe block of every unit is exactly initial_block.
  std::vector<bool> seen(r.units.size(), false);
  for (const auto& seg : r.trace.segments()) {
    if (seg.kind != rt::SegmentKind::kExec) continue;
    if (!seen[seg.unit]) {
      EXPECT_EQ(seg.grains, 13u) << "unit " << seg.unit;
      seen[seg.unit] = true;
    }
  }
}

// ---- PLB-HeC's running counts against the scanning rule ------------------

/// PLB-HeC's modeling-phase rule as it read when every callback rescanned
/// every unit. Probe k of a unit is initial * min(2^k, 8) * clamp(tau_f /
/// tau_self), where tau_f is the smallest positive marginal cost over the
/// alive units, clamped to what is left of the 20 % budget. The phase ends
/// once every alive unit has kMinProbeRounds probes and an acceptable fit,
/// or once the data cap is hit with every alive unit at three probes or
/// more. A refinement fires on the completion that gives the last alive
/// unit a sample of the current selection.
class ScanningRule {
 public:
  struct Unit {
    bool failed = false;
    bool warm_pending = false;
    std::size_t probes = 0;
    double last_grains = 0.0;
    double last_time = 0.0;
    double prev_grains = 0.0;
    double prev_time = 0.0;
    std::size_t issue_solves = 0;  ///< selections made when its block left
    bool sampled = false;  ///< completed a block of the current selection
  };

  ScanningRule(std::size_t units, std::size_t total, std::size_t initial,
               const std::vector<rt::WarmProfile>& warm)
      : units_(units), total_(total), initial_(initial) {
    for (rt::UnitId u = 0; u < warm.size(); ++u)
      units_[u].warm_pending = warm[u].usable();
  }

  [[nodiscard]] bool modeling() const { return modeling_; }
  [[nodiscard]] const Unit& unit(rt::UnitId u) const { return units_[u]; }
  [[nodiscard]] std::size_t alive() const {
    return static_cast<std::size_t>(std::count_if(
        units_.begin(), units_.end(), [](const Unit& s) { return !s.failed; }));
  }

  [[nodiscard]] static double marginal_tau(const Unit& s) {
    if (s.last_grains <= 0.0 || s.last_time <= 0.0) return 0.0;
    const double avg = s.last_time / s.last_grains;
    if (s.prev_grains > 0.0 && s.last_grains != s.prev_grains) {
      const double marg =
          (s.last_time - s.prev_time) / (s.last_grains - s.prev_grains);
      return std::clamp(marg, avg / 16.0, avg * 16.0);
    }
    return avg;
  }

  [[nodiscard]] std::size_t probe_block(rt::UnitId u) const {
    const Unit& self = units_[u];
    const double multiplier =
        self.warm_pending
            ? 1.0
            : std::min(std::pow(2.0, static_cast<double>(self.probes)),
                       static_cast<double>(core::kMaxProbeMultiplier));
    double tau_f = 0.0;
    for (const Unit& s : units_) {
      if (s.failed) continue;
      const double tau = marginal_tau(s);
      if (tau <= 0.0) continue;
      if (tau_f == 0.0 || tau < tau_f) tau_f = tau;
    }
    double scale = 1.0;
    const double tau_self = marginal_tau(self);
    if (tau_f > 0.0 && tau_self > 0.0)
      scale = std::clamp(tau_f / tau_self, 1.0 / 1024.0, 8.0);
    double size = multiplier * static_cast<double>(initial_) * scale;
    const double budget =
        kCap * static_cast<double>(total_) - static_cast<double>(issued_);
    size = std::min(size, std::max(budget, 1.0));
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(size)));
  }

  void issue(rt::UnitId u, std::size_t block, std::size_t solves) {
    if (modeling_) issued_ += block;
    units_[u].issue_solves = solves;
  }

  /// A modeling-phase completion; `hit` says a pending warm validation
  /// passed. True when the phase ends on it.
  bool probe_done(const rt::TaskObservation& obs, bool hit,
                  const rt::ProfileDb& db) {
    Unit& s = units_[obs.unit];
    grains_ += static_cast<double>(obs.grains);
    s.prev_grains = s.last_grains;
    s.prev_time = s.last_time;
    s.last_grains = static_cast<double>(obs.grains);
    s.last_time = obs.transfer_seconds + obs.exec_seconds;
    s.probes = hit ? core::kMinProbeRounds : s.probes + 1;
    s.warm_pending = false;

    const double cap = kCap * static_cast<double>(total_);
    bool data_cap_hit = grains_ + static_cast<double>(alive()) >= cap;
    bool enough_samples = true;
    for (const Unit& v : units_) {
      if (v.failed) continue;
      if (v.probes < core::kMinProbeRounds) enough_samples = false;
      if (v.probes < 3) data_cap_hit = false;
    }
    bool fits_acceptable = false;
    if (enough_samples && !data_cap_hit) {
      fits_acceptable = true;
      for (rt::UnitId u = 0; u < units_.size(); ++u) {
        if (units_[u].failed) continue;
        if (!db.exec_fit(u).acceptable) {
          fits_acceptable = false;
          break;
        }
      }
    }
    return end_modeling_if((enough_samples && fits_acceptable) ||
                           data_cap_hit);
  }

  /// A modeling-phase barrier always ends the phase.
  bool barrier() { return end_modeling_if(modeling_); }

  /// An execution-phase completion; true when it fires a refinement.
  bool exec_done(rt::UnitId u, std::size_t solves,
                 std::size_t refinements_left) {
    if (units_[u].issue_solves == solves) units_[u].sampled = true;
    if (refinements_left == 0) return false;
    return std::none_of(units_.begin(), units_.end(), [](const Unit& s) {
      return !s.failed && !s.sampled;
    });
  }

  void new_selection() {
    for (Unit& s : units_) s.sampled = false;
  }
  void fail(rt::UnitId u) { units_[u].failed = true; }

 private:
  static constexpr double kCap = 0.20;  // PlbHecOptions::modeling_data_cap

  bool end_modeling_if(bool ends) {
    if (ends) modeling_ = false;
    return ends;
  }

  std::vector<Unit> units_;
  std::size_t total_;
  std::size_t initial_;
  std::size_t issued_ = 0;
  double grains_ = 0.0;
  bool modeling_ = true;
};

struct CountsScenario {
  std::size_t units;
  std::size_t total;
  std::uint64_t seed;
  std::size_t initial_divisor;  ///< initial block = total / (this * units)
  bool fail_mid_modeling;  ///< fail the fastest unit, then one under 3 probes
  bool drain_mid_modeling;  ///< hold blocks back until a barrier
};

struct CountsRun {
  std::string mismatch;  ///< the first disagreement; empty when none
  std::size_t probes_checked = 0;
  std::size_t phase_change_at = 0;  ///< the completion that ended it; 0 = none
  bool phase_changed_at_barrier = false;
  std::size_t refinements = 0;
  std::size_t warm_hits = 0;
  std::size_t warm_misses = 0;
  bool fastest_failed = false;  ///< while modeling
  bool young_failed = false;    ///< a unit under 3 probes, while modeling
  bool finished = false;        ///< every grain completed
};

/// Drives a PLB-HeC scheduler through a seeded event-driven run the way the
/// simulated dispatcher does (idle units asked in id order, blocks clamped
/// to the pool, a barrier when everything is idle with grains left) and
/// checks each decision against ScanningRule.
CountsRun run_against_scanning_rule(const CountsScenario& sc) {
  const std::size_t n = sc.units;
  const std::size_t initial =
      std::max<std::size_t>(1, sc.total / (sc.initial_divisor * n));
  Rng rng(sc.seed);
  // Per-grain cost over a 30x range, a fixed overhead of up to 200 grains'
  // worth (a flat small-block curve, where marginal and average cost
  // differ), and a wire a tenth as costly.
  std::vector<double> per_grain(n);
  std::vector<double> overhead(n);
  for (rt::UnitId u = 0; u < n; ++u) {
    per_grain[u] = 1e-5 * std::exp(rng.uniform(0.0, std::log(30.0)));
    overhead[u] = per_grain[u] * rng.uniform(0.0, 200.0);
  }
  const auto exec_time = [&](rt::UnitId u, double grains) {
    return overhead[u] + per_grain[u] * grains;
  };

  // Warm profiles on every third unit, alternately from the unit's own
  // curve (a hit) and from one three times slower (a miss).
  core::PlbHecOptions options;
  options.initial_block = initial;
  options.warm.resize(n);
  for (rt::UnitId u = 0; u < n; u += 3) {
    const double off = (u / 3) % 2 == 0 ? 1.0 : 3.0;
    rt::WarmProfile& warm = options.warm[u];
    warm.total_grains = static_cast<double>(sc.total);
    for (std::size_t i = 0; i < 6; ++i) {
      const double g = static_cast<double>(initial << i);
      const double x = g / static_cast<double>(sc.total);
      warm.exec.add(x, off * exec_time(u, g));
      warm.transfer.add(x, off * 0.1 * per_grain[u] * g);
    }
    warm.fit = fit::select_model(warm.exec);
  }

  std::vector<rt::UnitInfo> infos(n);
  for (rt::UnitId u = 0; u < n; ++u) infos[u].id = u;
  rt::WorkInfo work;
  work.name = "counts";
  work.total_grains = sc.total;
  core::PlbHecScheduler plb(options);
  plb.start(infos, work);
  ScanningRule rule(n, sc.total, initial, options.warm);

  CountsRun run;
  const auto disagree = [&run](std::string what) {
    if (run.mismatch.empty()) run.mismatch = std::move(what);
  };
  std::vector<rt::TaskObservation> in_flight;  // at most one per unit
  std::vector<bool> busy(n, false);
  std::vector<bool> dead(n, false);
  std::size_t unassigned = sc.total;
  std::size_t completed = 0;
  std::size_t completions = 0;
  double now = 0.0;
  bool draining = false;

  const auto offer_idle = [&] {
    for (rt::UnitId u = 0; u < n && run.mismatch.empty(); ++u) {
      if (busy[u] || dead[u] || unassigned == 0) continue;
      const bool modeling = rule.modeling();
      const std::size_t expected = modeling ? rule.probe_block(u) : 0;
      const std::size_t asked = plb.next_block(u, now);
      if (modeling) {
        ++run.probes_checked;
        if (asked != expected)
          disagree("probe for unit " + std::to_string(u) + " after " +
                   std::to_string(completions) + " completions: " +
                   std::to_string(asked) + " grains, the scan says " +
                   std::to_string(expected));
      }
      if (asked == 0) continue;
      rule.issue(u, asked, plb.stats().solves);
      const std::size_t grains = std::min(asked, unassigned);
      const double g = static_cast<double>(grains);
      rt::TaskObservation obs;
      obs.unit = u;
      obs.grains = grains;
      obs.exec_seconds = exec_time(u, g) * rng.lognormal_factor(0.03);
      obs.transfer_seconds =
          0.1 * per_grain[u] * g * rng.lognormal_factor(0.03);
      obs.start_time = now;
      obs.finish_time = now + obs.exec_seconds + obs.transfer_seconds;
      in_flight.push_back(obs);
      busy[u] = true;
      unassigned -= grains;
    }
  };
  const auto fail = [&](rt::UnitId u) {
    std::size_t lost = 0;
    const auto it = std::find_if(
        in_flight.begin(), in_flight.end(),
        [u](const rt::TaskObservation& t) { return t.unit == u; });
    if (it != in_flight.end()) {
      lost = it->grains;
      in_flight.erase(it);
    }
    unassigned += lost;
    busy[u] = false;
    dead[u] = true;
    const std::size_t solves = plb.stats().solves;
    plb.on_unit_failed(u, lost, now);
    rule.fail(u);
    if (plb.stats().solves != solves) rule.new_selection();
  };
  const auto barrier = [&] {
    const std::size_t solves = plb.stats().solves;
    const bool modeling = rule.modeling();
    plb.on_barrier(now);
    if (modeling) {
      rule.barrier();
      run.phase_changed_at_barrier = true;
    }
    if (plb.stats().solves != solves) rule.new_selection();
    if (modeling != (plb.stats().solves > solves))
      disagree("a barrier moved the phase against the scan");
  };

  offer_idle();
  while (!in_flight.empty() && run.mismatch.empty()) {
    const auto next = std::min_element(
        in_flight.begin(), in_flight.end(),
        [](const rt::TaskObservation& a, const rt::TaskObservation& b) {
          return a.finish_time < b.finish_time;
        });
    const rt::TaskObservation obs = *next;
    in_flight.erase(next);
    now = obs.finish_time;
    busy[obs.unit] = false;
    completed += obs.grains;
    ++completions;

    const core::PlbHecStats& stats = plb.stats();
    const std::size_t solves = stats.solves;
    const std::size_t refinements = stats.refinements;
    const std::size_t hits = stats.warm_hits;
    const std::size_t misses = stats.warm_misses;
    const bool modeling = rule.modeling();
    plb.on_complete(obs);
    run.warm_hits += stats.warm_hits - hits;
    run.warm_misses += stats.warm_misses - misses;
    if (modeling) {
      const bool ends = rule.probe_done(obs, stats.warm_hits > hits,
                                        plb.profiles());
      if (ends) run.phase_change_at = completions;
      if (ends != (stats.solves > solves))
        disagree("completion " + std::to_string(completions) +
                 (ends ? " ends" : " does not end") +
                 " the modeling phase by the scan, not by the scheduler");
    } else {
      const bool refines =
          rule.exec_done(obs.unit, solves, options.refinements - refinements);
      run.refinements += stats.refinements - refinements;
      if (refines != (stats.refinements > refinements))
        disagree("completion " + std::to_string(completions) +
                 (refines ? " refines" : " does not refine") +
                 " by the scan, not by the scheduler");
    }
    if (stats.solves != solves) rule.new_selection();

    if (sc.fail_mid_modeling && rule.modeling() && rule.alive() > 1) {
      if (!run.fastest_failed && completions == n + 1) {
        rt::UnitId fastest = n;
        double best = 0.0;
        for (rt::UnitId u = 0; u < n; ++u) {
          const double tau = ScanningRule::marginal_tau(rule.unit(u));
          if (rule.unit(u).failed || tau <= 0.0) continue;
          if (fastest == n || tau < best) {
            fastest = u;
            best = tau;
          }
        }
        if (fastest < n) {
          fail(fastest);
          run.fastest_failed = true;
        }
      } else if (!run.young_failed && completions >= 2 * n) {
        for (rt::UnitId u = n; u-- > 0;) {
          if (rule.unit(u).failed || rule.unit(u).probes >= 3) continue;
          fail(u);
          run.young_failed = true;
          break;
        }
      }
    }
    if (sc.drain_mid_modeling && rule.modeling() && completions == n + n / 2)
      draining = true;
    if (!draining) offer_idle();
    if (in_flight.empty() && unassigned > 0) {
      draining = false;
      barrier();
      offer_idle();
    }
  }
  run.finished = completed == sc.total;
  return run;
}

TEST(PlbHecCounts, MatchTheScanningRuleProbeByProbe) {
  // {units, total, seed, initial divisor, fail, drain}. Divisor 64 is the
  // scenario grid's first probe, which spends the budget before the fits
  // are in; 512 leaves the fits to end the phase.
  const CountsScenario scenarios[] = {
      {1, 20'000, 1, 64, false, false},   {2, 20'000, 2, 64, true, false},
      {7, 20'000, 7, 64, true, false},    {7, 200'000, 8, 512, true, false},
      {7, 50'000, 9, 64, false, true},    {300, 96'000, 300, 64, true, false},
      {300, 96'000, 301, 64, false, true},
  };
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t refinements = 0;
  for (const CountsScenario& sc : scenarios) {
    SCOPED_TRACE("units " + std::to_string(sc.units) + ", seed " +
                 std::to_string(sc.seed));
    const CountsRun run = run_against_scanning_rule(sc);
    EXPECT_EQ(run.mismatch, "");
    EXPECT_TRUE(run.finished);
    EXPECT_GE(run.probes_checked, sc.units);
    EXPECT_TRUE(run.phase_change_at > 0 || run.phase_changed_at_barrier);
    if (sc.fail_mid_modeling) {
      EXPECT_TRUE(run.fastest_failed);
      EXPECT_TRUE(run.young_failed || sc.units == 2);
    }
    if (sc.drain_mid_modeling) {
      EXPECT_TRUE(run.phase_changed_at_barrier);
    }
    hits += run.warm_hits;
    misses += run.warm_misses;
    refinements += run.refinements;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_GT(refinements, 0u);
}

TEST(Greedy, FixedPieces) {
  apps::SyntheticWorkload w(medium_config());
  baselines::GreedyScheduler greedy(128);
  const rt::RunResult r = run_with(greedy, w);
  ASSERT_TRUE(r.ok);
  for (const auto& seg : r.trace.segments())
    if (seg.kind == rt::SegmentKind::kExec) EXPECT_LE(seg.grains, 128u);
}

TEST(Greedy, FasterUnitsTakeMorePieces) {
  apps::MatMulWorkload w(8192);
  baselines::GreedyScheduler greedy;
  const rt::RunResult r = run_with(greedy, w, 1);
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.unit_stats[1].tasks, r.unit_stats[0].tasks);  // GPU > CPU
}

TEST(Hdss, ReachesCompletionPhase) {
  apps::SyntheticWorkload w(medium_config());
  baselines::HdssScheduler hdss;
  const rt::RunResult r = run_with(hdss, w);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(hdss.in_completion_phase());
}

TEST(Hdss, WeightsArePositiveAndNormalized) {
  apps::SyntheticWorkload w(medium_config());
  baselines::HdssScheduler hdss;
  const rt::RunResult r = run_with(hdss, w, 3);
  ASSERT_TRUE(r.ok);
  const auto wf = hdss.weight_fractions();
  double sum = 0.0;
  for (double v : wf) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Hdss, GpuWeightExceedsCpuOnComputeBoundWork) {
  apps::MatMulWorkload w(16384);
  baselines::HdssScheduler hdss;
  const rt::RunResult r = run_with(hdss, w, 1);
  ASSERT_TRUE(r.ok);
  const auto wf = hdss.weight_fractions();
  EXPECT_GT(wf[1], wf[0]);
}

TEST(Hdss, AdaptiveBlocksGrowGeometrically) {
  apps::SyntheticWorkload w(medium_config());
  baselines::HdssScheduler hdss;
  sim::SimCluster cluster(sim::scenario(1));
  rt::EngineOptions eopts;
  eopts.noise = sim::NoiseModel::none();
  rt::SimEngine engine(cluster, eopts);
  const rt::RunResult r = engine.run(w, hdss);
  ASSERT_TRUE(r.ok);
  // First tasks of unit 0 double from the engine's block hint until
  // convergence.
  std::vector<std::size_t> sizes;
  for (const auto& seg : r.trace.segments())
    if (seg.kind == rt::SegmentKind::kExec && seg.unit == 0 &&
        sizes.size() < 3)
      sizes.push_back(seg.grains);
  ASSERT_GE(sizes.size(), 3u);
  EXPECT_GT(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 2 * sizes[0]);
  EXPECT_EQ(sizes[2], 2 * sizes[1]);
}

TEST(Hdss, HandlesUnitFailure) {
  apps::SyntheticWorkload w(medium_config());
  sim::SimCluster cluster(sim::scenario(2));
  cluster.fail_unit(2, 1e-4);
  rt::SimEngine engine(cluster, {});
  baselines::HdssScheduler hdss;
  const rt::RunResult r = engine.run(w, hdss);
  ASSERT_TRUE(r.ok) << r.error;
  std::size_t done = 0;
  for (const auto& s : r.unit_stats) done += s.grains;
  EXPECT_EQ(done, w.total_grains());
}

TEST(Acosta, SharesConvergeTowardSpeeds) {
  apps::MatMulWorkload w(16384);
  baselines::AcostaScheduler acosta;
  const rt::RunResult r = run_with(acosta, w, 1);
  ASSERT_TRUE(r.ok);
  const auto& shares = acosta.shares();
  EXPECT_GT(shares[1], shares[0]);  // GPU share above CPU share
  EXPECT_GE(acosta.iterations(), 2u);
}

TEST(Acosta, SharesStayNormalized) {
  apps::SyntheticWorkload w(medium_config());
  baselines::AcostaScheduler acosta;
  const rt::RunResult r = run_with(acosta, w, 3);
  ASSERT_TRUE(r.ok);
  const double sum = std::accumulate(acosta.shares().begin(),
                                     acosta.shares().end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Acosta, IteratesTowardEquilibrium) {
  apps::MatMulWorkload w(8192);
  baselines::AcostaScheduler acosta;
  const rt::RunResult r = run_with(acosta, w);
  ASSERT_TRUE(r.ok);
  // Multiple rebalancing iterations must have happened, and the shares
  // must have moved away from uniform toward the device speeds (the GPU
  // of machine A is far faster than its CPU on matmul rows).
  EXPECT_GE(acosta.iterations(), 3u);
  EXPECT_GT(acosta.shares()[1], acosta.shares()[0]);
}

TEST(Acosta, FailureRedistributesShares) {
  apps::SyntheticWorkload w(medium_config());
  sim::SimCluster cluster(sim::scenario(2));
  cluster.fail_unit(0, 1e-4);
  rt::SimEngine engine(cluster, {});
  baselines::AcostaScheduler acosta;
  const rt::RunResult r = engine.run(w, acosta);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(acosta.shares()[0], 0.0);
  std::size_t done = 0;
  for (const auto& s : r.unit_stats) done += s.grains;
  EXPECT_EQ(done, w.total_grains());
}

TEST(StaticProfile, OracleWeightsBalanceTrueModels) {
  apps::MatMulWorkload w(16384);
  sim::SimCluster cluster(sim::scenario(3));
  const auto weights = baselines::oracle_static_weights(
      cluster, w.profile(), w.total_grains(), w.bytes_per_grain());
  const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // All units process their weighted share in nearly equal time.
  std::vector<double> times;
  for (std::size_t u = 0; u < cluster.size(); ++u) {
    const double grains =
        weights[u] * static_cast<double>(w.total_grains());
    const auto& su = cluster.unit(u);
    times.push_back(su.path.transfer_seconds(grains * w.bytes_per_grain()) +
                    su.device->execution_seconds(w.profile(), grains));
  }
  const double t0 = times[0];
  for (double t : times) EXPECT_NEAR(t, t0, 0.02 * t0);
}

TEST(StaticProfile, RunsToCompletion) {
  apps::SyntheticWorkload w(medium_config());
  sim::SimCluster cluster(sim::scenario(2));
  const auto weights = baselines::oracle_static_weights(
      cluster, w.profile(), w.total_grains(), w.bytes_per_grain());
  baselines::StaticProfileScheduler sched(weights);
  rt::SimEngine engine(cluster, {});
  const rt::RunResult r = engine.run(w, sched);
  ASSERT_TRUE(r.ok) << r.error;
}

TEST(StaticProfile, OracleBeatsOrMatchesGreedy) {
  apps::MatMulWorkload w(16384);
  sim::SimCluster cluster(sim::scenario(4, true));
  rt::SimEngine engine(cluster, {});
  const auto weights = baselines::oracle_static_weights(
      cluster, w.profile(), w.total_grains(), w.bytes_per_grain());
  baselines::StaticProfileScheduler oracle(weights);
  baselines::GreedyScheduler greedy;
  const rt::RunResult ro = engine.run(w, oracle);
  const rt::RunResult rg = engine.run(w, greedy);
  ASSERT_TRUE(ro.ok && rg.ok);
  EXPECT_LT(ro.makespan, 1.05 * rg.makespan);
}

}  // namespace
}  // namespace plbhec
