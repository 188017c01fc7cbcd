/// Ablation of the execution-phase adaptation machinery (§V-c and §VI):
/// on a stable cluster the threshold never fires (reproducing the paper's
/// observation); under QoS drift and failures, compares full adaptation
/// (refinement + rebalancing) against partially and fully frozen variants.
/// Refinements and rebalances are the same in-place re-solve; only their
/// triggers differ (every unit sampled vs a deviation over the threshold).

#include "bench_common.hpp"

namespace {

using namespace plbhec;

struct Variant {
  const char* label;
  std::size_t refinements;
  double threshold;
};

const std::vector<Variant> kVariants{
    {"full (refine + rebalance)", 2, 0.15},
    {"refine only", 2, 1e9},
    {"rebalance only", 0, 0.15},
    {"frozen after first selection", 0, 1e9},
};

void scenario_table(const char* label, double drift_at, double factor,
                    double fail_at, std::size_t reps) {
  Table t({"variant", "makespan [s]", "rebalances", "refinements"});
  for (const auto& v : kVariants) {
    RunningStats ms, reb, refi;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      apps::GrnWorkload w(apps::GrnWorkload::paper_instance(60'000));
      sim::SimCluster cluster(sim::scenario(4, false));
      // The nominal makespan of this workload is ~0.1-0.2 s.
      if (drift_at > 0.0) cluster.add_speed_event(7, drift_at, factor);
      if (fail_at > 0.0) cluster.fail_unit(5, fail_at);
      rt::EngineOptions eopts;
      eopts.seed = 7000 + rep;
      eopts.record_trace = false;
      rt::SimEngine engine(cluster, eopts);
      core::PlbHecOptions opts;
      opts.refinements = v.refinements;
      opts.rebalance_threshold = v.threshold;
      opts.step_fraction = 0.0625;
      core::PlbHecScheduler plb(opts);
      const rt::RunResult r = engine.run(w, plb);
      if (!r.ok) continue;
      ms.add(r.makespan);
      reb.add(static_cast<double>(plb.stats().rebalances));
      refi.add(static_cast<double>(plb.stats().refinements));
    }
    t.row().add(v.label).add(ms.mean(), 4).add(reb.mean(), 1).add(
        refi.mean(), 1);
  }
  std::printf("\n%s:\n", label);
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace plbhec;
  const Cli cli(argc, argv);
  const auto reps =
      static_cast<std::size_t>(cli.get_int("reps", cli.full() ? 10 : 3));
  bench::print_header("Ablation — execution-phase adaptation (GRN 60k)",
                      sim::scenario(4, false));
  scenario_table("Stable cluster (paper: rebalancing never executed)", 0.0,
                 1.0, 0.0, reps);
  scenario_table("QoS drift: D.gpu0 to 0.3x at t=0.05s", 0.05, 0.3, 0.0,
                 reps);
  scenario_table("Failure: C.gpu0 dies at t=0.06s (paper §VI)", 0.0, 1.0,
                 0.06, reps);
  std::printf(
      "\nExpected: no rebalance on the stable cluster; under drift the\n"
      "full variant is no slower than the frozen one, because a rebalance\n"
      "re-solves in place instead of parking the cluster.\n");
  return 0;
}
