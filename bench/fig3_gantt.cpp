/// Reproduces the schematic of Figs. 2-3: the phases of the algorithm and
/// the rebalancing Gantt. Runs PLB-HeC on three processing units (machine
/// A + half of machine B), prints the ASCII Gantt of the stable run, then
/// injects a mid-run QoS drop so the threshold rebalance of Fig. 3 actually
/// fires, and prints that Gantt too. The paper syncs every unit before it
/// re-solves; here the re-solve happens in place at the completion that
/// trips the threshold, so the drift Gantt shows no drain gap and the run
/// reaches no barrier (EXPERIMENTS.md, "Known deviations"). `--trace-json
/// <path>` additionally
/// writes the drift run as Chrome trace-event JSON (open in Perfetto or
/// chrome://tracing): busy segments as slices, scheduler decisions as
/// instant events.

#include "bench_common.hpp"
#include "plbhec/obs/exporters.hpp"
#include "plbhec/obs/sink.hpp"

int main(int argc, char** argv) {
  using namespace plbhec;
  const Cli cli(argc, argv);
  const auto genes =
      static_cast<std::size_t>(cli.get_int("genes", 30'000));
  const std::string trace_path = cli.get("trace-json", "");

  bench::print_header("Fig. 3 — execution phases and rebalancing Gantt",
                      sim::scenario(2));

  apps::GrnWorkload w(apps::GrnWorkload::paper_instance(genes));
  sim::SimCluster cluster(sim::scenario(2));
  rt::SimEngine engine(cluster, {});
  core::PlbHecScheduler plb;
  const rt::RunResult stable = engine.run(w, plb);
  if (!stable.ok) {
    std::printf("stable run failed: %s\n", stable.error.c_str());
    return 1;
  }
  std::printf("\nStable cluster ('#'=exec, '-'=transfer, '.'=idle):\n%s",
              metrics::ascii_gantt(stable, 100).c_str());
  std::printf(
      "probe rounds=%zu selections=%zu refinements=%zu rebalances=%zu "
      "(paper: rebalancing not executed on stable machines)\n",
      plb.stats().probe_rounds, plb.stats().solves,
      plb.stats().refinements, plb.stats().rebalances);

  // Now with a QoS drop that forces the Fig. 3 rebalance.
  sim::SimCluster drifting(sim::scenario(2));
  drifting.add_speed_event(1, stable.makespan * 0.45, 0.3);
  obs::EventSink sink;
  rt::EngineOptions eopts;
  eopts.sink = &sink;
  rt::SimEngine engine2(drifting, eopts);
  core::PlbHecOptions opts;
  opts.step_fraction = 0.0625;
  core::PlbHecScheduler plb2(opts);
  const rt::RunResult drift = engine2.run(w, plb2);
  if (!drift.ok) {
    std::printf("drift run failed: %s\n", drift.error.c_str());
    return 1;
  }
  std::printf("\nA.gpu0 drops to 0.3x speed at t=%.4f s:\n%s",
              stable.makespan * 0.45,
              metrics::ascii_gantt(drift, 100).c_str());
  std::printf(
      "rebalances=%zu selections=%zu barriers=%zu makespan %.4f -> %.4f s\n"
      "Expected: each rebalance re-solves in place (barriers=0), so no unit\n"
      "idles through a sync.\n",
      plb2.stats().rebalances, plb2.stats().solves, drift.barriers,
      stable.makespan, drift.makespan);

  if (!trace_path.empty()) {
    const std::vector<obs::Event> events = sink.drain();
    if (!obs::write_chrome_trace(drift, events, trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("wrote %zu decision events + %zu segments to %s\n",
                events.size(), drift.trace.segments().size(),
                trace_path.c_str());
  }
  return 0;
}
