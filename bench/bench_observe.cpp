// Observability-overhead benchmark: the full PLB-HeC simulation with the
// event sink attached against the identical run with a null sink. Virtual
// results must be bitwise identical (the sink only observes; it never
// perturbs scheduling), and the wall-clock cost of recording must stay
// under 2% of the run. Emits JSON (stdout, plus an output path if given)
// whose gates state both claims; tools/check_bench.py evaluates them (the
// bench has no committed baseline, so CI pairs the JSON with itself).
// `--smoke` runs a fast version. In a PLBHEC_OBS=OFF build the sink
// compiles to no-ops and the gates require zero recorded events instead.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "plbhec/apps/grn.hpp"
#include "plbhec/core/plb_hec.hpp"
#include "plbhec/obs/counters.hpp"
#include "plbhec/obs/exporters.hpp"
#include "plbhec/obs/sink.hpp"
#include "plbhec/rt/engine.hpp"
#include "plbhec/sim/machine.hpp"

namespace {

using Clock = std::chrono::steady_clock;
namespace apps = plbhec::apps;
namespace core = plbhec::core;
namespace obs = plbhec::obs;
namespace rt = plbhec::rt;
namespace sim = plbhec::sim;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunOutcome {
  double makespan = 0.0;
  double best_seconds = 1e300;
  std::size_t events = 0;
};

/// One engine.run() of the scenario, optionally with a sink attached.
RunOutcome run_once(std::size_t genes, obs::EventSink* sink) {
  apps::GrnWorkload w(apps::GrnWorkload::paper_instance(genes));
  sim::SimCluster cluster(sim::scenario(2));
  rt::EngineOptions opts;
  opts.sink = sink;
  rt::SimEngine engine(cluster, opts);
  core::PlbHecScheduler plb;
  const Clock::time_point t0 = Clock::now();
  const rt::RunResult r = engine.run(w, plb);
  RunOutcome out;
  out.best_seconds = seconds_since(t0);
  out.makespan = r.ok ? r.makespan : -1.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke")
      smoke = true;
    else
      out_path = arg;
  }
  // Each run is sub-millisecond, so single measurements wobble well past
  // the 2% gate on a loaded CI core; interleaved best-of-N with a
  // generous N keeps the minimum clean on both sides.
  const std::size_t genes = smoke ? 10'000 : 30'000;
  const std::size_t reps = smoke ? 31 : 51;

  // Interleave traced and untraced repetitions and keep the best of each,
  // so drift (frequency scaling, background load) hits both sides alike.
  RunOutcome base, traced;
  std::size_t events = 0;
  std::vector<std::pair<std::string, std::size_t>> per_kind;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const RunOutcome b = run_once(genes, nullptr);
    obs::EventSink sink;
    const RunOutcome t = run_once(genes, &sink);
    const std::vector<obs::Event> drained = sink.drain();
    if (rep == 0) {
      base.makespan = b.makespan;
      traced.makespan = t.makespan;
      events = drained.size();
      std::vector<std::size_t> counts(obs::kEventKindCount, 0);
      for (const obs::Event& e : drained)
        ++counts[static_cast<std::size_t>(e.kind)];
      for (std::size_t k = 0; k < counts.size(); ++k)
        if (counts[k] > 0)
          per_kind.emplace_back(
              obs::to_string(static_cast<obs::EventKind>(k)), counts[k]);
    }
    base.best_seconds = std::min(base.best_seconds, b.best_seconds);
    traced.best_seconds = std::min(traced.best_seconds, t.best_seconds);
  }

  const bool all_ok = base.makespan >= 0.0 && traced.makespan >= 0.0;
  const bool makespan_equal = base.makespan == traced.makespan;
  const double overhead_pct =
      100.0 * (traced.best_seconds / base.best_seconds - 1.0);

  plbhec::bench::Gates gates;
  gates.is_true("all_ok").is_true("makespan_equal");
  if (obs::kCompiledIn)
    gates.abs("events", ">=", 1);
  else
    gates.abs("events", "==", 0);
  gates.abs("overhead_pct", "<=", 2.0);

  std::string json = "{\n  \"benchmark\": \"bench_observe\",\n";
  json += gates.json();
  json += std::string("  \"compiled_in\": ") +
          (obs::kCompiledIn ? "true" : "false") + ",\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"genes\": %zu,\n  \"reps\": %zu,\n"
                "  \"makespan_base\": %.17g,\n  \"makespan_traced\": %.17g,\n"
                "  \"all_ok\": %s,\n  \"makespan_equal\": %s,\n"
                "  \"run_base_us\": %.1f,\n  \"run_traced_us\": %.1f,\n"
                "  \"overhead_pct\": %.17g,\n  \"events\": %zu,\n",
                genes, reps, base.makespan, traced.makespan,
                all_ok ? "true" : "false", makespan_equal ? "true" : "false",
                1e6 * base.best_seconds, 1e6 * traced.best_seconds,
                overhead_pct, events);
  json += buf;
  json += "  \"events_per_kind\": {";
  for (std::size_t i = 0; i < per_kind.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %zu", i > 0 ? ", " : "",
                  per_kind[i].first.c_str(), per_kind[i].second);
    json += buf;
  }
  json += "}\n}\n";

  return plbhec::bench::write_json(json, {out_path});
}
