// Observability-layer tests: the event sink and the counter registry under
// concurrent writers on the thread pool, exporter round-trips
// (Chrome trace-event JSON and CSV re-parsed back to the original counts
// and timestamps), and the end-to-end event streams of each scheduler on
// the simulated cluster. All tests also pass in a PLBHEC_OBS=OFF build,
// where the sink compiles to no-ops and streams are empty.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "plbhec/apps/grn.hpp"
#include "plbhec/apps/synthetic.hpp"
#include "plbhec/baselines/acosta.hpp"
#include "plbhec/baselines/hdss.hpp"
#include "plbhec/core/plb_hec.hpp"
#include "plbhec/exec/thread_pool.hpp"
#include "plbhec/obs/counters.hpp"
#include "plbhec/obs/exporters.hpp"
#include "plbhec/obs/sink.hpp"
#include "plbhec/rt/engine.hpp"
#include "plbhec/sim/machine.hpp"
#include "plbhec/svc/job_manager.hpp"

namespace plbhec {
namespace {

obs::Event make_event(double time, obs::EventKind kind,
                      std::uint32_t unit = obs::kNoUnit) {
  obs::Event e;
  e.time = time;
  e.kind = kind;
  e.unit = unit;
  return e;
}

std::size_t count_kind(const std::vector<obs::Event>& events,
                       obs::EventKind kind) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [kind](const obs::Event& e) { return e.kind == kind; }));
}

bool time_sorted(const std::vector<obs::Event>& events) {
  return std::is_sorted(
      events.begin(), events.end(),
      [](const obs::Event& a, const obs::Event& b) { return a.time < b.time; });
}

/// One small traced PLB-HeC run on the 2-machine scenario.
struct TracedRun {
  rt::RunResult result;
  std::vector<obs::Event> events;
};

TracedRun traced_plbhec_run() {
  apps::GrnWorkload w(apps::GrnWorkload::paper_instance(10'000));
  sim::SimCluster cluster(sim::scenario(2));
  obs::EventSink sink;
  rt::EngineOptions opts;
  opts.sink = &sink;
  rt::SimEngine engine(cluster, opts);
  core::PlbHecScheduler plb;
  TracedRun out;
  out.result = engine.run(w, plb);
  out.events = sink.drain();
  return out;
}

TEST(EventSink, RecordsAndDrainsSortedByTime) {
  obs::EventSink sink;
  sink.record(make_event(3.0, obs::EventKind::kBarrier));
  sink.record(make_event(1.0, obs::EventKind::kProbeIssued, 0));
  sink.record(make_event(2.0, obs::EventKind::kSolve));
  const std::vector<obs::Event> events = sink.drain();
  if (!obs::kCompiledIn) {
    EXPECT_TRUE(events.empty());
    return;
  }
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(time_sorted(events));
  EXPECT_EQ(events.front().kind, obs::EventKind::kProbeIssued);
  EXPECT_EQ(events.front().unit, 0u);
  EXPECT_EQ(events.back().kind, obs::EventKind::kBarrier);
}

TEST(EventSink, DrainClearsAndRuntimeDisableDrops) {
  obs::EventSink sink;
  sink.record(make_event(1.0, obs::EventKind::kBarrier));
  (void)sink.drain();
  EXPECT_TRUE(sink.drain().empty());

  sink.set_enabled(false);
  sink.record(make_event(2.0, obs::EventKind::kBarrier));
  EXPECT_TRUE(sink.drain().empty());
  sink.set_enabled(true);
  sink.record(make_event(3.0, obs::EventKind::kBarrier));
  EXPECT_EQ(sink.drain().size(), obs::kCompiledIn ? 1u : 0u);
}

TEST(EventSink, DrainAndSizeRunSafelyAgainstRecording) {
  // Recording takes no lock: slots are published by a release store and
  // drain()/size() read only published ones, across chunk boundaries.
  obs::EventSink sink;
  constexpr std::size_t kPerThread = 5'000;
  std::vector<obs::Event> events;
  {
    std::vector<std::thread> recorders;
    for (std::uint32_t t = 0; t < 2; ++t)
      recorders.emplace_back([&sink, t] {
        for (std::size_t i = 0; i < kPerThread; ++i)
          sink.record(make_event(static_cast<double>(i),
                                 obs::EventKind::kBlockDispatched, t));
      });
    for (int round = 0; round < 200; ++round) {
      (void)sink.size();
      const std::vector<obs::Event> part = sink.drain();
      events.insert(events.end(), part.begin(), part.end());
    }
    for (std::thread& r : recorders) r.join();
  }
  const std::vector<obs::Event> rest = sink.drain();
  events.insert(events.end(), rest.begin(), rest.end());
  EXPECT_EQ(sink.size(), 0u);
  if (!obs::kCompiledIn) {
    EXPECT_TRUE(events.empty());
    return;
  }
  ASSERT_EQ(events.size(), 2 * kPerThread);
  std::vector<int> seen(2 * kPerThread, 0);
  for (const obs::Event& e : events)
    ++seen[e.unit * kPerThread + static_cast<std::size_t>(e.time)];
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int c) { return c == 1; }));
}

TEST(EventSink, NullSinkMacroIsSafe) {
  obs::EventSink* sink = nullptr;
  PLBHEC_OBS_RECORD(sink, {1.0, obs::EventKind::kBarrier, obs::kNoUnit, 0.0,
                           0.0, 0, 0});
  SUCCEED();
}

TEST(EventSink, ConcurrentRecordingUnderThePool) {
  exec::ThreadPool pool(3);
  obs::EventSink sink;
  constexpr std::size_t kEvents = 20'000;
  pool.parallel_for(0, kEvents, 64, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      sink.record(make_event(static_cast<double>(i),
                             obs::EventKind::kBlockDispatched,
                             static_cast<std::uint32_t>(i % 4)));
  });
  const std::vector<obs::Event> events = sink.drain();
  if (!obs::kCompiledIn) {
    EXPECT_TRUE(events.empty());
    return;
  }
  ASSERT_EQ(events.size(), kEvents);
  EXPECT_TRUE(time_sorted(events));
  // Every index recorded exactly once, regardless of which thread took it.
  std::vector<bool> seen(kEvents, false);
  for (const obs::Event& e : events) {
    const auto idx = static_cast<std::size_t>(e.time);
    ASSERT_LT(idx, kEvents);
    EXPECT_FALSE(seen[idx]);
    seen[idx] = true;
  }
}

TEST(CounterRegistry, CreateOrGetAddSetSnapshot) {
  obs::CounterRegistry reg;
  obs::CounterRegistry::Counter& c = reg.counter("alpha");
  c.add(3);
  EXPECT_EQ(&c, &reg.counter("alpha"));  // stable reference
  reg.add("beta", 2);
  reg.set("beta", 7);
  EXPECT_EQ(reg.value("alpha"), 3u);
  EXPECT_EQ(reg.value("beta"), 7u);
  EXPECT_EQ(reg.value("never-registered"), 0u);
  const auto snapshot = reg.snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, "alpha");   // name-sorted
  EXPECT_EQ(snapshot[1].first, "beta");
  EXPECT_EQ(snapshot[1].second, 7u);
}

TEST(CounterRegistry, ConcurrentIncrementsUnderThePool) {
  exec::ThreadPool pool(3);
  obs::CounterRegistry reg;
  constexpr std::size_t kIncrements = 100'000;
  obs::CounterRegistry::Counter& hot = reg.counter("hot");
  pool.parallel_for(0, kIncrements, 128, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      hot.add();                      // cached-reference hot path
      reg.add("bucket" + std::to_string(i % 7));  // registration races
    }
  });
  EXPECT_EQ(reg.value("hot"), kIncrements);
  std::uint64_t bucket_total = 0;
  for (const auto& [name, value] : reg.snapshot())
    if (name != "hot") bucket_total += value;
  EXPECT_EQ(bucket_total, kIncrements);
}

TEST(EngineIntegration, PlbHecRunEmitsDecisionStream) {
  const TracedRun run = traced_plbhec_run();
  ASSERT_TRUE(run.result.ok) << run.result.error;
  if (!obs::kCompiledIn) {
    EXPECT_TRUE(run.events.empty());
    return;
  }
  EXPECT_TRUE(time_sorted(run.events));
  EXPECT_GT(count_kind(run.events, obs::EventKind::kProbeIssued), 0u);
  EXPECT_GT(count_kind(run.events, obs::EventKind::kModelFitted), 0u);
  EXPECT_GT(count_kind(run.events, obs::EventKind::kSolve), 0u);
  EXPECT_GT(count_kind(run.events, obs::EventKind::kPhaseChange), 0u);
  // One dispatch event per engine-issued task.
  std::size_t tasks = 0;
  for (const rt::UnitStats& s : run.result.unit_stats) tasks += s.tasks;
  EXPECT_EQ(count_kind(run.events, obs::EventKind::kBlockDispatched), tasks);
  for (const obs::Event& e : run.events) {
    EXPECT_GE(e.time, 0.0);
    EXPECT_LE(e.time, run.result.makespan);
    if (e.unit != obs::kNoUnit) EXPECT_LT(e.unit, run.result.units.size());
  }
}

TEST(EngineIntegration, BaselineSchedulersEmitTheirOwnKinds) {
  apps::GrnWorkload w(apps::GrnWorkload::paper_instance(10'000));
  sim::SimCluster cluster(sim::scenario(2));
  {
    obs::EventSink sink;
    rt::EngineOptions opts;
    opts.sink = &sink;
    rt::SimEngine engine(cluster, opts);
    baselines::HdssScheduler hdss;
    ASSERT_TRUE(engine.run(w, hdss).ok);
    const std::vector<obs::Event> events = sink.drain();
    if (obs::kCompiledIn) {
      EXPECT_GT(count_kind(events, obs::EventKind::kWeightUpdate), 0u);
      EXPECT_EQ(count_kind(events, obs::EventKind::kPhaseChange), 1u);
    } else {
      EXPECT_TRUE(events.empty());
    }
  }
  {
    obs::EventSink sink;
    rt::EngineOptions opts;
    opts.sink = &sink;
    rt::SimEngine engine(cluster, opts);
    baselines::AcostaScheduler acosta;
    ASSERT_TRUE(engine.run(w, acosta).ok);
    const std::vector<obs::Event> events = sink.drain();
    if (obs::kCompiledIn) {
      EXPECT_GT(count_kind(events, obs::EventKind::kIterationSync), 0u);
      EXPECT_EQ(count_kind(events, obs::EventKind::kBarrier),
                count_kind(events, obs::EventKind::kIterationSync));
    } else {
      EXPECT_TRUE(events.empty());
    }
  }
}

/// What a scan of a Chrome trace found (see scan_chrome_trace).
struct ChromeTraceScan {
  bool parse_ok = false;       ///< structurally consumable by this scanner
  std::size_t slices = 0;      ///< "ph":"X" duration events
  std::size_t instants = 0;    ///< "ph":"i" instant events
  std::size_t metadata = 0;    ///< "ph":"M" metadata records
  bool ts_monotonic = true;    ///< slice starts non-decreasing per track
  double min_ts = 0.0;         ///< microseconds
  double max_ts = 0.0;         ///< microseconds (slice end / instant ts)
};

/// A purpose-built reader for obs::chrome_trace_json: enough JSON to
/// round-trip counts and timestamps without a JSON library.
ChromeTraceScan scan_chrome_trace(const std::string& json) {
  ChromeTraceScan scan;
  const std::size_t array_at = json.find("\"traceEvents\"");
  if (array_at == std::string::npos) return scan;
  const std::size_t open = json.find('[', array_at);
  if (open == std::string::npos) return scan;

  // Our writer emits no braces inside strings, so a depth counter is a
  // sound object splitter for round-tripping.
  std::map<std::pair<long, long>, double> last_slice_ts;  ///< per (pid,tid)
  bool first_ts = true;
  int depth = 0;
  std::size_t obj_start = 0;
  for (std::size_t pos = open + 1; pos < json.size(); ++pos) {
    const char c = json[pos];
    if (c == ']' && depth == 0) {
      scan.parse_ok = scan.slices + scan.instants + scan.metadata > 0;
      return scan;
    }
    if (c == '{') {
      if (depth == 0) obj_start = pos;
      ++depth;
      continue;
    }
    if (c != '}') continue;
    --depth;
    if (depth != 0) continue;

    const std::string obj = json.substr(obj_start, pos - obj_start + 1);
    const auto field = [&obj](const char* name) -> const char* {
      const std::size_t at = obj.find(name);
      return at == std::string::npos ? nullptr : obj.c_str() + at +
                                                     std::strlen(name);
    };
    const char* ph = field("\"ph\":\"");
    if (ph == nullptr) return scan;  // malformed: every record carries ph
    const char* ts_text = field("\"ts\":");
    const double ts = ts_text != nullptr ? std::strtod(ts_text, nullptr) : 0.0;
    const char* tid_text = field("\"tid\":");
    const long tid =
        tid_text != nullptr ? std::strtol(tid_text, nullptr, 10) : -1;

    switch (*ph) {
      case 'X': {
        ++scan.slices;
        const char* dur_text = field("\"dur\":");
        const double dur =
            dur_text != nullptr ? std::strtod(dur_text, nullptr) : 0.0;
        const auto track = std::make_pair(0L, tid);
        const auto it = last_slice_ts.find(track);
        if (it != last_slice_ts.end() && ts < it->second)
          scan.ts_monotonic = false;
        last_slice_ts[track] = ts;
        scan.max_ts = std::max(scan.max_ts, ts + dur);
        scan.min_ts = first_ts ? ts : std::min(scan.min_ts, ts);
        first_ts = false;
        break;
      }
      case 'i':
        ++scan.instants;
        scan.max_ts = std::max(scan.max_ts, ts);
        scan.min_ts = first_ts ? ts : std::min(scan.min_ts, ts);
        first_ts = false;
        break;
      case 'M':
        ++scan.metadata;
        break;
      default:
        break;
    }
  }
  return scan;  // ran off the end: parse_ok stays false
}

TEST(Exporters, ChromeTraceRoundTrip) {
  const TracedRun run = traced_plbhec_run();
  ASSERT_TRUE(run.result.ok) << run.result.error;
  const std::string json = obs::chrome_trace_json(run.result, run.events);

  const ChromeTraceScan scan = scan_chrome_trace(json);
  ASSERT_TRUE(scan.parse_ok);
  EXPECT_EQ(scan.slices, run.result.trace.segments().size());
  EXPECT_EQ(scan.instants, run.events.size());
  EXPECT_EQ(scan.metadata, run.result.units.size() + 1);  // + scheduler track
  EXPECT_TRUE(scan.ts_monotonic);
  EXPECT_GE(scan.min_ts, 0.0);
  EXPECT_NEAR(scan.max_ts, run.result.makespan * 1e6,
              1e-3 * run.result.makespan * 1e6);
}

TEST(Exporters, CsvRoundTrip) {
  const TracedRun run = traced_plbhec_run();
  ASSERT_TRUE(run.result.ok) << run.result.error;
  const std::string csv = obs::events_csv(run.events);

  std::istringstream in(csv);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "time,kind,unit,a,b,i,j");

  std::size_t rows = 0;
  double prev_time = -1.0;
  std::array<std::size_t, obs::kEventKindCount> by_kind{};
  while (std::getline(in, line)) {
    ASSERT_EQ(std::count(line.begin(), line.end(), ','), 6)
        << "row " << rows << ": " << line;
    const double time = std::strtod(line.c_str(), nullptr);
    EXPECT_GE(time, prev_time);  // drain order survives the export
    prev_time = time;
    for (std::size_t k = 0; k < obs::kEventKindCount; ++k)
      if (line.find(obs::to_string(static_cast<obs::EventKind>(k))) !=
          std::string::npos)
        ++by_kind[k];
    ++rows;
  }
  EXPECT_EQ(rows, run.events.size());
  for (std::size_t k = 0; k < obs::kEventKindCount; ++k)
    EXPECT_GE(by_kind[k],
              count_kind(run.events, static_cast<obs::EventKind>(k)))
        << obs::to_string(static_cast<obs::EventKind>(k));
}

TEST(Exporters, RunSummaryNamesUnitsAndCounters) {
  const TracedRun run = traced_plbhec_run();
  ASSERT_TRUE(run.result.ok) << run.result.error;
  obs::CounterRegistry reg;
  reg.set("plbhec.solves", 5);
  const std::string summary =
      obs::run_summary(run.result, run.events, &reg);
  for (const rt::UnitInfo& u : run.result.units)
    EXPECT_NE(summary.find(u.name), std::string::npos) << u.name;
  EXPECT_NE(summary.find("makespan"), std::string::npos);
  EXPECT_NE(summary.find("plbhec.solves"), std::string::npos);
  if (obs::kCompiledIn)
    EXPECT_NE(summary.find("block_dispatched"), std::string::npos);
  else
    EXPECT_NE(summary.find("(none recorded)"), std::string::npos);
}

TEST(Exporters, ServiceEventArgsCarryTheirExportedNames) {
  sim::SimCluster cluster(sim::scenario(2));
  obs::EventSink sink;
  svc::ServiceOptions options;
  options.noise = sim::NoiseModel::none();
  options.seed = 7;
  options.sink = &sink;
  svc::JobManager manager(cluster, options);
  // The second arrival shrinks the first job's lease (revocations).
  for (const double arrival : {0.0, 0.01}) {
    apps::SyntheticWorkload::Config config;
    config.grains = 8'000;
    config.flops_per_grain = 2e7;
    config.bytes_per_grain = 2048;
    manager.submit({"syn", "syn", svc::PriorityClass::kNormal, arrival,
                    [config] {
                      return std::make_unique<apps::SyntheticWorkload>(config);
                    }});
  }
  const svc::ServiceResult result = manager.run();
  ASSERT_TRUE(result.ok) << result.error;
  const std::vector<obs::Event> events = sink.drain();
  if (!obs::kCompiledIn) {
    EXPECT_TRUE(events.empty());
    return;
  }
  const std::string json = obs::chrome_trace_json(rt::RunResult{}, events);
  // Replay the lease stream: a revocation's j is its job's remaining
  // held-unit count.
  std::vector<std::uint64_t> held(result.jobs.size(), 0);
  std::size_t revoked = 0;
  char args[96];
  for (const obs::Event& e : events) {
    const auto i = static_cast<unsigned long long>(e.i);
    const auto j = static_cast<unsigned long long>(e.j);
    if (e.kind == obs::EventKind::kLeaseGranted) {
      held[e.i] = e.j;
    } else if (e.kind == obs::EventKind::kLeaseRevoked) {
      EXPECT_EQ(e.j + 1, held[e.i]);
      held[e.i] = e.j;
      ++revoked;
      std::snprintf(args, sizeof args,
                    "\"args\":{\"from_job\":%llu,\"held\":%llu}", i, j);
      EXPECT_NE(json.find(args), std::string::npos) << args;
    }
  }
  EXPECT_GT(revoked, 0u);
}

TEST(Exporters, BarrierEventArgsCarryTheirExportedNames) {
  // Acosta synchronises at a barrier every iteration; the dispatcher
  // records each with the running barrier count as i and its job as j,
  // which is 0 in the engine.
  sim::SimCluster cluster(sim::scenario(2));
  obs::EventSink sink;
  rt::EngineOptions options;
  options.noise = sim::NoiseModel::none();
  options.seed = 7;
  options.sink = &sink;
  rt::SimEngine engine(cluster, options);
  apps::SyntheticWorkload::Config config;
  config.grains = 8'000;
  config.flops_per_grain = 2e7;
  config.bytes_per_grain = 2048;
  apps::SyntheticWorkload workload(config);
  baselines::AcostaScheduler acosta;
  const rt::RunResult run = engine.run(workload, acosta);
  ASSERT_TRUE(run.ok) << run.error;
  const std::vector<obs::Event> events = sink.drain();
  if (!obs::kCompiledIn) {
    EXPECT_TRUE(events.empty());
    return;
  }
  const std::string json = obs::chrome_trace_json(run, events);
  std::uint64_t barriers = 0;
  char args[96];
  for (const obs::Event& e : events) {
    if (e.kind != obs::EventKind::kBarrier) continue;
    EXPECT_EQ(e.i, ++barriers);
    EXPECT_EQ(e.j, 0u);
    std::snprintf(args, sizeof args, "\"args\":{\"count\":%llu,\"job\":0}",
                  static_cast<unsigned long long>(e.i));
    EXPECT_NE(json.find(args), std::string::npos) << args;
  }
  EXPECT_GT(barriers, 0u);
}

TEST(Exporters, EventArgNamesAreDefinedForEveryKind) {
  for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
    const auto kind = static_cast<obs::EventKind>(k);
    EXPECT_NE(std::string(obs::to_string(kind)), "unknown");
    (void)obs::arg_names(kind);  // must not crash / assert
  }
}

}  // namespace
}  // namespace plbhec
