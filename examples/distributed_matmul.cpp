/// \file distributed_matmul.cpp
/// Distributed real execution: multiplies an actual matrix across a local
/// unit and several worker daemons over loopback TCP. The daemons run
/// in-process here so the demo is a single command, but they speak the
/// same framed protocol `plbhec-workerd` serves — point RemoteUnitOptions
/// at another machine's daemon and nothing else changes.
///
/// PLB-HeC's transfer model G_p(x) = a1*x + a2 is fitted from the wire
/// times the coordinator measures around each block round-trip; the table
/// at the end compares those measured samples with the fitted line.
///
/// With --pipeline-depth N (N > 1) a second comparison drives the same
/// rows straight through the remote data plane twice — once with the
/// synchronous one-frame-per-round-trip protocol and once with the
/// pipelined plane streaming identical 4-row frames through a depth-N
/// window — and prints the two makespans side by side with the measured
/// wire/kernel overlap fraction. (The scheduler-driven run above it also
/// honors the depth, but at demo sizes PLB-HeC hands the slowed-down
/// remotes mostly probing blocks under 8 rows, which always go out as one
/// chunk; the direct drive is what isolates the wire layer.)
///
/// Usage: distributed_matmul [--n 384] [--workers 2] [--pipeline-depth 1]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "plbhec/apps/matmul.hpp"
#include "plbhec/common/cli.hpp"
#include "plbhec/common/table.hpp"
#include "plbhec/core/plb_hec.hpp"
#include "plbhec/metrics/metrics.hpp"
#include "plbhec/net/remote_unit.hpp"
#include "plbhec/net/workerd.hpp"
#include "plbhec/rt/thread_engine.hpp"

namespace {

using namespace plbhec;

struct RunOutcome {
  bool ok = false;
  bool identical = false;
  double makespan = 0.0;
  double overlap_fraction = 0.0;  ///< aggregate across remote units
  std::uint64_t remote_blocks = 0;
  std::uint64_t chunks_pipelined = 0;
};

/// One full distributed multiplication against fresh daemons. `depth` = 1
/// is the synchronous protocol; verbose runs print the share table and
/// the fitted transfer curves.
RunOutcome run_once(std::size_t n, std::size_t workers, std::size_t depth,
                    bool verbose) {
  RunOutcome out;

  // One daemon per remote worker, each a bit slower than the last — the
  // heterogeneity the balancer has to learn.
  std::vector<std::unique_ptr<net::WorkerDaemon>> daemons;
  for (std::size_t w = 0; w < workers; ++w) {
    net::WorkerDaemonOptions dopts;
    dopts.port = 0;  // ephemeral
    dopts.name = "node" + std::to_string(w + 1);
    dopts.slowdown = 1.5 + static_cast<double>(w);
    daemons.push_back(std::make_unique<net::WorkerDaemon>(dopts));
  }

  // Unit 0 executes in-process; units 1..workers drive the daemons.
  std::vector<std::unique_ptr<rt::ExecUnit>> units;
  {
    rt::LocalExecUnit::Options lo;
    lo.name = "coord.cpu0";
    units.push_back(std::make_unique<rt::LocalExecUnit>(lo));
  }
  std::vector<const net::RemoteUnit*> remotes;
  for (std::size_t w = 0; w < workers; ++w) {
    net::RemoteUnitOptions ro;
    ro.port = daemons[w]->port();
    ro.name = "remote." + std::to_string(w + 1);
    ro.machine = static_cast<std::uint32_t>(w + 1);
    ro.event_unit = static_cast<std::uint32_t>(w + 1);
    ro.pipeline_depth = depth;
    auto remote = std::make_unique<net::RemoteUnit>(ro);
    remotes.push_back(remote.get());
    units.push_back(std::move(remote));
  }

  rt::ThreadEngineOptions eopts;
  rt::ThreadEngine engine(eopts, std::move(units));

  apps::MatMulWorkload workload(n, /*materialize=*/true);
  core::PlbHecScheduler plb;
  const rt::RunResult r = engine.run(workload, plb);
  if (!r.ok) {
    std::printf("run failed: %s\n", r.error.c_str());
    return out;
  }

  if (verbose) {
    // --- Per-unit fraction table (who computed what) ---
    Table t({"Unit", "grains", "share", "tasks", "fraction", "transfer_s"});
    const auto shares = metrics::processed_shares(r);
    const auto& fractions = plb.fractions();
    for (const auto& u : r.units)
      t.row()
          .add(u.name)
          .add(r.unit_stats[u.id].grains)
          .add(shares[u.id], 3)
          .add(r.unit_stats[u.id].tasks)
          .add(u.id < fractions.size() ? fractions[u.id] : 0.0, 3)
          .add(r.unit_stats[u.id].transfer_seconds, 4);
    t.print();
    std::printf("wall time %.3f s, %zu grains, %zu barriers\n\n",
                r.makespan, r.total_grains, r.barriers);

    // --- Measured vs fitted transfer curves (G_p learned from wire) ---
    const auto& models = plb.models();
    for (const auto& u : r.units) {
      if (u.id >= models.size()) continue;
      const auto& g = models[u.id].transfer;
      const auto& samples = plb.profiles().transfer_samples(u.id).items();
      if (samples.empty()) continue;
      std::printf("%s: G(x) = %.4g*x + %.4g  (R^2 %.3f, %zu samples)\n",
                  u.name.c_str(), g.slope, g.latency, g.r2,
                  samples.size());
      Table curve({"x (fraction)", "measured_s", "fitted_s"});
      const std::size_t step =
          std::max<std::size_t>(1, samples.size() / 6);
      for (std::size_t i = 0; i < samples.size(); i += step)
        curve.row()
            .add(samples[i].x, 4)
            .add(samples[i].time, 5)
            .add(g(samples[i].x), 5);
      curve.print();
    }
  }

  // --- Validate against an in-process reference multiplication ---
  apps::MatMulWorkload reference(n, /*materialize=*/true);
  reference.execute_cpu(0, n);
  out.identical = workload.result() == reference.result();

  // Aggregate overlap across remote links: how much of the smaller phase
  // (wire vs kernel) the pipeline hid, 0 under the sync protocol.
  double saved = 0.0;
  double floor = 0.0;
  for (const net::RemoteUnit* remote : remotes) {
    saved += remote->wire_stats().overlap_saved_seconds;
    floor += remote->wire_stats().overlap_floor_seconds;
    out.chunks_pipelined += remote->wire_stats().chunks_pipelined;
  }
  out.overlap_fraction =
      floor > 0.0 ? std::min(1.0, std::max(0.0, saved / floor)) : 0.0;

  for (const auto& d : daemons) out.remote_blocks += d->blocks_served();
  for (auto& d : daemons) d->stop();
  out.makespan = r.makespan;
  out.ok = true;
  return out;
}

/// One leg of the wire-layer comparison: every 4 rows of an n x n matmul
/// (the transport's smallest chunk) are shipped as one result frame, split
/// evenly across `workers` equal-speed daemons. `depth` = 1 issues one
/// 4-row block per round-trip; `depth` > 1 issues 8*depth-row blocks that
/// the unit streams as 2*depth identical 4-row frames through its window.
/// Same frames, different windowing — the makespan difference is the
/// protocol turnaround the window hides.
RunOutcome run_wire_leg(std::size_t n, std::size_t workers,
                        std::size_t depth) {
  RunOutcome out;
  std::vector<std::unique_ptr<net::WorkerDaemon>> daemons;
  std::vector<std::unique_ptr<net::RemoteUnit>> units;
  for (std::size_t w = 0; w < workers; ++w) {
    net::WorkerDaemonOptions dopts;
    dopts.port = 0;
    dopts.name = "wire" + std::to_string(w + 1);
    daemons.push_back(std::make_unique<net::WorkerDaemon>(dopts));
    net::RemoteUnitOptions ro;
    ro.port = daemons[w]->port();
    ro.name = "wire.remote." + std::to_string(w + 1);
    ro.pipeline_depth = depth;
    units.push_back(std::make_unique<net::RemoteUnit>(ro));
  }

  apps::MatMulWorkload workload(n, /*materialize=*/true);
  for (auto& unit : units)
    if (!unit->begin_run(workload)) return out;

  constexpr std::size_t kRowsPerFrame = 4;
  const std::size_t block = kRowsPerFrame * (depth > 1 ? 2 * depth : 1);
  const std::size_t per_unit = n / workers;
  std::atomic<bool> failed{false};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> drivers;
  for (std::size_t w = 0; w < workers; ++w) {
    drivers.emplace_back([&, w] {
      const std::size_t lo = w * per_unit;
      const std::size_t hi = w + 1 == workers ? n : lo + per_unit;
      for (std::size_t b = lo; b < hi && !failed.load();) {
        const std::size_t e = std::min(b + block, hi);
        rt::BlockTiming timing;
        if (!units[w]->execute(workload, b, e, timing)) failed.store(true);
        b = e;
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  out.makespan = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();

  double saved = 0.0;
  double floor = 0.0;
  for (auto& unit : units) {
    saved += unit->wire_stats().overlap_saved_seconds;
    floor += unit->wire_stats().overlap_floor_seconds;
    out.chunks_pipelined += unit->wire_stats().chunks_pipelined;
    unit->end_run();
  }
  out.overlap_fraction =
      floor > 0.0 ? std::min(1.0, std::max(0.0, saved / floor)) : 0.0;
  for (const auto& d : daemons) out.remote_blocks += d->blocks_served();
  for (auto& d : daemons) d->stop();
  if (failed.load()) return out;

  apps::MatMulWorkload reference(n, /*materialize=*/true);
  reference.execute_cpu(0, n);
  out.identical = workload.result() == reference.result();
  out.ok = true;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 384));
  const auto workers = static_cast<std::size_t>(cli.get_int("workers", 2));
  const auto depth =
      static_cast<std::size_t>(cli.get_int("pipeline-depth", 1));

  std::printf("Multiplying %zux%zu across 1 local unit + %zu worker "
              "daemon(s) on loopback...\n",
              n, n, workers);
  const RunOutcome main_run =
      run_once(n, workers, std::max<std::size_t>(1, depth), true);
  if (!main_run.ok) return 1;
  std::printf("distributed C == local C: %s\n",
              main_run.identical ? "bit-identical (OK)" : "MISMATCH");
  std::printf("blocks served by daemons: %llu\n",
              static_cast<unsigned long long>(main_run.remote_blocks));

  bool identical = main_run.identical;
  if (depth > 1) {
    // Wire-layer comparison: same 4-row frames, sync vs windowed.
    std::printf("\nDriving every row straight through the data plane, "
                "sync vs pipelined...\n");
    const RunOutcome sync_run = run_wire_leg(n, workers, 1);
    const RunOutcome pipe_run = run_wire_leg(n, workers, depth);
    if (!sync_run.ok || !pipe_run.ok) return 1;
    identical = identical && sync_run.identical && pipe_run.identical;
    Table cmp({"protocol", "makespan_s", "overlap", "chunks", "blocks"});
    cmp.row()
        .add("sync (depth 1)")
        .add(sync_run.makespan, 3)
        .add(sync_run.overlap_fraction, 3)
        .add(sync_run.chunks_pipelined)
        .add(sync_run.remote_blocks);
    cmp.row()
        .add("pipelined (depth " + std::to_string(depth) + ")")
        .add(pipe_run.makespan, 3)
        .add(pipe_run.overlap_fraction, 3)
        .add(pipe_run.chunks_pipelined)
        .add(pipe_run.remote_blocks);
    cmp.print();
    std::printf("pipelined/sync makespan ratio: %.3f  (wire/kernel "
                "overlap hidden by the window: %.1f%%)\n",
                sync_run.makespan > 0.0
                    ? pipe_run.makespan / sync_run.makespan
                    : 0.0,
                pipe_run.overlap_fraction * 100.0);
  }
  return identical ? 0 : 1;
}
