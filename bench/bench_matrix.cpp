/// \file bench_matrix.cpp
/// Scenario-matrix chaos harness: runs the cross-product of cluster
/// shapes x workload mixes x fault scripts (chaos/scenario.hpp) for
/// PLB-HeC vs HDSS / Acosta / Greedy / StaticProfile on the simulated
/// executor and emits one JSON row per cell (makespans, win bit, lost
/// grains, rebalance count, probe overhead) plus the summary its declared
/// gates read: `win_rate >= 0.40` (PLB-HeC beats-or-ties the best
/// baseline), `lost_grain_violations == 0` and `replay_identical` (the
/// first cell re-run row-for-row, proving the per-(cell, seed)
/// determinism any replay relies on). tools/check_bench.py evaluates them.
/// The summary also reports the ungated `plb_vs_best_geomean`, the
/// geometric mean of every row's PLB-HeC/best makespan ratio.
///
/// Modes:
///   bench_matrix [--out out.json]           ~20-cell smoke (per-PR gate)
///   bench_matrix --full [--seeds N] [--out] full grid (nightly CI)
///   bench_matrix --cell '<id>'              replay one cell, print its row
///
/// Every row carries its exact replay command, and stderr names every
/// losing or violating cell. The committed smoke baseline lives in
/// bench/results/bench_matrix.json.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "plbhec/chaos/scenario.hpp"
#include "plbhec/common/cli.hpp"

namespace {

using plbhec::chaos::CellResult;
using plbhec::chaos::ScenarioCell;

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string replay_command(const ScenarioCell& cell) {
  return "./build/bench/bench_matrix --cell '" + cell.id() + "'";
}

/// One cell as a JSON object. The serialization IS the determinism
/// contract: two runs of the same cell must produce byte-identical rows.
std::string row_json(const CellResult& r) {
  std::string out = "    {\"cell\": \"" + r.cell.id() + "\"";
  out += ", \"units\": " + std::to_string(r.units);
  out += ", \"total_grains\": " + std::to_string(r.total_grains);
  out += std::string(", \"plb_win\": ") + (r.plb_win ? "true" : "false");
  out += ", \"plb_vs_best\": " + fmt(r.plb_vs_best);
  out += ", \"best_baseline\": \"" + r.best_baseline + "\"";
  std::size_t lost = 0;
  std::size_t requeued = 0;
  std::size_t failed_units = 0;
  for (const auto& o : r.outcomes) {
    lost += o.lost_grains;
    requeued += o.grains_requeued;
    failed_units = std::max(failed_units, o.failed_units);
  }
  out += ", \"lost_grains\": " + std::to_string(lost);
  out += ", \"grains_requeued\": " + std::to_string(requeued);
  out += ", \"failed_units\": " + std::to_string(failed_units);
  out += ", \"rebalances\": " + std::to_string(r.outcomes[0].rebalances);
  out += ", \"solves\": " + std::to_string(r.outcomes[0].solves);
  out += ", \"probe_overhead\": " + fmt(r.outcomes[0].probe_overhead);
  for (const auto& o : r.outcomes) {
    std::string key = o.scheduler;
    for (auto& c : key) c = c == '-' ? '_' : static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
    out += ", \"makespan_" + key + "_s\": " + (o.ok ? fmt(o.makespan) : "-1");
  }
  out += ", \"replay\": \"" + replay_command(r.cell) + "\"}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  plbhec::Cli cli(argc, argv);

  if (cli.has("cell")) {
    const std::string id = cli.get("cell", "");
    const auto cell = plbhec::chaos::parse_cell_id(id);
    if (!cell) {
      std::fprintf(stderr,
                   "unknown cell id '%s' (format: "
                   "u<units>-<het>/<workload>/<fault>@<seed>)\n",
                   id.c_str());
      return 2;
    }
    const CellResult r = plbhec::chaos::run_cell(*cell);
    std::printf("%s\n", row_json(r).c_str());
    if (!r.grains_accounted) {
      std::fprintf(stderr, "LOST-GRAIN VIOLATION in cell %s\n",
                   cell->id().c_str());
      return 1;
    }
    return 0;
  }

  const bool full = cli.full();
  const auto seeds =
      static_cast<std::size_t>(cli.get_int("seeds", 1));
  const std::vector<ScenarioCell> cells =
      full ? plbhec::chaos::full_grid(seeds) : plbhec::chaos::smoke_grid();

  std::vector<std::string> rows;
  rows.reserve(cells.size());
  std::size_t wins = 0;
  std::size_t violations = 0;
  double log_ratio_sum = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult r = plbhec::chaos::run_cell(cells[i]);
    if (r.plb_win) ++wins;
    log_ratio_sum += std::log(r.plb_vs_best);
    if (!r.grains_accounted) {
      ++violations;
      std::fprintf(stderr, "LOST-GRAIN VIOLATION: %s\n",
                   replay_command(r.cell).c_str());
    }
    rows.push_back(row_json(r));
    std::fprintf(stderr, "[%3zu/%zu] %-40s %s  plb/best=%.3f\n", i + 1,
                 cells.size(), r.cell.id().c_str(),
                 r.plb_win ? "win " : "LOSS", r.plb_vs_best);
  }

  // Determinism proof: the first cell, re-run from its id alone, must
  // reproduce its committed row byte-for-byte.
  const bool replay_identical =
      row_json(plbhec::chaos::run_cell(cells.front())) == rows.front();

  std::string sched_list;
  for (const auto& name : plbhec::chaos::scheduler_names())
    sched_list += (sched_list.empty() ? "" : ",") + name;

  plbhec::bench::Gates gates;
  gates.abs("win_rate", ">=", 0.40)
      .abs("lost_grain_violations", "==", 0)
      .is_true("replay_identical");

  std::string json = "{\n  \"benchmark\": \"bench_matrix\",\n";
  json += gates.json();
  json += std::string("  \"mode\": \"") + (full ? "full" : "smoke") + "\",\n";
  json += "  \"schedulers\": \"" + sched_list + "\",\n";
  json += "  \"cells\": " + std::to_string(cells.size()) + ",\n";
  json += "  \"tie_tolerance\": " + fmt(plbhec::chaos::kTieTolerance) + ",\n";
  json += "  \"wins\": " + std::to_string(wins) + ",\n";
  json += "  \"win_rate\": " +
          fmt(static_cast<double>(wins) / static_cast<double>(cells.size())) +
          ",\n";
  json += "  \"plb_vs_best_geomean\": " +
          fmt(std::exp(log_ratio_sum / static_cast<double>(cells.size()))) +
          ",\n";
  json += "  \"lost_grain_violations\": " + std::to_string(violations) + ",\n";
  json += std::string("  \"replay_identical\": ") +
          (replay_identical ? "true" : "false") + ",\n";
  json += "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i)
    json += rows[i] + (i + 1 < rows.size() ? ",\n" : "\n");
  json += "  ]\n}\n";

  std::fprintf(stderr, "win rate %.2f (%zu/%zu cells)\n",
               static_cast<double>(wins) / static_cast<double>(cells.size()),
               wins, cells.size());
  std::vector<std::string> out_paths = cli.positional();
  out_paths.push_back(cli.get("out", ""));
  return plbhec::bench::write_json(json, out_paths);
}
