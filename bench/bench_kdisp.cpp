// Kernel-dispatch benchmark for the new workload families. Two claims:
//
//  1. The families genuinely differ as *profiles*: fitting the paper's
//     basis set to each family's noise-free simulated device curve (CPU
//     and GPU unit classes of Table I machine A) reaches R^2 >= 0.95 on
//     at least one class per family, and the winning basis subsets are
//     not all the same across {spmv, stencil, nbody, matmul} — the
//     scheduler has distinct curves to learn, not four copies of one.
//
//  2. The kdisp registry's runtime ISA pick is worth having: on a host
//     with vector units, the best registered variant beats the forced-
//     scalar variant by >= 1.3x on at least one family, while the
//     reduction families (spmv, stencil, nbody) stay byte-identical
//     across variants (gemm is the documented FMA exception and is
//     checked to rounding instead).
//
// Emits JSON (stdout, plus an output path if given) whose gates state both
// claims, plus the gemm residual against the committed
// bench/results/bench_kdisp.json; tools/check_bench.py evaluates them.
// `--smoke` shrinks the timing budgets.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "plbhec/apps/matmul.hpp"
#include "plbhec/apps/nbody.hpp"
#include "plbhec/apps/spmv.hpp"
#include "plbhec/apps/stencil.hpp"
#include "plbhec/common/rng.hpp"
#include "plbhec/exec/gemm_micro.hpp"
#include "plbhec/fit/basis.hpp"
#include "plbhec/fit/least_squares.hpp"
#include "plbhec/fit/samples.hpp"
#include "plbhec/kdisp/isa.hpp"
#include "plbhec/kdisp/kernels.hpp"
#include "plbhec/kdisp/registry.hpp"
#include "plbhec/sim/device.hpp"
#include "plbhec/sim/machine.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using plbhec::Rng;
namespace apps = plbhec::apps;
namespace fit = plbhec::fit;
namespace kdisp = plbhec::kdisp;
namespace sim = plbhec::sim;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best-of-reps wall time for `fn`, running until ~`budget` seconds elapse.
double time_best(double budget, auto&& fn) {
  fn();  // warm-up
  double best = 1e300;
  double elapsed = 0.0;
  std::size_t reps = 0;
  while (elapsed < budget || reps < 3) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const double s = seconds_since(t0);
    best = std::min(best, s);
    elapsed += s;
    ++reps;
  }
  return best;
}

// --- Part 1: simulated device-curve fits per family. -----------------------

constexpr std::size_t kCurvePoints = 24;

struct ClassFit {
  double r2 = 0.0;
  std::string terms;  ///< winning basis subset, e.g. "1+x+x^2"
};

std::string subset_string(const fit::CurveModel& model) {
  std::string out;
  for (std::size_t i = 0; i < model.terms.size(); ++i) {
    if (i > 0) out += "+";
    out += fit::name(model.terms[i]);
  }
  return out;
}

/// Noise-free execution-time samples of `device` over block fractions
/// quadratically spaced in (0, 1] (dense near 0, where launch overhead and
/// the GPU occupancy ramp curve the profile), fitted with the paper's
/// subset selection.
ClassFit fit_device_curve(const sim::DeviceModel& device,
                          const sim::WorkloadProfile& profile,
                          std::size_t total_grains) {
  fit::SampleSet samples;
  for (std::size_t i = 1; i <= kCurvePoints; ++i) {
    const double want = static_cast<double>(i * i) /
                        static_cast<double>(kCurvePoints * kCurvePoints);
    const std::size_t grains = std::max<std::size_t>(
        1, static_cast<std::size_t>(want * static_cast<double>(total_grains)));
    const double x =
        static_cast<double>(grains) / static_cast<double>(total_grains);
    samples.add(x, device.execution_seconds(profile, grains));
  }
  const fit::FitResult result = fit::select_model(samples);
  return {result.r2, subset_string(result.model)};
}

struct FamilyFit {
  std::string family;
  ClassFit cpu;
  ClassFit gpu;
};

// --- Part 2: forced-scalar vs best-ISA kernel timing on the real host. -----

struct KernelTimes {
  std::string family;
  std::string variant;  ///< best variant's registered symbol name
  kdisp::IsaClass isa = kdisp::IsaClass::kScalar;
  double scalar_ms = 0.0;
  double best_ms = 0.0;
  bool identical = false;   ///< byte-compare of the two result buffers
  double max_rel_diff = -1.0;  ///< gemm only (FMA exception); else unset
};

bool bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

KernelTimes bench_spmv(double budget) {
  constexpr std::size_t kRows = 20'000;
  constexpr std::size_t kNnz = 48;  // kWide: vector row kernel applies
  Rng rng(0x59a125);
  std::vector<std::uint32_t> row_ptr(kRows + 1), cols(kRows * kNnz);
  std::vector<double> vals(kRows * kNnz), x(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    row_ptr[i] = static_cast<std::uint32_t>(i * kNnz);
    for (std::size_t j = 0; j < kNnz; ++j) {
      cols[i * kNnz + j] = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kRows) - 1));
      vals[i * kNnz + j] = rng.uniform(-1.0, 1.0);
    }
    x[i] = rng.uniform(-1.0, 1.0);
  }
  row_ptr[kRows] = static_cast<std::uint32_t>(kRows * kNnz);

  kdisp::KernelRegistry& reg = kdisp::KernelRegistry::instance();
  const auto scalar = *reg.lookup(kdisp::kSpmvKernel, kdisp::WidthClass::kWide,
                                  kdisp::IsaClass::kScalar);
  const auto best = *reg.lookup(kdisp::kSpmvKernel, kdisp::WidthClass::kWide);
  auto* scalar_fn = reinterpret_cast<kdisp::SpmvRowsFn*>(scalar.fn);
  auto* best_fn = reinterpret_cast<kdisp::SpmvRowsFn*>(best.fn);

  std::vector<double> y_scalar(kRows, 0.0), y_best(kRows, 0.0);
  KernelTimes out;
  out.family = "spmv";
  out.variant = std::string(best.variant_name);
  out.isa = best.isa;
  out.scalar_ms = 1e3 * time_best(budget, [&] {
    scalar_fn(row_ptr.data(), cols.data(), vals.data(), x.data(),
              y_scalar.data(), 0, kRows);
  });
  out.best_ms = 1e3 * time_best(budget, [&] {
    best_fn(row_ptr.data(), cols.data(), vals.data(), x.data(), y_best.data(),
            0, kRows);
  });
  out.identical = bytes_equal(y_scalar, y_best);
  return out;
}

KernelTimes bench_stencil(double budget) {
  constexpr std::size_t kNx = 1022;
  constexpr std::size_t kNy = 512;
  const std::size_t stride = kNx + 2;
  Rng rng(0x57e4c11);
  std::vector<double> in((kNy + 2) * stride), out_scalar(in.size(), 0.0),
      out_best(in.size(), 0.0);
  for (double& v : in) v = rng.uniform(-1.0, 1.0);

  kdisp::KernelRegistry& reg = kdisp::KernelRegistry::instance();
  const auto scalar = *reg.lookup(kdisp::kStencilKernel,
                                  kdisp::WidthClass::kWide,
                                  kdisp::IsaClass::kScalar);
  const auto best =
      *reg.lookup(kdisp::kStencilKernel, kdisp::WidthClass::kWide);
  auto* scalar_fn = reinterpret_cast<kdisp::StencilRowsFn*>(scalar.fn);
  auto* best_fn = reinterpret_cast<kdisp::StencilRowsFn*>(best.fn);

  KernelTimes out;
  out.family = "stencil";
  out.variant = std::string(best.variant_name);
  out.isa = best.isa;
  out.scalar_ms = 1e3 * time_best(budget, [&] {
    scalar_fn(in.data(), out_scalar.data(), kNx, 0, kNy,
              apps::StencilWorkload::kC0, apps::StencilWorkload::kC1);
  });
  out.best_ms = 1e3 * time_best(budget, [&] {
    best_fn(in.data(), out_best.data(), kNx, 0, kNy,
            apps::StencilWorkload::kC0, apps::StencilWorkload::kC1);
  });
  out.identical = bytes_equal(out_scalar, out_best);
  return out;
}

KernelTimes bench_nbody(double budget) {
  constexpr std::size_t kBodies = 1536;
  Rng rng(0xb0d1e5);
  std::vector<double> px(kBodies), py(kBodies), pz(kBodies), mass(kBodies);
  for (std::size_t i = 0; i < kBodies; ++i) {
    px[i] = rng.uniform(-1.0, 1.0);
    py[i] = rng.uniform(-1.0, 1.0);
    pz[i] = rng.uniform(-1.0, 1.0);
    mass[i] = rng.uniform(0.1, 1.0);
  }

  kdisp::KernelRegistry& reg = kdisp::KernelRegistry::instance();
  const auto scalar = *reg.lookup(kdisp::kNbodyKernel,
                                  kdisp::WidthClass::kWide,
                                  kdisp::IsaClass::kScalar);
  const auto best = *reg.lookup(kdisp::kNbodyKernel, kdisp::WidthClass::kWide);
  auto* scalar_fn = reinterpret_cast<kdisp::NbodyAccelFn*>(scalar.fn);
  auto* best_fn = reinterpret_cast<kdisp::NbodyAccelFn*>(best.fn);

  std::vector<double> axs(kBodies), ays(kBodies), azs(kBodies);
  std::vector<double> axb(kBodies), ayb(kBodies), azb(kBodies);
  KernelTimes out;
  out.family = "nbody";
  out.variant = std::string(best.variant_name);
  out.isa = best.isa;
  out.scalar_ms = 1e3 * time_best(budget, [&] {
    scalar_fn(px.data(), py.data(), pz.data(), mass.data(), kBodies,
              apps::NbodyWorkload::kEps2, axs.data(), ays.data(), azs.data(),
              0, kBodies);
  });
  out.best_ms = 1e3 * time_best(budget, [&] {
    best_fn(px.data(), py.data(), pz.data(), mass.data(), kBodies,
            apps::NbodyWorkload::kEps2, axb.data(), ayb.data(), azb.data(), 0,
            kBodies);
  });
  out.identical = bytes_equal(axs, axb) && bytes_equal(ays, ayb) &&
                  bytes_equal(azs, azb);
  return out;
}

KernelTimes bench_gemm(double budget) {
  constexpr std::size_t kN = 256;
  Rng rng(0x5eed);
  std::vector<double> a(kN * kN), b(kN * kN);
  for (double& v : a) v = rng.uniform(-1.0, 1.0);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  std::vector<double> c_scalar(kN * kN), c_best(kN * kN);

  // The gemm micro-kernel is resolved per gemm_packed call, so flipping
  // the effective-ISA ceiling exercises the real dispatch path end to end.
  const kdisp::IsaClass prev =
      kdisp::set_effective_isa_for_testing(kdisp::IsaClass::kScalar);
  const double t_scalar = time_best(budget, [&] {
    std::fill(c_scalar.begin(), c_scalar.end(), 0.0);
    plbhec::exec::gemm_packed(kN, kN, kN, a.data(), b.data(), c_scalar.data());
  });
  kdisp::set_effective_isa_for_testing(prev);
  kdisp::Selection chosen;
  (void)kdisp::KernelRegistry::instance().select<kdisp::GemmMicroFn>(
      kdisp::kGemmMicroKernel, kdisp::WidthClass::kWide, &chosen);
  const double t_best = time_best(budget, [&] {
    std::fill(c_best.begin(), c_best.end(), 0.0);
    plbhec::exec::gemm_packed(kN, kN, kN, a.data(), b.data(), c_best.data());
  });

  KernelTimes out;
  out.family = "gemm";
  out.variant = std::string(chosen.variant_name);
  out.isa = chosen.isa;
  out.scalar_ms = 1e3 * t_scalar;
  out.best_ms = 1e3 * t_best;
  out.identical = bytes_equal(c_scalar, c_best);
  out.max_rel_diff = 0.0;
  for (std::size_t i = 0; i < kN * kN; ++i) {
    const double denom = std::max(1e-12, std::fabs(c_scalar[i]));
    out.max_rel_diff = std::max(out.max_rel_diff,
                                std::fabs(c_scalar[i] - c_best[i]) / denom);
  }
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
  const double budget = smoke ? 0.02 : 0.2;

  // --- Simulated device-curve fits (machine-independent). ---
  const sim::MachineConfig machine = sim::machine_a();
  const sim::DeviceModel& cpu = *machine.units[0].device;
  const sim::DeviceModel& gpu = *machine.units[1].device;

  const std::size_t kSimGrains = 1 << 20;
  std::vector<FamilyFit> fits;
  {
    const apps::SpmvWorkload w(apps::SpmvWorkload::paper_instance(kSimGrains));
    fits.push_back({"spmv", fit_device_curve(cpu, w.profile(), kSimGrains),
                    fit_device_curve(gpu, w.profile(), kSimGrains)});
  }
  {
    const apps::StencilWorkload w(
        apps::StencilWorkload::paper_instance(kSimGrains));
    fits.push_back({"stencil", fit_device_curve(cpu, w.profile(), kSimGrains),
                    fit_device_curve(gpu, w.profile(), kSimGrains)});
  }
  {
    const apps::NbodyWorkload w(
        apps::NbodyWorkload::paper_instance(kSimGrains));
    fits.push_back({"nbody", fit_device_curve(cpu, w.profile(), kSimGrains),
                    fit_device_curve(gpu, w.profile(), kSimGrains)});
  }
  {
    const apps::MatMulWorkload w(65536);
    fits.push_back({"matmul", fit_device_curve(cpu, w.profile(), 65536),
                    fit_device_curve(gpu, w.profile(), 65536)});
  }

  std::set<std::string> cpu_subsets, gpu_subsets;
  double fit_r2_min = 1.0;
  for (const FamilyFit& f : fits) {
    cpu_subsets.insert(f.cpu.terms);
    gpu_subsets.insert(f.gpu.terms);
    fit_r2_min = std::min(fit_r2_min, std::max(f.cpu.r2, f.gpu.r2));
  }
  const std::size_t distinct_subsets =
      std::max(cpu_subsets.size(), gpu_subsets.size());

  // --- Real-host kernel timings. ---
  const std::vector<KernelTimes> kernels = {
      bench_spmv(budget), bench_stencil(budget), bench_nbody(budget),
      bench_gemm(budget)};
  double best_isa_speedup = 0.0;
  bool isa_identical = true;
  for (const KernelTimes& k : kernels) {
    best_isa_speedup = std::max(best_isa_speedup, k.scalar_ms / k.best_ms);
    if (k.family != "gemm") isa_identical = isa_identical && k.identical;
  }
  // Keyed on the *effective* ceiling so the forced-scalar CI leg
  // (PLBHEC_KDISP_FORCE=scalar) is judged as a scalar machine: with
  // dispatch pinned, "best" == scalar and no speedup can exist.
  const bool simd_host = kdisp::effective_isa() >= kdisp::IsaClass::kAvx2;

  // --- JSON. ---
  plbhec::bench::Gates gates;
  gates.abs("fit_r2_min", ">=", 0.95)
      .abs("distinct_subsets", ">=", 2)
      .is_true("isa_identical")
      .abs("best_isa_speedup", ">=", 1.3)
      .when("simd_host");
  for (std::size_t i = 0; i < kernels.size(); ++i)
    if (kernels[i].max_rel_diff >= 0.0)
      gates.rel_ceiling("kernels[" + std::to_string(i) + "].max_rel_diff",
                        100.0, 1e-6);

  std::string json = "{\n  \"benchmark\": \"bench_kdisp\",\n";
  json += gates.json();
  json += "  \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += std::string("  \"host_isa\": \"") +
          kdisp::to_string(kdisp::host_isa()) + "\",\n";
  json += std::string("  \"effective_isa\": \"") +
          kdisp::to_string(kdisp::effective_isa()) + "\",\n";
  json += std::string("  \"simd_host\": ") + (simd_host ? "true" : "false") +
          ",\n";
  json += "  \"variants\": " +
          std::to_string(kdisp::KernelRegistry::instance().variant_count()) +
          ",\n";
  json += "  \"fit\": [\n";
  for (std::size_t i = 0; i < fits.size(); ++i) {
    const FamilyFit& f = fits[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "    {\"family\": \"%s\", \"curve_n\": %zu, "
                  "\"cpu_r2\": %.4f, \"cpu_terms\": \"%s\", "
                  "\"gpu_r2\": %.4f, \"gpu_terms\": \"%s\"}%s\n",
                  f.family.c_str(), kCurvePoints, f.cpu.r2,
                  f.cpu.terms.c_str(), f.gpu.r2, f.gpu.terms.c_str(),
                  i + 1 < fits.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"fit_r2_min\": %.17g,\n  \"distinct_subsets\": %zu,\n",
                fit_r2_min, distinct_subsets);
  json += buf;
  json += "  \"kernels\": [\n";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelTimes& k = kernels[i];
    std::string row;
    std::snprintf(buf, sizeof(buf),
                  "    {\"family\": \"%s\", \"variant\": \"%s\", "
                  "\"isa\": \"%s\", \"scalar_ms\": %.3f, \"best_ms\": %.3f, "
                  "\"kernel_speedup\": %.2f, \"identical\": %s",
                  k.family.c_str(), k.variant.c_str(), kdisp::to_string(k.isa),
                  k.scalar_ms, k.best_ms, k.scalar_ms / k.best_ms,
                  k.identical ? "true" : "false");
    row += buf;
    if (k.max_rel_diff >= 0.0) {
      std::snprintf(buf, sizeof(buf), ", \"max_rel_diff\": %.17g",
                    k.max_rel_diff);
      row += buf;
    }
    row += std::string("}") + (i + 1 < kernels.size() ? "," : "") + "\n";
    json += row;
  }
  json += "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"best_isa_speedup\": %.17g,\n  \"isa_identical\": %s\n}\n",
                best_isa_speedup, isa_identical ? "true" : "false");
  json += buf;

  return plbhec::bench::write_json(json, {out_path});
}
