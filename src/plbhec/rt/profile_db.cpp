#include "plbhec/rt/profile_db.hpp"

#include <atomic>

#include "plbhec/common/contracts.hpp"
#include "plbhec/exec/thread_pool.hpp"

namespace plbhec::rt {
namespace {

/// Cached fits per (unit, SelectionOptions); selection sweeps use one
/// options value, so a handful of slots covers ablation-style callers too.
constexpr std::size_t kCacheEntriesPerUnit = 4;

void bump(std::size_t& counter, std::size_t delta = 1) {
  std::atomic_ref<std::size_t>(counter).fetch_add(delta,
                                                  std::memory_order_relaxed);
}

std::size_t load(const std::size_t& counter) {
  return std::atomic_ref<const std::size_t>(counter).load(
      std::memory_order_relaxed);
}

}  // namespace

ProfileDb::ProfileDb(std::size_t units, std::size_t total_grains) {
  reset(units, total_grains);
}

void ProfileDb::reset(std::size_t units, std::size_t total_grains) {
  PLBHEC_EXPECTS(total_grains > 0);
  exec_.assign(units, {});
  transfer_.assign(units, {});
  cache_.assign(units, {});
  total_grains_ = total_grains;
  clear_fit_cache();
}

void ProfileDb::clear_fit_cache() {
  for (auto& c : cache_) {
    c.entries.clear();
    ++c.version;  // stale CacheEntry copies elsewhere can never match again
  }
  counters_ = {};
}

double ProfileDb::grains_to_fraction(std::size_t grains) const {
  return static_cast<double>(grains) / static_cast<double>(total_grains_);
}

void ProfileDb::record(const TaskObservation& obs) {
  PLBHEC_EXPECTS(obs.unit < exec_.size());
  if (obs.grains == 0) return;
  const double x = grains_to_fraction(obs.grains);
  exec_[obs.unit].add(x, obs.exec_seconds);
  transfer_[obs.unit].add(x, obs.transfer_seconds);
  ++cache_[obs.unit].version;
}

void ProfileDb::seed(UnitId u, const WarmProfile& warm) {
  PLBHEC_EXPECTS(u < exec_.size());
  PLBHEC_EXPECTS(exec_[u].empty() && transfer_[u].empty());
  if (!warm.usable()) return;
  const double scale = warm.total_grains / static_cast<double>(total_grains_);
  ++cache_[u].version;
  if (warm.has_moments && scale == 1.0) {
    exec_[u].restore(warm.exec, warm.exec_moments);
    transfer_[u].restore(warm.transfer, warm.transfer_moments);
    if (warm.exec_fit)
      install(u, warm.exec_fit->options, warm.exec_fit->exec);
  } else {
    for (const fit::Sample& s : warm.exec) {
      const double x = s.x * scale;
      if (x > 0.0 && x <= 1.0) exec_[u].add(x, s.time);
    }
    for (const fit::Sample& s : warm.transfer) {
      const double x = s.x * scale;
      if (x > 0.0 && x <= 1.0) transfer_[u].add(x, s.time);
    }
  }
}

void ProfileDb::clear_unit(UnitId u) {
  PLBHEC_EXPECTS(u < exec_.size());
  exec_[u].clear();
  transfer_[u].clear();
  ++cache_[u].version;
}

const fit::SampleSet& ProfileDb::exec_samples(UnitId u) const {
  PLBHEC_EXPECTS(u < exec_.size());
  return exec_[u];
}

const fit::SampleSet& ProfileDb::transfer_samples(UnitId u) const {
  PLBHEC_EXPECTS(u < transfer_.size());
  return transfer_[u];
}

std::uint64_t ProfileDb::version(UnitId u) const {
  PLBHEC_EXPECTS(u < cache_.size());
  return cache_[u].version;
}

ProfileDb::CacheEntry& ProfileDb::exec_entry(
    UnitId u, const fit::SelectionOptions& options) const {
  UnitCache& cache = cache_[u];
  for (auto& entry : cache.entries) {
    if (entry.version == cache.version && entry.options == options) {
      bump(counters_.fits_cached);
      return entry;
    }
  }

  fit::FitCounters counters;
  fit::FitResult fitted = fit::select_model(exec_[u], options, &counters);
  bump(counters_.fits_computed);
  bump(counters_.gram_solves, counters.gram_solves);
  bump(counters_.qr_solves, counters.qr_solves);
  bump(counters_.qr_fallbacks, counters.qr_fallbacks);
  return install(u, options, std::move(fitted));
}

ProfileDb::CacheEntry& ProfileDb::install(UnitId u,
                                          const fit::SelectionOptions& options,
                                          fit::FitResult exec) const {
  UnitCache& cache = cache_[u];
  // Reuse a slot holding a stale fit for the same options, else append,
  // evicting the oldest slot once the per-unit cap is reached.
  CacheEntry* slot = nullptr;
  for (auto& entry : cache.entries)
    if (entry.options == options) slot = &entry;
  if (!slot) {
    if (cache.entries.size() >= kCacheEntriesPerUnit)
      cache.entries.erase(cache.entries.begin());
    slot = &cache.entries.emplace_back();
  }
  slot->options = options;
  slot->version = cache.version;
  slot->exec = std::move(exec);
  slot->has_transfer = false;
  return *slot;
}

fit::FitResult ProfileDb::exec_fit(UnitId u,
                                   const fit::SelectionOptions& options) const {
  PLBHEC_EXPECTS(u < exec_.size());
  return exec_entry(u, options).exec;
}

fit::PerfModel ProfileDb::fit_unit(UnitId u,
                                   const fit::SelectionOptions& options) const {
  PLBHEC_EXPECTS(u < exec_.size());
  CacheEntry& entry = exec_entry(u, options);
  if (!entry.has_transfer || entry.transfer_version != cache_[u].version) {
    entry.transfer = fit::fit_transfer(transfer_[u]);
    entry.transfer_version = cache_[u].version;
    entry.has_transfer = true;
  }
  fit::PerfModel model;
  model.exec = entry.exec.model;
  model.transfer = entry.transfer;
  return model;
}

std::vector<fit::PerfModel> ProfileDb::fit_all(
    const fit::SelectionOptions& options) const {
  std::vector<fit::PerfModel> models(exec_.size());
  if (models.empty()) return models;
  // One chunk per unit; distinct units touch distinct cache slots, so the
  // fan-out needs no locking beyond the atomic counters.
  exec::ThreadPool::global().parallel_for(
      0, exec_.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t u = lo; u < hi; ++u) models[u] = fit_unit(u, options);
      });
  return models;
}

bool ProfileDb::all_acceptable(const fit::SelectionOptions& options) const {
  for (UnitId u = 0; u < exec_.size(); ++u)
    if (!exec_fit(u, options).acceptable) return false;
  return true;
}

FitStats ProfileDb::fit_stats() const {
  FitStats s;
  s.fits_computed = load(counters_.fits_computed);
  s.fits_cached = load(counters_.fits_cached);
  s.gram_solves = load(counters_.gram_solves);
  s.qr_solves = load(counters_.qr_solves);
  s.qr_fallbacks = load(counters_.qr_fallbacks);
  return s;
}

}  // namespace plbhec::rt
