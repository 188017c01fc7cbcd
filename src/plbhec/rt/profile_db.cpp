#include "plbhec/rt/profile_db.hpp"

#include <atomic>

#include "plbhec/common/contracts.hpp"
#include "plbhec/exec/thread_pool.hpp"

namespace plbhec::rt {
namespace {

void bump(std::size_t& counter, std::size_t delta = 1) {
  std::atomic_ref<std::size_t>(counter).fetch_add(delta,
                                                  std::memory_order_relaxed);
}

std::size_t load(const std::size_t& counter) {
  return std::atomic_ref<const std::size_t>(counter).load(
      std::memory_order_relaxed);
}

}  // namespace

ProfileDb::ProfileDb(std::size_t units, std::size_t total_grains,
                     fit::SelectionOptions options) {
  reset(units, total_grains, options);
}

void ProfileDb::reset(std::size_t units, std::size_t total_grains,
                      fit::SelectionOptions options) {
  PLBHEC_EXPECTS(total_grains > 0);
  exec_.assign(units, {});
  transfer_.assign(units, {});
  cache_.assign(units, {});
  total_grains_ = total_grains;
  options_ = options;
  clear_fit_cache();
}

void ProfileDb::clear_fit_cache() {
  for (auto& c : cache_) ++c.version;  // neither fit matches any more
  counters_ = {};
}

double ProfileDb::grains_to_fraction(std::size_t grains) const {
  return static_cast<double>(grains) / static_cast<double>(total_grains_);
}

void ProfileDb::record(const TaskObservation& obs) {
  PLBHEC_EXPECTS(obs.unit < exec_.size());
  PLBHEC_EXPECTS(obs.grains <= total_grains_);
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
  if (scale == 1.0) {
    // A set's moments are the in-order replay of its samples, so the copy
    // holds bit for bit what replaying the samples would build.
    exec_[u] = warm.exec;
    transfer_[u] = warm.transfer;
    if (options_ == fit::SelectionOptions{}) {
      cache_[u].exec = warm.fit;
      cache_[u].exec_version = cache_[u].version;
    }
  } else {
    for (const fit::Sample& s : warm.exec.items()) {
      const double x = s.x * scale;
      if (x > 0.0 && x <= 1.0) exec_[u].add(x, s.time);
    }
    for (const fit::Sample& s : warm.transfer.items()) {
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

ProfileDb::UnitCache& ProfileDb::exec_entry(UnitId u) const {
  UnitCache& cache = cache_[u];
  if (cache.exec_version == cache.version) {
    bump(counters_.fits_cached);
    return cache;
  }

  fit::FitCounters counters;
  cache.exec = fit::select_model(exec_[u], options_, &counters);
  cache.exec_version = cache.version;
  bump(counters_.fits_computed);
  bump(counters_.gram_solves, counters.gram_solves);
  bump(counters_.qr_solves, counters.qr_solves);
  bump(counters_.qr_fallbacks, counters.qr_fallbacks);
  return cache;
}

fit::FitResult ProfileDb::exec_fit(UnitId u) const {
  PLBHEC_EXPECTS(u < exec_.size());
  return exec_entry(u).exec;
}

fit::PerfModel ProfileDb::fit_unit(UnitId u) const {
  PLBHEC_EXPECTS(u < exec_.size());
  UnitCache& cache = exec_entry(u);
  if (cache.transfer_version != cache.version) {
    cache.transfer = fit::fit_transfer(transfer_[u]);
    cache.transfer_version = cache.version;
  }
  fit::PerfModel model;
  model.exec = cache.exec.model;
  model.transfer = cache.transfer;
  return model;
}

std::vector<fit::PerfModel> ProfileDb::fit_all() const {
  std::vector<fit::PerfModel> models(exec_.size());
  if (models.empty()) return models;
  // One chunk per unit; distinct units touch distinct cache slots, so the
  // fan-out needs no locking beyond the atomic counters.
  exec::ThreadPool::global().parallel_for(
      0, exec_.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t u = lo; u < hi; ++u) models[u] = fit_unit(u);
      });
  return models;
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
