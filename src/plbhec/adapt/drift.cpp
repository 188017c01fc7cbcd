#include "plbhec/adapt/drift.hpp"

#include <cmath>

#include "plbhec/common/contracts.hpp"

namespace plbhec::adapt {

void DriftMonitor::configure(const DriftOptions& options, std::size_t units) {
  options_ = options;
  windows_.clear();
  detectors_.clear();
  filters_.clear();
  trips_.assign(units, 0);

  WindowConfig wc;
  wc.lambda = kDriftLambda;
  const std::size_t block = options.robust_ingest ? kRobustBlock : 1;
  for (std::size_t u = 0; u < units; ++u) {
    windows_.emplace_back(wc);
    detectors_.emplace_back(options.cusum);
    filters_.emplace_back(block);
  }
}

void DriftMonitor::ingest(std::size_t unit, double x, double time) {
  if (!options_.enabled) return;
  PLBHEC_EXPECTS(unit < windows_.size());
  if (auto kept = filters_[unit].push(x, time))
    windows_[unit].add(kept->x, kept->time);
}

bool DriftMonitor::observe(std::size_t unit, double residual_ratio) {
  if (!options_.enabled) return false;
  PLBHEC_EXPECTS(unit < detectors_.size());
  if (!std::isfinite(residual_ratio)) return false;
  if (!detectors_[unit].observe(residual_ratio)) return false;
  ++trips_[unit];
  return true;
}

void DriftMonitor::force_trip(std::size_t unit) {
  PLBHEC_EXPECTS(unit < trips_.size());
  ++trips_[unit];
}

void DriftMonitor::reset_unit(std::size_t unit) {
  PLBHEC_EXPECTS(unit < windows_.size());
  windows_[unit].reset();
  detectors_[unit].reset();
  filters_[unit].reset();
}

const WindowedSampleSet& DriftMonitor::window(std::size_t unit) const {
  PLBHEC_EXPECTS(unit < windows_.size());
  return windows_[unit];
}

const ResidualCusum& DriftMonitor::detector(std::size_t unit) const {
  PLBHEC_EXPECTS(unit < detectors_.size());
  return detectors_[unit];
}

std::size_t DriftMonitor::trips(std::size_t unit) const {
  PLBHEC_EXPECTS(unit < trips_.size());
  return trips_[unit];
}

std::size_t DriftMonitor::total_trips() const {
  std::size_t total = 0;
  for (std::size_t t : trips_) total += t;
  return total;
}

fit::FitResult fit_recent(const WindowedSampleSet& window) {
  return fit::select_model(window.moments(), window.effective_count(),
                           window.x_lo());
}

}  // namespace plbhec::adapt
