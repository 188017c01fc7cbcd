#include "plbhec/sim/cluster.hpp"

#include <algorithm>

#include "plbhec/common/contracts.hpp"

namespace plbhec::sim {

double SimUnit::speed_factor(double t) const {
  double factor = 1.0;
  for (const auto& e : speed_events) {
    if (e.time_s <= t)
      factor = e.factor;
    else
      break;
  }
  return factor;
}

LinkModel SimUnit::link_at(double t) const {
  const LinkEvent* active = nullptr;
  for (const auto& e : link_events) {
    if (e.time_s <= t)
      active = &e;
    else
      break;
  }
  if (active == nullptr) return path;
  return LinkModel{path.latency_s + active->extra_latency_s,
                   path.bandwidth_bps * active->bandwidth_factor};
}

std::optional<double> SimUnit::failure_time() const {
  for (const auto& e : speed_events)
    if (e.factor <= 0.0) return e.time_s;
  return std::nullopt;
}

BlockCost cost_block(const SimUnit& unit, const WorkloadProfile& profile,
                     double bytes_per_grain, std::size_t grains, double now,
                     const NoiseModel& noise, Rng& rng) {
  const double speed = unit.speed_factor(now);
  PLBHEC_EXPECTS(speed > 0.0);
  BlockCost cost;
  const double bytes = static_cast<double>(grains) * bytes_per_grain;
  cost.transfer_s =
      noise.perturb_transfer(unit.link_at(now).transfer_seconds(bytes), rng);
  cost.exec_s = noise.perturb_exec(
      unit.device->execution_seconds(profile, static_cast<double>(grains),
                                     speed),
      rng);
  const double finish = now + cost.transfer_s + cost.exec_s;
  const auto failure = unit.failure_time();
  cost.fails = failure && *failure < finish && *failure >= now;
  cost.event_s = cost.fails ? *failure : finish;
  return cost;
}

SimCluster::SimCluster(const std::vector<MachineConfig>& machines) {
  for (std::size_t m = 0; m < machines.size(); ++m) {
    for (const auto& u : machines[m].units) {
      SimUnit su;
      su.name = u.name;
      su.machine_index = m;
      su.device = u.device;
      su.path = u.path;
      units_.push_back(std::move(su));
    }
  }
  PLBHEC_ENSURES(!units_.empty());
}

const SimUnit& SimCluster::unit(std::size_t i) const {
  PLBHEC_EXPECTS(i < units_.size());
  return units_[i];
}

SimUnit& SimCluster::unit(std::size_t i) {
  PLBHEC_EXPECTS(i < units_.size());
  return units_[i];
}

void SimCluster::add_speed_event(std::size_t i, double time_s, double factor) {
  PLBHEC_EXPECTS(i < units_.size());
  PLBHEC_EXPECTS(factor >= 0.0);
  auto& events = units_[i].speed_events;
  events.push_back({time_s, factor});
  std::sort(events.begin(), events.end(),
            [](const SpeedEvent& a, const SpeedEvent& b) {
              return a.time_s < b.time_s;
            });
}

void SimCluster::add_link_event(std::size_t i, double time_s,
                                double extra_latency_s,
                                double bandwidth_factor) {
  PLBHEC_EXPECTS(i < units_.size());
  PLBHEC_EXPECTS(extra_latency_s >= 0.0);
  PLBHEC_EXPECTS(bandwidth_factor > 0.0);
  auto& events = units_[i].link_events;
  events.push_back({time_s, extra_latency_s, bandwidth_factor});
  std::sort(events.begin(), events.end(),
            [](const LinkEvent& a, const LinkEvent& b) {
              return a.time_s < b.time_s;
            });
}

}  // namespace plbhec::sim
