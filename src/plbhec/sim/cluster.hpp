#pragma once
/// \file cluster.hpp
/// The simulated cluster: the flattened list of processing units across all
/// machines, plus per-unit availability/QoS timelines for the paper's
/// future-work scenarios (cloud QoS changes, machine failures).

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "plbhec/sim/machine.hpp"
#include "plbhec/sim/noise.hpp"

namespace plbhec::sim {

/// A step change of a unit's effective speed at a given simulated time.
/// factor 1.0 = nominal, 0.5 = half speed (QoS degradation), 0.0 = failed.
struct SpeedEvent {
  double time_s = 0.0;
  double factor = 1.0;
};

/// A step change of a unit's master-to-device path at a given simulated
/// time, expressed relative to the nominal path (last event <= t wins, and
/// events do not compound): extra latency is added, bandwidth is scaled.
/// bandwidth_factor 1.0 + extra_latency_s 0.0 restores the nominal link.
struct LinkEvent {
  double time_s = 0.0;
  double extra_latency_s = 0.0;
  double bandwidth_factor = 1.0;
};

/// Runtime state of one simulated processing unit.
struct SimUnit {
  std::string name;
  std::size_t machine_index = 0;
  std::shared_ptr<const DeviceModel> device;
  LinkModel path;
  std::vector<SpeedEvent> speed_events;  ///< sorted by time
  std::vector<LinkEvent> link_events;    ///< sorted by time

  /// Effective speed factor at simulated time `t` (last event <= t wins).
  [[nodiscard]] double speed_factor(double t) const;
  /// Effective master-to-device path at simulated time `t`: the nominal
  /// `path` adjusted by the last link event at or before `t`, if any.
  [[nodiscard]] LinkModel link_at(double t) const;
  /// True when speed_factor(t) == 0 (unit failed / withdrawn).
  [[nodiscard]] bool failed_at(double t) const {
    return speed_factor(t) <= 0.0;
  }
  /// Time of the first event with factor <= 0, if any.
  [[nodiscard]] std::optional<double> failure_time() const;
};

/// The simulated cost of one block on one unit (see cost_block).
struct BlockCost {
  double transfer_s = 0.0;  ///< noisy master-to-device transfer time
  double exec_s = 0.0;      ///< noisy execution time
  /// When the block's event fires: its finish, or the unit's failure when
  /// that comes first.
  double event_s = 0.0;
  bool fails = false;  ///< the unit fails before the block finishes
};

/// Costs a block of `grains` issued to `unit` at simulated time `now`. The
/// transfer uses the link at `now` and the execution the 3-argument device
/// model at the unit's current speed, so link-degrade faults and the
/// memory roof under throttling both apply. Noise is drawn from `rng` in a
/// fixed order, transfer then exec. rt::SimDispatcher's one block-cost
/// path; requires the unit to be alive at `now`.
[[nodiscard]] BlockCost cost_block(const SimUnit& unit,
                                   const WorkloadProfile& profile,
                                   double bytes_per_grain, std::size_t grains,
                                   double now, const NoiseModel& noise,
                                   Rng& rng);

/// Watchdogs of rt::SimDispatcher (rt::SimEngine and the service): a run
/// whose virtual clock passes kMaxSimSeconds, or that fires more than
/// kMaxEvents events, arrivals included, is aborted as a runaway.
inline constexpr double kMaxSimSeconds = 1e9;
inline constexpr std::size_t kMaxEvents = 50'000'000;

class SimCluster {
 public:
  explicit SimCluster(const std::vector<MachineConfig>& machines);

  [[nodiscard]] std::size_t size() const { return units_.size(); }
  [[nodiscard]] const SimUnit& unit(std::size_t i) const;
  [[nodiscard]] SimUnit& unit(std::size_t i);
  [[nodiscard]] const std::vector<SimUnit>& units() const { return units_; }

  /// Registers a speed change (QoS event) for unit `i`.
  void add_speed_event(std::size_t i, double time_s, double factor);
  /// Registers a link change for unit `i` from `time_s` on: `extra_latency_s`
  /// is added to the nominal path latency and the nominal bandwidth is
  /// multiplied by `bandwidth_factor` (> 0).
  void add_link_event(std::size_t i, double time_s, double extra_latency_s,
                      double bandwidth_factor);
  /// Registers a permanent failure of unit `i` at `time_s`.
  void fail_unit(std::size_t i, double time_s) {
    add_speed_event(i, time_s, 0.0);
  }

 private:
  std::vector<SimUnit> units_;
};

}  // namespace plbhec::sim
