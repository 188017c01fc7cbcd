#pragma once
/// \file hdss.hpp
/// HDSS — Heterogeneous Dynamic Self-Scheduling (Belviranli, Bhuyan &
/// Gupta, TACO 2013), as described and implemented by the PLB-HeC paper:
///
///  * adaptive phase: the scheduler works through geometrically growing
///    phase windows; within each window a unit receives its *weighted
///    share* (weights from the current speed estimates, uniform in the
///    first window). Each unit's speed samples (grains/s vs block size)
///    are fitted with a logarithmic curve speed(s) = a + b ln s, and the
///    unit's scalar weight is the predicted speed at a reference block.
///    The phase ends when every unit's weight estimate has stabilized (or
///    an adaptive-phase data cap is hit). Probing is asynchronous — a unit
///    advances to its next-window block as soon as it finishes.
///  * completion phase: the remaining input is divided among the units
///    proportionally to the weights *once* ("once determined, these
///    weights are not changed throughout the execution"); each unit works
///    through its fixed allocation in geometrically decreasing blocks.
///    Weight misestimates therefore surface as end-of-run idleness —
///    the effect PLB-HeC's curve models are designed to avoid.
///
/// The deliberate limitation reproduced here (and exploited by the paper's
/// comparison): each unit is modeled by a *single number*, and the weights
/// are never revised during the completion phase.

#include <vector>

#include "plbhec/fit/samples.hpp"
#include "plbhec/rt/scheduler.hpp"

namespace plbhec::baselines {

class HdssScheduler final : public rt::Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "HDSS"; }

  void start(const std::vector<rt::UnitInfo>& units,
             const rt::WorkInfo& work) override;
  [[nodiscard]] std::size_t next_block(rt::UnitId unit, double now) override;
  void on_complete(const rt::TaskObservation& obs) override;
  void on_unit_failed(rt::UnitId unit, std::size_t lost_grains,
                      double now) override;

  /// Normalized weights (Fig. 6 comparison data).
  [[nodiscard]] std::vector<double> weight_fractions() const;
  [[nodiscard]] bool in_completion_phase() const { return completion_; }
 private:
  void update_weight(rt::UnitId u);
  [[nodiscard]] bool all_converged() const;

  rt::WorkInfo work_;
  std::size_t units_n_ = 0;
  std::size_t initial_ = 1;
  std::vector<fit::SampleSet> speed_samples_;  ///< x = block fraction, t = grains/s
  std::vector<double> weight_;
  std::vector<double> prev_weight_;
  std::vector<std::size_t> phase_index_;  ///< adaptive window reached per unit
  std::vector<bool> converged_;
  std::vector<bool> failed_;
  std::vector<std::size_t> adaptive_grains_;
  std::vector<double> allocation_;  ///< fixed completion-phase quota
  bool completion_ = false;
  std::size_t issued_ = 0;  ///< grains handed out so far (upper bound)
};

}  // namespace plbhec::baselines
