#pragma once
/// \file acosta.hpp
/// The dynamic load-balancing algorithm of Acosta, Blanco & Almeida
/// (ISPA 2012), as described by the PLB-HeC paper: execution proceeds in
/// synchronized iterations; after each iteration every unit publishes the
/// time it spent on its chunk, the Relative Power vector RP_u =
/// load_u / time_u is computed together with its sum SRP, and the next
/// iteration's load share of each unit is a weighted average of its
/// current share and RP_u / SRP. Iterating converges to the balanced
/// distribution only *asymptotically* — the weakness PLB-HeC targets.
/// Once the inter-unit time spread falls below the threshold (10 % of the
/// mean iteration time) the shares are frozen and execution continues
/// without further barriers.

#include <vector>

#include "plbhec/rt/scheduler.hpp"

namespace plbhec::baselines {

class AcostaScheduler final : public rt::Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "Acosta"; }

  void start(const std::vector<rt::UnitInfo>& units,
             const rt::WorkInfo& work) override;
  [[nodiscard]] std::size_t next_block(rt::UnitId unit, double now) override;
  void on_complete(const rt::TaskObservation& obs) override;
  void on_barrier(double now) override;
  void on_unit_failed(rt::UnitId unit, std::size_t lost_grains,
                      double now) override;

  /// Current normalized shares (Fig. 6 comparison data).
  [[nodiscard]] const std::vector<double>& shares() const { return share_; }
  [[nodiscard]] std::size_t iterations() const { return iterations_; }
  [[nodiscard]] bool equilibrium() const { return equilibrium_; }

 private:
  void plan_iteration();

  rt::WorkInfo work_;
  std::size_t units_n_ = 0;
  std::vector<double> share_;
  std::vector<std::size_t> pending_;   ///< per-unit chunk for this iteration
  std::vector<double> iter_time_;      ///< per-unit time in this iteration
  std::vector<std::size_t> iter_grains_;
  std::vector<bool> failed_;
  bool equilibrium_ = false;
  std::size_t iterations_ = 0;
};

}  // namespace plbhec::baselines
