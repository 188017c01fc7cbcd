#pragma once
/// \file robust.hpp
/// Robust online estimators for the sample-ingest path. Co-tenant
/// interference and OS jitter inflate individual block timings upward but
/// essentially never deflate them, so the minimum over a small block of
/// consecutive observations tracks the unit's true capability — the same
/// per-payload-minima treatment bench_net applies offline to wire-time
/// samples, moved onto the online path.

#include <cstddef>
#include <optional>

#include "plbhec/fit/samples.hpp"

namespace plbhec::adapt {

/// Buffers `block` consecutive observations and forwards only the one with
/// the smallest normalized cost time/x (cost per unit of work — raw times
/// are not comparable across block sizes). block <= 1 forwards everything
/// unchanged. Deterministic: ties keep the earliest observation.
class BlockMinFilter {
 public:
  BlockMinFilter() = default;
  explicit BlockMinFilter(std::size_t block) : block_(block) {}

  /// Feeds one observation; returns the block representative once `block`
  /// observations have accumulated, nullopt while the block is filling.
  [[nodiscard]] std::optional<fit::Sample> push(double x, double time);
  /// Returns the best observation of a partially filled block, if any.
  [[nodiscard]] std::optional<fit::Sample> flush();
  void reset();

  [[nodiscard]] std::size_t block() const { return block_; }
  [[nodiscard]] std::size_t pending() const { return pending_; }

 private:
  std::size_t block_ = 1;
  std::size_t pending_ = 0;
  fit::Sample best_{};
  double best_cost_ = 0.0;
};

}  // namespace plbhec::adapt
