#include "plbhec/adapt/robust.hpp"

#include "plbhec/common/contracts.hpp"

namespace plbhec::adapt {

std::optional<fit::Sample> BlockMinFilter::push(double x, double time) {
  PLBHEC_EXPECTS(x > 0.0);
  if (block_ <= 1) return fit::Sample{x, time};

  const double cost = time / x;
  if (pending_ == 0 || cost < best_cost_) {
    best_ = {x, time};
    best_cost_ = cost;
  }
  if (++pending_ < block_) return std::nullopt;
  pending_ = 0;
  return best_;
}

std::optional<fit::Sample> BlockMinFilter::flush() {
  if (pending_ == 0) return std::nullopt;
  pending_ = 0;
  return best_;
}

void BlockMinFilter::reset() { pending_ = 0; }

}  // namespace plbhec::adapt
