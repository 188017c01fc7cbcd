#include "plbhec/adapt/cusum.hpp"

#include <algorithm>

namespace plbhec::adapt {

bool ResidualCusum::observe(double residual_ratio) {
  ++n_;
  if (!armed_) {
    warmup_.add(residual_ratio);
    if (warmup_.count() >= options_.min_stable) {
      mu_ = warmup_.mean();
      sigma_ = std::max(warmup_.stddev(), kCusumSigmaFloor);
      armed_ = true;
    }
    return false;
  }

  const double z = (residual_ratio - mu_) / sigma_;
  s_pos_ = std::max(0.0, s_pos_ + z - kCusumSlack);
  s_neg_ = std::max(0.0, s_neg_ - z - kCusumSlack);
  return s_pos_ > options_.h || s_neg_ > options_.h;
}

void ResidualCusum::reset() {
  warmup_.reset();
  mu_ = 0.0;
  sigma_ = 0.0;
  s_pos_ = 0.0;
  s_neg_ = 0.0;
  n_ = 0;
  armed_ = false;
}

}  // namespace plbhec::adapt
