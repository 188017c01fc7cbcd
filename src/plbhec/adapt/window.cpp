#include "plbhec/adapt/window.hpp"

#include <algorithm>

namespace plbhec::adapt {

void WindowedSampleSet::add(double x, double time) {
  PLBHEC_EXPECTS(x > 0.0);
  PLBHEC_EXPECTS(time >= 0.0);
  moments_.scale(config_.lambda);
  moments_.add(x, time);
  effective_n_ = effective_n_ * config_.lambda + 1.0;
  ++raw_count_;
  x_lo_ = std::min(x_lo_, x);
}

void WindowedSampleSet::reset() {
  moments_.clear();
  raw_count_ = 0;
  effective_n_ = 0.0;
  x_lo_ = 1.0;
}

}  // namespace plbhec::adapt
