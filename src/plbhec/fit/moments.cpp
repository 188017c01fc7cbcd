#include "plbhec/fit/moments.hpp"

namespace plbhec::fit {

void MomentSet::add(double x, double time) {
  std::array<double, kBasisCount> phi;
  eval_all(x, phi);

  for (std::size_t i = 0; i < kBasisCount; ++i) {
    for (std::size_t j = i; j < kBasisCount; ++j) {
      gram_[i * kBasisCount + j] += phi[i] * phi[j];
      if (j != i) gram_[j * kBasisCount + i] = gram_[i * kBasisCount + j];
    }
    xty_[i] += phi[i] * time;
  }
  yty_ += time * time;
  ++n_;
}

void MomentSet::scale(double lambda) {
  if (lambda == 1.0) return;  // keep the undiscounted path bit-identical
  for (double& g : gram_) g *= lambda;
  for (double& b : xty_) b *= lambda;
  yty_ *= lambda;
}

void MomentSet::clear() { *this = MomentSet{}; }

}  // namespace plbhec::fit
