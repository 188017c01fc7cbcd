#include "plbhec/fit/basis.hpp"

#include <array>
#include <cmath>

#include "plbhec/common/contracts.hpp"

namespace plbhec::fit {
namespace {

double clamp_x(double x) { return x < kMinX ? kMinX : x; }

}  // namespace

double eval(BasisFn f, double x) {
  PLBHEC_EXPECTS(x >= 0.0);
  const double xc = clamp_x(x);
  switch (f) {
    case BasisFn::kOne:
      return 1.0;
    case BasisFn::kLnX:
      return std::log(xc);
    case BasisFn::kX:
      return x;
    case BasisFn::kX2:
      return x * x;
    case BasisFn::kX3:
      return x * x * x;
    case BasisFn::kExpX:
      return std::exp(x);
    case BasisFn::kXExpX:
      return x * std::exp(x);
    case BasisFn::kXLnX:
      return x * std::log(xc);
  }
  PLBHEC_ASSERT(false);
  return 0.0;
}

void eval_all(double x, std::span<double, kBasisCount> out) {
  PLBHEC_EXPECTS(x >= 0.0);
  const double ln = std::log(clamp_x(x));
  const double ex = std::exp(x);
  out[static_cast<std::size_t>(BasisFn::kOne)] = 1.0;
  out[static_cast<std::size_t>(BasisFn::kLnX)] = ln;
  out[static_cast<std::size_t>(BasisFn::kX)] = x;
  out[static_cast<std::size_t>(BasisFn::kX2)] = x * x;
  out[static_cast<std::size_t>(BasisFn::kX3)] = x * x * x;
  out[static_cast<std::size_t>(BasisFn::kExpX)] = ex;
  out[static_cast<std::size_t>(BasisFn::kXExpX)] = x * ex;
  out[static_cast<std::size_t>(BasisFn::kXLnX)] = x * ln;
}

double derivative(BasisFn f, double x) {
  const double xc = clamp_x(x);
  switch (f) {
    case BasisFn::kOne:
      return 0.0;
    case BasisFn::kLnX:
      return 1.0 / xc;
    case BasisFn::kX:
      return 1.0;
    case BasisFn::kX2:
      return 2.0 * x;
    case BasisFn::kX3:
      return 3.0 * x * x;
    case BasisFn::kExpX:
      return std::exp(x);
    case BasisFn::kXExpX:
      return (1.0 + x) * std::exp(x);
    case BasisFn::kXLnX:
      return std::log(xc) + 1.0;
  }
  PLBHEC_ASSERT(false);
  return 0.0;
}

double second_derivative(BasisFn f, double x) {
  const double xc = clamp_x(x);
  switch (f) {
    case BasisFn::kOne:
      return 0.0;
    case BasisFn::kLnX:
      return -1.0 / (xc * xc);
    case BasisFn::kX:
      return 0.0;
    case BasisFn::kX2:
      return 2.0;
    case BasisFn::kX3:
      return 6.0 * x;
    case BasisFn::kExpX:
      return std::exp(x);
    case BasisFn::kXExpX:
      return (2.0 + x) * std::exp(x);
    case BasisFn::kXLnX:
      return 1.0 / xc;
  }
  PLBHEC_ASSERT(false);
  return 0.0;
}

std::string name(BasisFn f) {
  switch (f) {
    case BasisFn::kOne:
      return "1";
    case BasisFn::kLnX:
      return "ln(x)";
    case BasisFn::kX:
      return "x";
    case BasisFn::kX2:
      return "x^2";
    case BasisFn::kX3:
      return "x^3";
    case BasisFn::kExpX:
      return "e^x";
    case BasisFn::kXExpX:
      return "x*e^x";
    case BasisFn::kXLnX:
      return "x*ln(x)";
  }
  return "?";
}

std::span<const BasisFn> paper_terms() {
  // Ordered by extrapolation safety: when several candidate subsets fit the
  // probe points equally well (exact fits on 2-3 points are common early),
  // the tie breaks toward the earlier — physically more plausible — family.
  static constexpr std::array<BasisFn, 7> kTerms = {
      BasisFn::kX,    BasisFn::kXLnX,  BasisFn::kLnX, BasisFn::kX2,
      BasisFn::kX3,   BasisFn::kExpX,  BasisFn::kXExpX};
  return kTerms;
}

std::span<const BasisFn> all_terms() {
  static constexpr std::array<BasisFn, 8> kTerms = {
      BasisFn::kOne,  BasisFn::kLnX,  BasisFn::kX,     BasisFn::kX2,
      BasisFn::kX3,   BasisFn::kExpX, BasisFn::kXExpX, BasisFn::kXLnX};
  return kTerms;
}

}  // namespace plbhec::fit
