#include "plbhec/fit/model.hpp"

#include <cstdio>

#include "plbhec/common/contracts.hpp"

namespace plbhec::fit {

double CurveModel::operator()(double x) const {
  PLBHEC_EXPECTS(valid());
  double acc = 0.0;
  for (std::size_t i = 0; i < terms.size(); ++i)
    acc += coefficients[i] * eval(terms[i], x);
  return acc;
}

double CurveModel::derivative(double x) const {
  PLBHEC_EXPECTS(valid());
  double acc = 0.0;
  for (std::size_t i = 0; i < terms.size(); ++i)
    acc += coefficients[i] * fit::derivative(terms[i], x);
  return acc;
}

double CurveModel::second_derivative(double x) const {
  PLBHEC_EXPECTS(valid());
  double acc = 0.0;
  for (std::size_t i = 0; i < terms.size(); ++i)
    acc += coefficients[i] * fit::second_derivative(terms[i], x);
  return acc;
}

std::string CurveModel::to_string() const {
  if (!valid()) return "<invalid>";
  std::string out;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4g", coefficients[i]);
    if (i) out += coefficients[i] >= 0.0 ? " + " : " ";
    out += buf;
    if (terms[i] != BasisFn::kOne) {
      out += "*";
      out += name(terms[i]);
    }
  }
  return out;
}

}  // namespace plbhec::fit
