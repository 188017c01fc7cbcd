#pragma once
/// \file ip_oracle.hpp
/// The paper's block-size selection: Eq. (3)-(5) as a nonlinear program
/// solved by the interior-point method (IPOPT in the paper). The scheduler
/// runs solve_equal_time() instead, which finds the same equal-time point
/// by a root find on the common finish time; this stays as the fidelity
/// oracle that tests and benches hold the production selector against.

#include <span>

#include "plbhec/fit/model.hpp"
#include "plbhec/solver/equal_time.hpp"
#include "plbhec/solver/interior_point.hpp"

namespace plbhec::solver {

/// Solves Eq. (3)-(5) for fractions in [kMinFraction, window] summing to
/// `window`, started from the uniform split (independent of the production
/// selector).
[[nodiscard]] IpResult solve_equal_time_ip(
    std::span<const fit::PerfModel> models, double window);

}  // namespace plbhec::solver
