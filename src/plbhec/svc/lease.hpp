#pragma once
/// \file lease.hpp
/// Unit-lease fairness policy of the multi-tenant service: how many
/// processing units each active job is entitled to hold. Leases change
/// hands only at block boundaries (the JobManager revokes a unit when its
/// in-flight task completes), so the policy here is purely about *targets*.
///
/// Fairness invariant: with k active jobs on n units, every job — whatever
/// its priority class — holds at least floor(n / k) units. Priority
/// weights (high 2, normal 1, low 0.5) bias only the distribution of the
/// n mod k remainder units. Because admission caps k at n (one job per
/// live unit), the floor is at least 1, which bounds any job's makespan
/// stretch against running alone: it always commands at least a
/// floor(n/k)/n share of the cluster (see stretch_bound()).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace plbhec::svc {

using JobId = std::size_t;

enum class PriorityClass : std::uint8_t {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};

[[nodiscard]] const char* to_string(PriorityClass priority);

/// The remainder-apportionment weight of a priority class.
[[nodiscard]] double weight(PriorityClass priority);

/// An active job as the lease policy sees it.
struct ActiveJobView {
  JobId id = 0;
  PriorityClass priority = PriorityClass::kNormal;
};

/// Target unit counts, one per entry of `jobs` (requires 1 <= jobs.size()
/// <= units). Every job gets the floor(units / jobs) fairness floor; the
/// remainder is apportioned by priority weight with the largest-remainder
/// rule, ties broken toward the lower JobId — fully deterministic. The
/// targets always sum to `units`.
[[nodiscard]] std::vector<std::size_t> lease_targets(
    std::span<const ActiveJobView> jobs, std::size_t units);

/// Unit-count stretch bound the fairness floor guarantees with k concurrent
/// jobs on n units: n / floor(n / k). (A capacity bound, not a makespan
/// theorem: heterogeneous unit speeds and queueing add their own factors.)
[[nodiscard]] double stretch_bound(std::size_t units, std::size_t jobs);

}  // namespace plbhec::svc
