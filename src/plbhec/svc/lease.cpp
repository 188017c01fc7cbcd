#include "plbhec/svc/lease.hpp"

#include <algorithm>
#include <cmath>

#include "plbhec/common/contracts.hpp"

namespace plbhec::svc {

const char* to_string(PriorityClass priority) {
  switch (priority) {
    case PriorityClass::kHigh: return "high";
    case PriorityClass::kNormal: return "normal";
    case PriorityClass::kLow: return "low";
  }
  return "unknown";
}

double weight(PriorityClass priority) {
  constexpr double kHighWeight = 2.0;
  constexpr double kNormalWeight = 1.0;
  constexpr double kLowWeight = 0.5;
  switch (priority) {
    case PriorityClass::kHigh: return kHighWeight;
    case PriorityClass::kNormal: return kNormalWeight;
    case PriorityClass::kLow: return kLowWeight;
  }
  return kNormalWeight;
}

std::vector<std::size_t> lease_targets(std::span<const ActiveJobView> jobs,
                                       std::size_t units) {
  const std::size_t k = jobs.size();
  PLBHEC_EXPECTS(k >= 1);
  PLBHEC_EXPECTS(k <= units);

  const std::size_t floor_share = units / k;
  std::vector<std::size_t> targets(k, floor_share);
  std::size_t rest = units - floor_share * k;
  if (rest == 0) return targets;

  double total_weight = 0.0;
  for (const ActiveJobView& job : jobs) total_weight += weight(job.priority);

  // Largest-remainder apportionment of the remainder units by weight.
  std::vector<double> remainder(k, 0.0);
  const double rest_units = static_cast<double>(rest);
  for (std::size_t i = 0; i < k; ++i) {
    const double quota = rest_units * weight(jobs[i].priority) / total_weight;
    const double whole = std::floor(quota);
    const auto grant = std::min(rest, static_cast<std::size_t>(whole));
    targets[i] += grant;
    rest -= grant;
    remainder[i] = quota - whole;
  }

  std::vector<std::size_t> order(k);
  for (std::size_t i = 0; i < k; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (remainder[a] != remainder[b]) {
                       return remainder[a] > remainder[b];
                     }
                     return jobs[a].id < jobs[b].id;
                   });
  for (std::size_t i = 0; i < k && rest > 0; ++i, --rest) ++targets[order[i]];
  return targets;
}

double stretch_bound(std::size_t units, std::size_t jobs) {
  PLBHEC_EXPECTS(jobs >= 1);
  PLBHEC_EXPECTS(units >= jobs);
  return static_cast<double>(units) / static_cast<double>(units / jobs);
}

}  // namespace plbhec::svc
