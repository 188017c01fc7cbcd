#pragma once
/// \file trace.hpp
/// Execution trace: per-unit busy segments recorded by the engines, from
/// which the metrics module derives Gantt charts, idleness percentages and
/// block distributions.

#include <cstddef>
#include <string>
#include <vector>

#include "plbhec/rt/types.hpp"

namespace plbhec::rt {

enum class SegmentKind { kTransfer, kExec };

struct TraceSegment {
  UnitId unit = 0;
  SegmentKind kind = SegmentKind::kExec;
  double start = 0.0;
  double end = 0.0;
  std::size_t grains = 0;

  [[nodiscard]] double duration() const { return end - start; }
};

class TraceLog {
 public:
  void reserve(std::size_t n) { segments_.reserve(n); }
  void add(const TraceSegment& seg) { segments_.push_back(seg); }
  void clear() { segments_.clear(); }

  [[nodiscard]] const std::vector<TraceSegment>& segments() const {
    return segments_;
  }

 private:
  std::vector<TraceSegment> segments_;
};

}  // namespace plbhec::rt
