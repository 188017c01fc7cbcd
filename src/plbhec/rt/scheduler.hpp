#pragma once
/// \file scheduler.hpp
/// The scheduling-policy plug-in interface, mirroring the surface StarPU
/// offers its pluggable schedulers: the engine asks the policy for the next
/// block size of an idle unit and reports every completion.
///
/// Barrier protocol (used by Acosta's iteration synchronization; PLB-HeC
/// never parks a unit on purpose): a scheduler that wants to synchronize
/// simply returns 0 from next_block() for units it wants parked. When every
/// unit has gone idle and work remains, the engine invokes on_barrier() and
/// then resumes asking for blocks.

#include <string>

#include "plbhec/rt/types.hpp"

namespace plbhec::obs {
class EventSink;
}

namespace plbhec::rt {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Wires the observability sink the scheduler records its decisions
  /// into (may be null = record nothing). The engine calls this before
  /// start() with the sink from its EngineOptions.
  void set_event_sink(obs::EventSink* sink) { sink_ = sink; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once before execution starts.
  virtual void start(const std::vector<UnitInfo>& units,
                     const WorkInfo& work) = 0;

  /// Returns the number of grains to hand to `unit` now, or 0 to leave the
  /// unit idle until the scheduler state changes. The engine clamps the
  /// request to the remaining unassigned grains.
  [[nodiscard]] virtual std::size_t next_block(UnitId unit, double now) = 0;

  /// Completion callback with the profiled times.
  virtual void on_complete(const TaskObservation& obs) = 0;

  /// Called when all units are idle but unassigned work remains (the
  /// barrier the scheduler constructed by returning 0 has been reached).
  virtual void on_barrier(double now);

  /// Called when a unit fails permanently. `lost_grains` is the size of
  /// its in-flight task, which the engine has returned to the pool —
  /// schedulers that track issued work must credit it back. Default: no-op
  /// (schedulers that never see failures need no handling).
  virtual void on_unit_failed(UnitId unit, std::size_t lost_grains,
                              double now);

 protected:
  obs::EventSink* sink_ = nullptr;  ///< decision-event sink; may be null
};

}  // namespace plbhec::rt
