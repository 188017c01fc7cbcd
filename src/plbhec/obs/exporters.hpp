#pragma once
/// \file exporters.hpp
/// Trace and counter exporters: Chrome trace-event JSON (loadable in
/// Perfetto / chrome://tracing), flat CSV, and a human-readable run
/// summary. Busy segments from the RunResult trace become duration
/// slices ("ph":"X", one track per processing unit); decision events
/// from the EventSink become instant events ("ph":"i") on the unit they
/// belong to (or the scheduler track for cluster-wide decisions).

#include <span>
#include <string>
#include <vector>

#include "plbhec/obs/counters.hpp"
#include "plbhec/obs/events.hpp"
#include "plbhec/rt/engine.hpp"

namespace plbhec::obs {

/// Chrome trace-event JSON for the run: exec/transfer segments as slices,
/// decision events as instants, unit names as thread-name metadata.
/// Timestamps are microseconds of virtual time.
[[nodiscard]] std::string chrome_trace_json(const rt::RunResult& run,
                                            std::span<const Event> events);

/// Writes chrome_trace_json() to `path`; false on I/O failure.
bool write_chrome_trace(const rt::RunResult& run, std::span<const Event> events,
                        const std::string& path);

/// Flat CSV of the decision events:
/// time,kind,unit,a,b,i,j (header included; unit empty for kNoUnit).
[[nodiscard]] std::string events_csv(std::span<const Event> events);

/// Human-readable run digest: makespan, per-unit busy/idle/grain shares,
/// per-kind decision counts, and (when given) the counter snapshot.
[[nodiscard]] std::string run_summary(const rt::RunResult& run,
                                      std::span<const Event> events,
                                      const CounterRegistry* counters = nullptr);

}  // namespace plbhec::obs
