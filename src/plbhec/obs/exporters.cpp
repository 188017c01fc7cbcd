#include "plbhec/obs/exporters.hpp"

#include <array>
#include <cstdarg>
#include <cstdio>

namespace plbhec::obs {

namespace {

constexpr double kSecondsToUs = 1e6;

void append_fmt(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

/// JSON-escapes the characters that can occur in unit/workload names.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

/// Appends the "args" object of a decision event from its named payload
/// fields; empty args object when the kind uses none.
void append_event_args(std::string& out, const Event& e) {
  const std::array<const char*, 4> names = arg_names(e.kind);
  const double doubles[2] = {e.a, e.b};
  const std::uint64_t ints[2] = {e.i, e.j};
  out += "\"args\":{";
  bool first = true;
  for (std::size_t f = 0; f < 2; ++f) {
    if (names[f] == nullptr) continue;
    append_fmt(out, "%s\"%s\":%.9g", first ? "" : ",", names[f], doubles[f]);
    first = false;
  }
  for (std::size_t f = 0; f < 2; ++f) {
    if (names[2 + f] == nullptr) continue;
    append_fmt(out, "%s\"%s\":%llu", first ? "" : ",", names[2 + f],
               static_cast<unsigned long long>(ints[f]));
    first = false;
  }
  out += '}';
}

bool write_string(const std::string& text, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

std::string chrome_trace_json(const rt::RunResult& run,
                              std::span<const Event> events) {
  std::string out;
  out.reserve(256 + 160 * (run.trace.segments().size() + events.size()));
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";

  // Track metadata: one named thread per unit, plus a scheduler track for
  // cluster-wide decisions.
  const std::size_t scheduler_tid = run.units.size();
  bool first = true;
  for (const rt::UnitInfo& u : run.units) {
    append_fmt(out,
               "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
               "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
               first ? "" : ",\n", u.id, json_escape(u.name).c_str());
    first = false;
  }
  append_fmt(out,
             "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
             "\"tid\":%zu,\"args\":{\"name\":\"scheduler\"}}",
             first ? "" : ",\n", scheduler_tid);

  for (const rt::TraceSegment& seg : run.trace.segments()) {
    append_fmt(out,
               ",\n{\"name\":\"%s\",\"cat\":\"segment\",\"ph\":\"X\","
               "\"ts\":%.6f,\"dur\":%.6f,\"pid\":0,\"tid\":%zu,"
               "\"args\":{\"grains\":%zu}}",
               seg.kind == rt::SegmentKind::kExec ? "exec" : "transfer",
               seg.start * kSecondsToUs, seg.duration() * kSecondsToUs,
               seg.unit, seg.grains);
  }

  for (const Event& e : events) {
    const std::size_t tid =
        e.unit == kNoUnit ? scheduler_tid : static_cast<std::size_t>(e.unit);
    append_fmt(out,
               ",\n{\"name\":\"%s\",\"cat\":\"decision\",\"ph\":\"i\","
               "\"ts\":%.6f,\"pid\":0,\"tid\":%zu,\"s\":\"t\",",
               to_string(e.kind), e.time * kSecondsToUs, tid);
    append_event_args(out, e);
    out += '}';
  }

  out += "\n]}\n";
  return out;
}

bool write_chrome_trace(const rt::RunResult& run, std::span<const Event> events,
                        const std::string& path) {
  return write_string(chrome_trace_json(run, events), path);
}

std::string events_csv(std::span<const Event> events) {
  std::string out = "time,kind,unit,a,b,i,j\n";
  out.reserve(out.size() + 64 * events.size());
  for (const Event& e : events) {
    append_fmt(out, "%.17g,%s,", e.time, to_string(e.kind));
    if (e.unit != kNoUnit) append_fmt(out, "%u", e.unit);
    append_fmt(out, ",%.17g,%.17g,%llu,%llu\n", e.a, e.b,
               static_cast<unsigned long long>(e.i),
               static_cast<unsigned long long>(e.j));
  }
  return out;
}

std::string run_summary(const rt::RunResult& run,
                        std::span<const Event> events,
                        const CounterRegistry* counters) {
  std::string out;
  append_fmt(out, "run: %s  makespan %.6f s  grains %zu  barriers %zu\n",
             run.ok ? "ok" : run.error.c_str(), run.makespan,
             run.total_grains, run.barriers);

  out += "unit                  busy[s]   exec[s]  xfer[s]  idle%   grains  tasks\n";
  for (const rt::UnitInfo& u : run.units) {
    const rt::UnitStats& s = run.unit_stats[u.id];
    append_fmt(out, "%-20s %8.4f  %8.4f %8.4f  %5.1f %8zu %6zu%s\n",
               u.name.c_str(), s.busy_seconds(), s.exec_seconds,
               s.transfer_seconds, 100.0 * run.idle_fraction(u.id), s.grains,
               s.tasks, s.failed ? "  FAILED" : "");
  }

  std::array<std::size_t, kEventKindCount> by_kind{};
  for (const Event& e : events) ++by_kind[static_cast<std::size_t>(e.kind)];
  out += "decisions:";
  bool any = false;
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    if (by_kind[k] == 0) continue;
    append_fmt(out, " %s=%zu", to_string(static_cast<EventKind>(k)),
               by_kind[k]);
    any = true;
  }
  if (!any) out += " (none recorded)";
  out += '\n';

  if (counters != nullptr) {
    out += "counters:\n";
    for (const auto& [name, value] : counters->snapshot())
      append_fmt(out, "  %-32s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(value));
  }
  return out;
}

}  // namespace plbhec::obs
