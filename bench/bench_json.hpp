#pragma once
/// \file bench_json.hpp
/// Output side of the gated benches: the pass/fail gates a bench declares
/// in its JSON, and the one writer for the finished document.
/// tools/check_bench.py is the only code that evaluates the gates, so a
/// bench's exit code says only whether it ran and wrote its JSON.
///
/// Every value a gate reads is printed with %.17g (counts as integers):
/// the checker then compares the same double the bench computed.

#include <charconv>
#include <cstdio>
#include <string>
#include <vector>

namespace plbhec::bench {

/// The `"gates"` member of a bench JSON. A gate is {key, op, bound, kind}:
/// `key` is a dotted path with list indices (`gemm[2].speedup`), `op` is
/// `>=`, `<=` or `==`, and `kind` is `abs` (compare with `bound`) or `rel`
/// (compare with `bound` times the committed baseline's value). A `rel`
/// ceiling may carry `slack`, making the limit max(slack, bound x base),
/// and a gate with `when` applies only where that boolean key is true.
class Gates {
 public:
  /// `key op bound`, whatever the baseline says.
  Gates& abs(const std::string& key, const char* op, double bound) {
    gates_.push_back({key, op, number(bound), "abs", "", ""});
    return *this;
  }
  /// `key == true`.
  Gates& is_true(const std::string& key) {
    gates_.push_back({key, "==", "true", "abs", "", ""});
    return *this;
  }
  /// `key op factor x baseline`.
  Gates& rel(const std::string& key, const char* op, double factor) {
    gates_.push_back({key, op, number(factor), "rel", "", ""});
    return *this;
  }
  /// `key <= max(slack, factor x baseline)`.
  Gates& rel_ceiling(const std::string& key, double factor, double slack) {
    gates_.push_back({key, "<=", number(factor), "rel", number(slack), ""});
    return *this;
  }
  /// Applies the last gate only where the boolean `flag` key is true.
  Gates& when(const std::string& flag) {
    gates_.back().when = flag;
    return *this;
  }

  /// `  "gates": [...],` with one gate per line, ready to follow the
  /// `"benchmark"` line.
  [[nodiscard]] std::string json() const {
    std::string out = "  \"gates\": [\n";
    for (std::size_t i = 0; i < gates_.size(); ++i) {
      const Gate& g = gates_[i];
      out += "    {\"key\": \"" + g.key + "\", \"op\": \"" + g.op +
             "\", \"bound\": " + g.bound + ", \"kind\": \"" + g.kind + "\"";
      if (!g.slack.empty()) out += ", \"slack\": " + g.slack;
      if (!g.when.empty()) out += ", \"when\": \"" + g.when + "\"";
      out += i + 1 < gates_.size() ? "},\n" : "}\n";
    }
    return out + "  ],\n";
  }

 private:
  struct Gate {
    std::string key, op, bound, kind, slack, when;  ///< bound/slack as JSON
  };

  /// Shortest text that parses back to exactly `v`.
  static std::string number(double v) {
    char buf[32];
    return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
  }

  std::vector<Gate> gates_;
};

/// Prints the finished bench JSON to stdout and writes it to every
/// non-empty path. Returns the bench's exit code: 0, or 1 after naming a
/// path it could not write.
inline int write_json(const std::string& json,
                      const std::vector<std::string>& paths) {
  std::fputs(json.c_str(), stdout);
  int rc = 0;
  for (const std::string& path : paths) {
    if (path.empty()) continue;
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fputs(json.c_str(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      rc = 1;
    }
  }
  return rc;
}

}  // namespace plbhec::bench
