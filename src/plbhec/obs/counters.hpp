#pragma once
/// \file counters.hpp
/// Named monotonic counter registry: one home for run-level integers. Its
/// writers are the service's end-of-run totals and store failures
/// (`svc.*`), the kernel-dispatch registry (`kdisp.*`), and RemoteUnit wire
/// statistics and the worker daemons' reactor counters (`net.<name>.*`).
/// Registration is mutex-guarded and returns a stable Counter reference;
/// increments are relaxed atomic adds, so hot paths cache the reference
/// and pay one fetch_add. snapshot() returns a name-sorted copy for the
/// exporters and run summaries.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace plbhec::obs {

class CounterRegistry {
 public:
  class Counter {
   public:
    void add(std::uint64_t delta = 1) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    }
    void set(std::uint64_t value) {
      value_.store(value, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t value() const {
      return value_.load(std::memory_order_relaxed);
    }

   private:
    std::atomic<std::uint64_t> value_{0};
  };

  CounterRegistry() = default;
  CounterRegistry(const CounterRegistry&) = delete;
  CounterRegistry& operator=(const CounterRegistry&) = delete;

  /// Create-or-get; the returned reference stays valid for the registry's
  /// lifetime (entries are never removed).
  [[nodiscard]] Counter& counter(std::string_view name);

  /// One-shot convenience forms (registration + operation).
  void add(std::string_view name, std::uint64_t delta = 1) {
    counter(name).add(delta);
  }
  void set(std::string_view name, std::uint64_t value) {
    counter(name).set(value);
  }

  /// Current value, 0 when the counter was never registered.
  [[nodiscard]] std::uint64_t value(std::string_view name) const;

  /// Name-sorted copy of every counter.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> snapshot()
      const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
};

}  // namespace plbhec::obs
