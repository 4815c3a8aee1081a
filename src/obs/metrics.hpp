// Metrics registry: named counters, gauges and fixed-bucket latency
// histograms behind relaxed atomics, with JSON and pretty-table export.
//
// Counters/gauges/histograms are created on first lookup and live for
// the process lifetime, so call sites may cache the returned reference
// across hot loops (a name lookup takes the registry mutex; an update
// is a relaxed atomic op). Cold paths just call hp::obs::counter("x")
// inline.
//
// The pretty-table renderer (render_table) is the single formatter the
// CLI stats flags route through: --peel-stats and --context-stats build
// a MetricsSnapshot from their structs and render it here instead of
// keeping bespoke column code (DESIGN.md section 9).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json_check.hpp"

namespace hp::obs {

/// Monotonic counter. add() for event counts; set() for publishing an
/// externally accumulated total (e.g. PeelStats after a peel).
class Counter {
 public:
  void add(std::uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void set(std::uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket latency histogram over nanoseconds: bucket i counts
/// samples in [2^i, 2^(i+1)) ns (bucket 0 holds 0..1 ns), 48 buckets
/// cover everything below ~78 hours. Quantiles are upper bounds read
/// from the bucket boundaries (at most 2x off, plenty for "where did
/// the time go" questions).
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 48;

  void record_ns(std::uint64_t ns);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum_ns() const {
    return sum_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Upper bound of the bucket holding quantile q (0 < q <= 1), in ns.
  /// 0 when empty.
  std::uint64_t quantile_upper_ns(double q) const;

  /// Zero every bucket and accumulator (not atomic as a whole; callers
  /// quiesce recorders first).
  void reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t p50_ns = 0;  // bucket upper bounds
  std::uint64_t p90_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t max_ns = 0;
  std::vector<std::uint64_t> buckets;  // trailing zero buckets trimmed
};

/// Point-in-time value dump, sorted by name within each kind. Also the
/// input format of the shared exporters, so modules with their own
/// counter structs (PeelStats, ContextStats) can render through the
/// same code.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Process-global named-metric registry.
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& latency(const std::string& name);

  MetricsSnapshot snapshot() const;

  /// Zero every registered metric (tests); names stay registered.
  void reset();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  struct Impl;
  Impl& impl() const;
};

/// Conveniences against the global registry.
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
LatencyHistogram& latency(const std::string& name);

/// Pretty table: `metric | type | value` rows (histograms summarized as
/// count/p50/p90/max with human-readable durations).
std::string render_table(const MetricsSnapshot& snapshot);

/// The one JSON form of a snapshot: "counters" {name: value}, "gauges"
/// {name: value} and "histograms" {name: {count, sum_ns, p50_ns, p90_ns,
/// p99_ns, max_ns, buckets}}, appended as members to `record` so a
/// caller can lead with its own (the JSONL sink's timestamps).
json::Object metrics_json(const MetricsSnapshot& snapshot,
                          json::Object record = {});

}  // namespace hp::obs
