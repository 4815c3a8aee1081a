#include "obs/metrics.hpp"

#include <bit>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "util/common.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace hp::obs {

namespace {

int bucket_of(std::uint64_t ns) {
  if (ns <= 1) return 0;
  const int bit = std::bit_width(ns) - 1;  // floor(log2(ns))
  return bit < LatencyHistogram::kBuckets ? bit
                                          : LatencyHistogram::kBuckets - 1;
}

std::string format_ns(std::uint64_t ns) {
  return format_duration(static_cast<double>(ns) / 1e9);
}

std::string format_gauge(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

}  // namespace

void LatencyHistogram::record_ns(std::uint64_t ns) {
  buckets_[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
}

void LatencyHistogram::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::quantile_upper_ns(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  const std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(total - 1));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += bucket(i);
    if (seen > rank) return std::uint64_t{1} << (i + 1);
  }
  return std::uint64_t{1} << kBuckets;
}

struct Registry::Impl {
  mutable std::mutex mutex;
  // std::map keeps snapshots name-sorted; node stability lets callers
  // hold references across later registrations.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms;
};

Registry::Impl& Registry::impl() const {
  static Impl* impl = new Impl;  // leaked: metric refs outlive statics
  return *impl;
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  Impl& i = impl();
  const std::lock_guard<std::mutex> lock{i.mutex};
  auto& slot = i.counters[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  Impl& i = impl();
  const std::lock_guard<std::mutex> lock{i.mutex};
  auto& slot = i.gauges[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& Registry::latency(const std::string& name) {
  Impl& i = impl();
  const std::lock_guard<std::mutex> lock{i.mutex};
  auto& slot = i.histograms[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  Impl& i = impl();
  const std::lock_guard<std::mutex> lock{i.mutex};
  MetricsSnapshot out;
  for (const auto& [name, metric] : i.counters) {
    out.counters.push_back({name, metric->value()});
  }
  for (const auto& [name, metric] : i.gauges) {
    out.gauges.push_back({name, metric->value()});
  }
  for (const auto& [name, metric] : i.histograms) {
    HistogramSample s;
    s.name = name;
    s.count = metric->count();
    s.sum_ns = metric->sum_ns();
    s.p50_ns = metric->quantile_upper_ns(0.50);
    s.p90_ns = metric->quantile_upper_ns(0.90);
    s.p99_ns = metric->quantile_upper_ns(0.99);
    s.max_ns = metric->quantile_upper_ns(1.0);
    int last = -1;
    for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
      if (metric->bucket(b) > 0) last = b;
    }
    for (int b = 0; b <= last; ++b) s.buckets.push_back(metric->bucket(b));
    out.histograms.push_back(std::move(s));
  }
  return out;
}

void Registry::reset() {
  Impl& i = impl();
  const std::lock_guard<std::mutex> lock{i.mutex};
  for (auto& [name, metric] : i.counters) metric->set(0);
  for (auto& [name, metric] : i.gauges) metric->set(0.0);
  for (auto& [name, metric] : i.histograms) metric->reset();
}

Counter& counter(const std::string& name) {
  return Registry::global().counter(name);
}

Gauge& gauge(const std::string& name) {
  return Registry::global().gauge(name);
}

LatencyHistogram& latency(const std::string& name) {
  return Registry::global().latency(name);
}

std::string render_table(const MetricsSnapshot& snapshot) {
  Table table{{"metric", "type", "value"}};
  for (const CounterSample& s : snapshot.counters) {
    table.row().cell(s.name).cell("counter").cell(s.value);
  }
  for (const GaugeSample& s : snapshot.gauges) {
    table.row().cell(s.name).cell("gauge").cell(format_gauge(s.value));
  }
  for (const HistogramSample& s : snapshot.histograms) {
    std::ostringstream value;
    value << "count=" << s.count << " sum=" << format_ns(s.sum_ns)
          << " p50<=" << format_ns(s.p50_ns)
          << " p90<=" << format_ns(s.p90_ns)
          << " p99<=" << format_ns(s.p99_ns)
          << " max<=" << format_ns(s.max_ns);
    table.row().cell(s.name).cell("histogram").cell(value.str());
  }
  return table.to_string();
}

json::Object metrics_json(const MetricsSnapshot& snapshot,
                          json::Object record) {
  json::Object counters;
  for (const CounterSample& s : snapshot.counters) {
    counters.integer(s.name, s.value);
  }
  json::Object gauges;
  for (const GaugeSample& s : snapshot.gauges) gauges.number(s.name, s.value);
  json::Object histograms;
  for (const HistogramSample& s : snapshot.histograms) {
    histograms.object(s.name, json::Object{}
                                  .integer("count", s.count)
                                  .integer("sum_ns", s.sum_ns)
                                  .integer("p50_ns", s.p50_ns)
                                  .integer("p90_ns", s.p90_ns)
                                  .integer("p99_ns", s.p99_ns)
                                  .integer("max_ns", s.max_ns)
                                  .integers("buckets", s.buckets));
  }
  record.object("counters", counters)
      .object("gauges", gauges)
      .object("histograms", histograms);
  return record;
}

}  // namespace hp::obs
