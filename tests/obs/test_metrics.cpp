#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/json_check.hpp"

namespace hp::obs {
namespace {

TEST(Metrics, CounterAddAndSet) {
  Counter c;
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7u);
  c.set(100);
  EXPECT_EQ(c.value(), 100u);
}

TEST(Metrics, GaugeLastWriteWins) {
  Gauge g;
  g.set(1.5);
  g.set(-2.25);
  EXPECT_EQ(g.value(), -2.25);
}

TEST(Metrics, HistogramBucketsAndQuantiles) {
  LatencyHistogram h;
  // 10 samples at ~1us, one outlier at ~1ms.
  for (int i = 0; i < 10; ++i) h.record_ns(1024);
  h.record_ns(1'000'000);
  EXPECT_EQ(h.count(), 11u);
  EXPECT_EQ(h.sum_ns(), 10u * 1024u + 1'000'000u);
  // p50 must land in the 1us bucket (upper bound 2^11), max in the
  // outlier's bucket.
  EXPECT_EQ(h.quantile_upper_ns(0.5), std::uint64_t{1} << 11);
  EXPECT_GE(h.quantile_upper_ns(1.0), 1'000'000u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile_upper_ns(0.5), 0u);
}

TEST(Metrics, HistogramZeroNanosecondSample) {
  LatencyHistogram h;
  h.record_ns(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.bucket(0), 1u);
}

TEST(Metrics, RegistryReturnsStableReferences) {
  Counter& a = counter("test.stable");
  a.add(1);
  // Registering more metrics must not invalidate the reference.
  for (int i = 0; i < 64; ++i) {
    counter("test.stable.filler" + std::to_string(i));
  }
  Counter& b = counter("test.stable");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 1u);
  Registry::global().reset();
}

TEST(Metrics, RegistryConcurrentUpdates) {
  Registry::global().reset();
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      Counter& c = counter("test.concurrent");
      for (int i = 0; i < kIncrements; ++i) c.add(1);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(counter("test.concurrent").value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  Registry::global().reset();
}

TEST(Metrics, SnapshotIsNameSorted) {
  Registry::global().reset();
  counter("test.zzz").add(1);
  counter("test.aaa").add(2);
  const MetricsSnapshot snap = Registry::global().snapshot();
  std::size_t aaa = snap.counters.size();
  std::size_t zzz = 0;
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (snap.counters[i].name == "test.aaa") aaa = i;
    if (snap.counters[i].name == "test.zzz") zzz = i;
  }
  EXPECT_LT(aaa, zzz);
  Registry::global().reset();
}

TEST(Metrics, RenderTableListsEveryKind) {
  MetricsSnapshot snap;
  snap.counters.push_back({"peel.rounds", 6});
  snap.gauges.push_back({"peel.peak_queue_length", 17.0});
  HistogramSample h;
  h.name = "context.build_ns";
  h.count = 3;
  h.sum_ns = 3000;
  h.p50_ns = 1024;
  h.p90_ns = 1024;
  h.p99_ns = 2048;
  h.max_ns = 2048;
  snap.histograms.push_back(h);

  const std::string table = render_table(snap);
  EXPECT_NE(table.find("metric"), std::string::npos);
  EXPECT_NE(table.find("peel.rounds"), std::string::npos);
  EXPECT_NE(table.find("counter"), std::string::npos);
  EXPECT_NE(table.find("gauge"), std::string::npos);
  EXPECT_NE(table.find("count=3"), std::string::npos);
  EXPECT_NE(table.find("p50<="), std::string::npos);
  EXPECT_NE(table.find("p90<="), std::string::npos);
  EXPECT_NE(table.find("p99<="), std::string::npos);
}

TEST(Metrics, JsonExportRoundTripsThroughParser) {
  MetricsSnapshot snap;
  snap.counters.push_back({"a.count", 42});
  snap.gauges.push_back({"b.gauge", 0.5});
  HistogramSample h;
  h.name = "c.lat";
  h.count = 2;
  h.sum_ns = 300;
  h.buckets = {0, 0, 0, 0, 0, 0, 1, 1};
  snap.histograms.push_back(h);

  const json::Value root = json::parse(metrics_json(snap).text());

  const json::Value* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("a.count"), nullptr);
  EXPECT_EQ(counters->find("a.count")->number, 42.0);

  const json::Value* gauges = root.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->find("b.gauge")->number, 0.5);

  const json::Value* histograms = root.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::Value* lat = histograms->find("c.lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->find("count")->number, 2.0);
  EXPECT_EQ(lat->find("buckets")->array.size(), 8u);
}

TEST(Metrics, EmptySnapshotStillValidJson) {
  const json::Value root = json::parse(metrics_json(MetricsSnapshot{}).text());
  EXPECT_EQ(root.type, json::Value::Type::kObject);
  EXPECT_TRUE(root.find("counters")->object.empty());
}

}  // namespace
}  // namespace hp::obs
