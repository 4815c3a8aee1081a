// CLI smoke tests: usage/exit-code behaviour of the dispatcher and the
// --context-stats counter block.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli/commands.hpp"
#include "obs/json_check.hpp"
#include "obs/trace.hpp"
#include "scratch_dir.hpp"

namespace hp::cli {
namespace {

Args make_args(std::initializer_list<const char*> argv) {
  std::vector<const char*> v;
  v.push_back("hp_cli");
  v.insert(v.end(), argv);
  return Args{static_cast<int>(v.size()), v.data()};
}

class CliSmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::ofstream out(table_path_);
    out << "Arp23\tARP2\tARP3\tARC15\n"
        << "SAGA\tGCN5\tADA2\tSPT7\tARP2\n"
        << "ADA\tGCN5\tADA2\n";
  }

  testutil::ScratchDir scratch_;  // removed with everything in it
  std::string table_path_ = scratch_.file("cli_smoke_complexes.tsv");
};

TEST_F(CliSmokeTest, NoArgumentsPrintsUsageAndFails) {
  std::ostringstream out;
  const int rc = run(make_args({}), out);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(out.str().find("usage"), std::string::npos);
  EXPECT_EQ(out.str(), usage());
}

TEST_F(CliSmokeTest, UnknownSubcommandPrintsUsageAndFails) {
  std::ostringstream out;
  const int rc = run(make_args({"frobnicate", table_path_.c_str()}), out);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(out.str().find("usage"), std::string::npos);
}

TEST_F(CliSmokeTest, UsageMentionsEveryCommandAndContextStats) {
  const std::string text = usage();
  for (const char* name :
       {"stats", "report", "core", "cover", "match", "soverlap",
        "smallworld", "convert", "generate", "pajek", "render"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  EXPECT_NE(text.find("--context-stats"), std::string::npos);
  EXPECT_NE(text.find("--trace"), std::string::npos);
  EXPECT_NE(text.find("--metrics"), std::string::npos);
  EXPECT_NE(text.find("HP_TRACE"), std::string::npos);
  EXPECT_NE(text.find("--profile"), std::string::npos);
  EXPECT_NE(text.find("HP_PROFILE"), std::string::npos);
  EXPECT_NE(text.find("--metrics-interval"), std::string::npos);
  EXPECT_NE(text.find("HP_METRICS_INTERVAL"), std::string::npos);
  EXPECT_NE(text.find("--slow-span-ms"), std::string::npos);
}

TEST_F(CliSmokeTest, ContextStatsFlagEmitsCounterBlock) {
  std::ostringstream out;
  const int rc = run(
      make_args({"stats", table_path_.c_str(), "--context-stats"}), out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.str().find("context artifact counters"), std::string::npos);
  // The block routes through the shared metrics table: one
  // `metric | type | value` row per counter.
  EXPECT_NE(out.str().find("context.components.builds"), std::string::npos);
  EXPECT_NE(out.str().find("context.overlap_table.builds"),
            std::string::npos);
  EXPECT_NE(out.str().find("counter"), std::string::npos);
}

TEST_F(CliSmokeTest, WithoutFlagNoCounterBlock) {
  std::ostringstream out;
  const int rc = run(make_args({"stats", table_path_.c_str()}), out);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(out.str().find("context artifact counters"), std::string::npos);
}

TEST_F(CliSmokeTest, ReportContextStatsBuildsEachArtifactAtMostOnce) {
  std::ostringstream out;
  const int rc = run(
      make_args({"report", table_path_.c_str(), "--context-stats"}), out);
  EXPECT_EQ(rc, 0);
  const std::string text = out.str();
  const std::size_t block = text.find("context artifact counters");
  ASSERT_NE(block, std::string::npos);
  // Every per-artifact `context.<slug>.builds | counter | N` row shows 0
  // or 1 builds -- nothing is ever rebuilt within one CLI invocation.
  std::istringstream lines{text.substr(block)};
  std::string line;
  int rows = 0;
  while (std::getline(lines, line)) {
    const std::size_t builds_col = line.find(".builds ");
    if (line.rfind("context.", 0) != 0 || builds_col == std::string::npos) {
      continue;
    }
    if (line.rfind("context.total.", 0) == 0) continue;
    const std::size_t last_sep = line.rfind('|');
    ASSERT_NE(last_sep, std::string::npos) << line;
    std::istringstream value{line.substr(last_sep + 1)};
    std::uint64_t builds = 99;
    value >> builds;
    EXPECT_LE(builds, 1u) << line;
    ++rows;
  }
  EXPECT_GT(rows, 10);
}

TEST_F(CliSmokeTest, TraceFlagWritesParseableChromeTrace) {
  const std::string trace_path = scratch_.file("cli_smoke_trace.json");
  std::ostringstream out;
  const int rc = run(
      make_args({"report", table_path_.c_str(), "--trace",
                 trace_path.c_str()}),
      out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.str().find("wrote trace"), std::string::npos);

  std::ifstream in{trace_path};
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const obs::json::Value root = obs::json::parse(text.str());
  const obs::TraceSummary summary = obs::summarize_trace(root);
  EXPECT_TRUE(summary.all_balanced());
  EXPECT_TRUE(summary.all_monotonic());
  // The report drives the context, which nests artifact-build spans
  // under the command span; the peel loop adds one span per level.
  for (const char* name :
       {"cli.report", "cli.load_dataset", "context.build.core_decomposition",
        "kcore.peel_level"}) {
    EXPECT_NE(text.str().find(name), std::string::npos) << name;
  }
  std::remove(trace_path.c_str());
  obs::set_tracing_enabled(false);
  obs::reset_tracing();
}

TEST_F(CliSmokeTest, MetricsFlagWritesRegistryJson) {
  const std::string metrics_path =
      scratch_.file("cli_smoke_metrics.json");
  std::ostringstream out;
  const int rc = run(
      make_args({"core", table_path_.c_str(), "--metrics",
                 metrics_path.c_str()}),
      out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.str().find("wrote metrics"), std::string::npos);

  std::ifstream in{metrics_path};
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const obs::json::Value root = obs::json::parse(text.str());
  const obs::json::Value* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  // The core command peels, so the substrate counters and the context
  // cache counters must both be in the dump.
  EXPECT_NE(counters->find("peel.rounds"), nullptr);
  EXPECT_NE(counters->find("context.core_decomposition.builds"), nullptr);
  const obs::json::Value* histograms = root.find("histograms");
  ASSERT_NE(histograms, nullptr);
  EXPECT_NE(histograms->find("context.build_ns"), nullptr);
  std::remove(metrics_path.c_str());
}

TEST_F(CliSmokeTest, TracedCommandYieldsSingleConnectedSpanTree) {
  const std::string trace_path =
      scratch_.file("cli_smoke_tree.json");
  std::ostringstream out;
  const int rc = run(
      make_args({"report", table_path_.c_str(), "--trace",
                 trace_path.c_str()}),
      out);
  EXPECT_EQ(rc, 0);

  std::ifstream in{trace_path};
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const obs::TraceSummary summary =
      obs::summarize_trace(obs::json::parse(text.str()));
  // The whole command -- dataset load, every artifact build, peel
  // levels, pool tasks -- hangs off the one cli.report root span.
  EXPECT_TRUE(summary.parent_integrity);
  ASSERT_EQ(summary.trees.size(), 1u);
  EXPECT_EQ(summary.trees[0].roots, 1u);
  EXPECT_TRUE(summary.trees[0].connected);
  EXPECT_TRUE(summary.all_single_rooted());
  EXPECT_GT(summary.trees[0].spans, 10u);
  std::remove(trace_path.c_str());
  obs::set_tracing_enabled(false);
  obs::reset_tracing();
}

// Satellite (a): observability reports must flush on error paths too --
// a trace of a failing run is precisely when you want one.
TEST_F(CliSmokeTest, FailingCommandStillFlushesTraceAndMetrics) {
  const std::string trace_path =
      scratch_.file("cli_smoke_err_trace.json");
  const std::string metrics_path =
      scratch_.file("cli_smoke_err_metrics.json");
  std::ostringstream out;
  const int rc = run(
      make_args({"stats", "/nonexistent/input.tsv", "--trace",
                 trace_path.c_str(), "--metrics", metrics_path.c_str()}),
      out);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(out.str().find("error:"), std::string::npos);
  EXPECT_NE(out.str().find("wrote trace"), std::string::npos);
  EXPECT_NE(out.str().find("wrote metrics"), std::string::npos);

  std::ifstream trace_in{trace_path};
  ASSERT_TRUE(trace_in.good());
  std::ostringstream trace_text;
  trace_text << trace_in.rdbuf();
  const obs::TraceSummary summary =
      obs::summarize_trace(obs::json::parse(trace_text.str()));
  // The cli.stats root span closed cleanly despite the throw inside.
  EXPECT_TRUE(summary.all_balanced());
  EXPECT_TRUE(summary.all_single_rooted());

  std::ifstream metrics_in{metrics_path};
  ASSERT_TRUE(metrics_in.good());
  std::ostringstream metrics_text;
  metrics_text << metrics_in.rdbuf();
  obs::json::parse(metrics_text.str());

  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
  obs::set_tracing_enabled(false);
  obs::reset_tracing();
}

TEST_F(CliSmokeTest, ProfileFlagWritesFoldedFile) {
  const std::string profile_path =
      scratch_.file("cli_smoke_profile.folded");
  std::ostringstream out;
  const int rc = run(
      make_args({"report", table_path_.c_str(), "--profile",
                 profile_path.c_str()}),
      out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.str().find("wrote profile"), std::string::npos);
  // The run may be too short to catch a sample; the file must exist
  // either way (ci.sh asserts non-emptiness on a real workload).
  EXPECT_TRUE(std::ifstream{profile_path}.good());
  std::remove(profile_path.c_str());
}

TEST_F(CliSmokeTest, BadMetricsIntervalIsAUsageError) {
  std::ostringstream out;
  const int rc = run(
      make_args({"stats", table_path_.c_str(), "--metrics-interval",
                 "soon"}),
      out);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(out.str().find("--metrics-interval"), std::string::npos);
}

TEST_F(CliSmokeTest, MetricsIntervalWritesSeriesSinks) {
  const std::string jsonl = scratch_.file("cli_smoke_series.jsonl");
  const std::string prom = scratch_.file("cli_smoke_series.prom");
  std::remove(jsonl.c_str());
  std::ostringstream out;
  const int rc = run(
      make_args({"report", table_path_.c_str(), "--metrics-interval",
                 "10ms", "--metrics-jsonl", jsonl.c_str(),
                 "--metrics-prom", prom.c_str()}),
      out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.str().find("wrote metrics series"), std::string::npos);

  // stop() always takes a final snapshot, so both sinks exist even if
  // the command beat the first timer tick.
  std::ifstream jsonl_in{jsonl};
  ASSERT_TRUE(jsonl_in.good());
  std::string line;
  std::string last_line;
  std::size_t lines = 0;
  while (std::getline(jsonl_in, line)) {
    ++lines;
    last_line = line;
    const obs::json::Value root = obs::json::parse(line);
    EXPECT_NE(root.find("unix_ms"), nullptr);
  }
  ASSERT_GE(lines, 1u);
  // The final flush (after the command ran) carries the refreshed
  // process gauges and the pool's queue-depth contribution.
  const obs::json::Value last = obs::json::parse(last_line);
  const obs::json::Value* gauges = last.find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->find("process.rss_bytes"), nullptr);
  EXPECT_GT(gauges->find("process.rss_bytes")->number, 0.0);
  ASSERT_NE(gauges->find("par.queue_depth"), nullptr);
  std::ifstream prom_in{prom};
  ASSERT_TRUE(prom_in.good());
  std::ostringstream prom_text;
  prom_text << prom_in.rdbuf();
  EXPECT_NE(prom_text.str().find("# TYPE hp_process_rss_bytes gauge"),
            std::string::npos);
  std::remove(jsonl.c_str());
  std::remove(prom.c_str());
}

TEST_F(CliSmokeTest, PeelStatsRouteThroughMetricsTable) {
  std::ostringstream out;
  const int rc = run(
      make_args({"core", table_path_.c_str(), "--peel-stats"}), out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.str().find("peel substrate counters"), std::string::npos);
  EXPECT_NE(out.str().find("peel.overlap_decrements"), std::string::npos);
  EXPECT_NE(out.str().find("peel.containment_probes"), std::string::npos);
}

}  // namespace
}  // namespace hp::cli
