#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/hypergraph_io.hpp"
#include "scratch_dir.hpp"

namespace hp::cli {
namespace {

Args make_args(std::initializer_list<const char*> argv) {
  std::vector<const char*> v;
  v.push_back("hp_cli");
  v.insert(v.end(), argv);
  return Args{static_cast<int>(v.size()), v.data()};
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::ofstream out(table_path_);
    out << "Arp23\tARP2\tARP3\tARC15\n"
        << "SAGA\tGCN5\tADA2\tSPT7\tARP2\n"
        << "ADA\tGCN5\tADA2\n";
  }

  testutil::ScratchDir scratch_;  // removed with everything in it
  std::string dir_ = scratch_.path();
  std::string table_path_ = scratch_.file("cli_complexes.tsv");
};

TEST_F(CliTest, LoadDatasetComplexTable) {
  const bio::ComplexDataset d = load_dataset(table_path_);
  EXPECT_EQ(d.hypergraph.num_edges(), 3u);
  EXPECT_TRUE(d.proteins.contains("GCN5"));
}

TEST_F(CliTest, LoadDatasetRejectsUnknownExtension) {
  EXPECT_THROW(load_dataset("foo.xyz"), InvalidInputError);
}

TEST_F(CliTest, StatsCommand) {
  std::ostringstream out;
  const int rc = cmd_stats(make_args({"stats", table_path_.c_str()}), out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.str().find("|V| (vertices)"), std::string::npos);
  EXPECT_NE(out.str().find("6"), std::string::npos);  // 6 distinct proteins
}

TEST_F(CliTest, CoreCommandListsLadderAndNames) {
  std::ostringstream out;
  const int rc = cmd_core(make_args({"core", table_path_.c_str()}), out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.str().find("k-core ladder"), std::string::npos);
  EXPECT_NE(out.str().find("GCN5"), std::string::npos);
}

TEST_F(CliTest, CoreCommandWritesExtractedCore) {
  const std::string core_path = dir_ + "/cli_core_out.hyper";
  std::ostringstream out;
  const int rc = cmd_core(
      make_args({"core", table_path_.c_str(), "--k", "1", "--out",
                 core_path.c_str()}),
      out);
  EXPECT_EQ(rc, 0);
  const hyper::Hypergraph core = hyper::load_text(core_path);
  EXPECT_GT(core.num_edges(), 0u);
  std::remove(core_path.c_str());
}

TEST_F(CliTest, CoverCommandVariants) {
  std::ostringstream unit_out, deg2_out, multi_out;
  EXPECT_EQ(cmd_cover(make_args({"cover", table_path_.c_str()}), unit_out),
            0);
  EXPECT_EQ(cmd_cover(make_args({"cover", table_path_.c_str(), "--weights",
                                 "deg2"}),
                      deg2_out),
            0);
  EXPECT_EQ(cmd_cover(make_args({"cover", table_path_.c_str(),
                                 "--multicover", "2"}),
                      multi_out),
            0);
  EXPECT_NE(unit_out.str().find("cover:"), std::string::npos);
  EXPECT_NE(multi_out.str().find("cover:"), std::string::npos);
}

TEST_F(CliTest, CoverRejectsBadWeights) {
  std::ostringstream out;
  EXPECT_THROW(cmd_cover(make_args({"cover", table_path_.c_str(),
                                    "--weights", "banana"}),
                         out),
               InvalidInputError);
}

TEST_F(CliTest, ConvertTsvToHgrAndBack) {
  const std::string hgr = dir_ + "/cli_conv.hgr";
  const std::string hyper = dir_ + "/cli_conv.hyper";
  std::ostringstream out;
  EXPECT_EQ(cmd_convert(
                make_args({"convert", table_path_.c_str(), hgr.c_str()}),
                out),
            0);
  EXPECT_EQ(cmd_convert(make_args({"convert", hgr.c_str(), hyper.c_str()}),
                        out),
            0);
  const bio::ComplexDataset original = load_dataset(table_path_);
  const bio::ComplexDataset converted = load_dataset(hyper);
  EXPECT_EQ(converted.hypergraph.num_pins(),
            original.hypergraph.num_pins());
  std::remove(hgr.c_str());
  std::remove(hyper.c_str());
}

TEST_F(CliTest, ConvertToMtxIsRejected) {
  std::ostringstream out;
  const bio::ComplexDataset d = load_dataset(table_path_);
  EXPECT_THROW(save_dataset(d, dir_ + "/x.mtx"), InvalidInputError);
}

TEST_F(CliTest, GenerateWritesSurrogate) {
  const std::string path = dir_ + "/cli_gen.tsv";
  std::ostringstream out;
  const int rc =
      cmd_generate(make_args({"generate", path.c_str(), "--seed", "7"}), out);
  EXPECT_EQ(rc, 0);
  const bio::ComplexDataset d = load_dataset(path);
  EXPECT_EQ(d.hypergraph.num_vertices(), 1361u);
  EXPECT_EQ(d.hypergraph.num_edges(), 232u);
  std::remove(path.c_str());
}

TEST_F(CliTest, PajekWritesNetAndClu) {
  const std::string prefix = dir_ + "/cli_fig3";
  std::ostringstream out;
  const int rc = cmd_pajek(
      make_args({"pajek", table_path_.c_str(), prefix.c_str()}), out);
  EXPECT_EQ(rc, 0);
  std::ifstream net(prefix + ".net");
  std::ifstream clu(prefix + ".clu");
  EXPECT_TRUE(net.good());
  EXPECT_TRUE(clu.good());
  std::string first;
  std::getline(net, first);
  EXPECT_NE(first.find("*Vertices"), std::string::npos);
  std::remove((prefix + ".net").c_str());
  std::remove((prefix + ".clu").c_str());
}

TEST_F(CliTest, MatchCommand) {
  std::ostringstream out;
  const int rc = cmd_match(make_args({"match", table_path_.c_str()}), out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.str().find("maximal matching:"), std::string::npos);
  // Arp23 is disjoint from the GCN5 family: matching size >= 2.
  EXPECT_NE(out.str().find("Arp23"), std::string::npos);
}

TEST_F(CliTest, SoverlapCommand) {
  std::ostringstream out;
  const int rc =
      cmd_soverlap(make_args({"soverlap", table_path_.c_str()}), out);
  EXPECT_EQ(rc, 0);
  // SAGA and ADA share {GCN5, ADA2}: max meaningful s is 2.
  EXPECT_NE(out.str().find("max meaningful s: 2"), std::string::npos);
}

TEST_F(CliTest, SmallworldCommand) {
  std::ostringstream out;
  const int rc = cmd_smallworld(
      make_args({"smallworld", table_path_.c_str(), "--seed", "3"}), out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.str().find("observed:"), std::string::npos);
  EXPECT_NE(out.str().find("null model:"), std::string::npos);
}

TEST_F(CliTest, ConvertThroughBinary) {
  const std::string hpb = dir_ + "/cli_conv.hpb";
  std::ostringstream out;
  EXPECT_EQ(cmd_convert(
                make_args({"convert", table_path_.c_str(), hpb.c_str()}),
                out),
            0);
  const bio::ComplexDataset back = load_dataset(hpb);
  EXPECT_EQ(back.hypergraph.num_edges(), 3u);
  std::remove(hpb.c_str());
}

TEST_F(CliTest, SnapshotConvertInfoVerify) {
  const std::string hps = dir_ + "/cli_snap.hps";
  std::ostringstream out;
  EXPECT_EQ(cmd_snapshot(
                make_args({"snapshot", "convert", table_path_.c_str(),
                           hps.c_str()}),
                out),
            0);
  EXPECT_NE(out.str().find("codec nop"), std::string::npos);

  std::ostringstream info_out;
  EXPECT_EQ(cmd_snapshot(make_args({"snapshot", "info", hps.c_str()}),
                         info_out),
            0);
  EXPECT_NE(info_out.str().find("hyperedges     : 3"), std::string::npos);

  std::ostringstream verify_out;
  EXPECT_EQ(cmd_snapshot(make_args({"snapshot", "verify", hps.c_str()}),
                         verify_out),
            0);
  EXPECT_NE(verify_out.str().find("snapshot ok"), std::string::npos);
  std::remove(hps.c_str());
}

TEST_F(CliTest, SnapshotStatsMatchesTextPath) {
  // The acceptance contract: analysis over a .hps must print exactly
  // what the same analysis over the text formats prints.
  const std::string hyper = dir_ + "/cli_snap_ref.hyper";
  const std::string hps = dir_ + "/cli_snap_ref.hps";
  std::ostringstream conv;
  ASSERT_EQ(cmd_convert(
                make_args({"convert", table_path_.c_str(), hyper.c_str()}),
                conv),
            0);
  ASSERT_EQ(cmd_snapshot(
                make_args({"snapshot", "convert", hyper.c_str(), hps.c_str(),
                           "--codec", "varint"}),
                conv),
            0);
  std::ostringstream from_text, from_snapshot;
  ASSERT_EQ(cmd_stats(make_args({"stats", hyper.c_str()}), from_text), 0);
  ASSERT_EQ(cmd_stats(make_args({"stats", hps.c_str()}), from_snapshot), 0);
  EXPECT_EQ(from_text.str(), from_snapshot.str());
  std::remove(hyper.c_str());
  std::remove(hps.c_str());
}

TEST_F(CliTest, SnapshotRejectsBadSubcommandAndCodec) {
  std::ostringstream out;
  EXPECT_THROW(cmd_snapshot(make_args({"snapshot", "frob", "x.hps"}), out),
               InvalidInputError);
  EXPECT_THROW(cmd_snapshot(make_args({"snapshot", "convert",
                                       table_path_.c_str(), "x.hps",
                                       "--codec", "lzma"}),
                            out),
               InvalidInputError);
}

TEST_F(CliTest, ReportCommand) {
  std::ostringstream out;
  const int rc = cmd_report(
      make_args({"report", table_path_.c_str(), "--no-paper"}), out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.str().find("maximum core k"), std::string::npos);
  EXPECT_NE(out.str().find("2-multicover size"), std::string::npos);
}

TEST_F(CliTest, OneProteinDegreePrintsNaFits) {
  const std::string path = scratch_.file("cli_one_degree.tsv");
  std::ofstream(path) << "C1\ta\tb\tc\nC2\td\te\n";
  std::ostringstream report;
  EXPECT_EQ(run(make_args({"report", path.c_str()}), report), 0)
      << report.str();
  EXPECT_NE(report.str().find("power-law gamma"), std::string::npos);
  EXPECT_NE(report.str().find("| n/a"), std::string::npos);
  std::ostringstream stats;
  EXPECT_EQ(run(make_args({"stats", path.c_str()}), stats), 0) << stats.str();
  EXPECT_NE(stats.str().find("exponent : n/a"), std::string::npos);
}

TEST_F(CliTest, OneComplexSizePrintsNaSizeFits) {
  const std::string path = scratch_.file("cli_one_size.tsv");
  std::ofstream(path) << "C1\ta\tb\nC2\tb\tc\n";
  std::ostringstream report;
  EXPECT_EQ(run(make_args({"report", path.c_str()}), report), 0)
      << report.str();
  EXPECT_NE(report.str().find("fits: n/a"), std::string::npos);
}

/// The "k-core ladder" block of a command's output, up to the blank
/// line that ends it.
std::string ladder_of(const std::string& text) {
  const std::size_t begin = text.find("k-core ladder");
  if (begin == std::string::npos) return "";
  return text.substr(begin, text.find("\n\n", begin) - begin);
}

TEST_F(CliTest, MutateLadderMatchesCoreOnItsOutput) {
  // A core read after every op keeps the cores current through 500
  // mutations; a cold core run on the written result must agree.
  const std::string input = dir_ + "/cli_mutate_in.hyper";
  const std::string output = dir_ + "/cli_mutate_out.hyper";
  std::ostringstream gen;
  ASSERT_EQ(run(make_args({"generate", input.c_str()}), gen), 0);
  std::ostringstream mutated;
  ASSERT_EQ(run(make_args({"mutate", input.c_str(), "--ops", "500",
                           "--batch", "1", "--out", output.c_str()}),
                mutated),
            0)
      << mutated.str();
  std::ostringstream cold;
  ASSERT_EQ(run(make_args({"core", output.c_str()}), cold), 0);
  ASSERT_FALSE(ladder_of(mutated.str()).empty());
  EXPECT_EQ(ladder_of(mutated.str()), ladder_of(cold.str()));
  EXPECT_NE(mutated.str().find("core re-peels"), std::string::npos);
}

TEST_F(CliTest, RenderWritesSvg) {
  const std::string path = dir_ + "/cli_fig3.svg";
  std::ostringstream out;
  const int rc = cmd_render(
      make_args({"render", table_path_.c_str(), path.c_str(),
                 "--iterations", "10"}),
      out);
  EXPECT_EQ(rc, 0);
  std::ifstream svg(path);
  std::string first;
  ASSERT_TRUE(std::getline(svg, first));
  EXPECT_NE(first.find("<svg"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(CliTest, RunDispatchesAndHandlesErrors) {
  std::ostringstream out;
  EXPECT_EQ(run(make_args({}), out), 2);
  EXPECT_NE(out.str().find("usage:"), std::string::npos);

  std::ostringstream out2;
  EXPECT_EQ(run(make_args({"frobnicate"}), out2), 2);
  EXPECT_NE(out2.str().find("unknown command"), std::string::npos);

  std::ostringstream out3;
  EXPECT_EQ(run(make_args({"stats", "/no/such/file.tsv"}), out3), 1);
  EXPECT_NE(out3.str().find("error:"), std::string::npos);

  std::ostringstream out4;
  EXPECT_EQ(run(make_args({"stats", table_path_.c_str()}), out4), 0);
}

}  // namespace
}  // namespace hp::cli
