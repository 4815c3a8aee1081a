#include "bio/paper_report.hpp"

#include <gtest/gtest.h>

#include "bio/cellzome_synth.hpp"

namespace hp::bio {
namespace {

const PaperReport& surrogate_report() {
  static const PaperReport report = [] {
    CellzomeParams params;
    params.num_proteins = 300;
    params.num_complexes = 60;
    params.degree_one_proteins = 180;
    params.max_degree = 10;
    params.core_proteins = 15;
    params.core_complexes = 12;
    params.core_memberships = 4;
    params.max_complex_size = 30;
    return analyze(cellzome_surrogate(params).hypergraph);
  }();
  return report;
}

TEST(PaperReport, AnalyzeFillsEveryField) {
  const PaperReport& r = surrogate_report();
  EXPECT_EQ(r.summary.num_vertices, 300u);
  EXPECT_EQ(r.summary.num_edges, 60u);
  EXPECT_GT(r.paths.diameter, 0u);
  ASSERT_TRUE(r.degree_fit.has_value());
  EXPECT_GT(r.degree_fit->gamma, 0.0);
  EXPECT_TRUE(r.size_fits.has_value());
  EXPECT_GE(r.max_core, 2u);
  EXPECT_GT(r.core_proteins, 0u);
  EXPECT_GT(r.cover_unit_size, 0u);
  EXPECT_GE(r.cover_deg2_size, r.cover_unit_size);
  EXPECT_GE(r.multicover_size, r.cover_deg2_size);
  EXPECT_GE(r.core_seconds, 0.0);
}

TEST(PaperReport, CoreSecondsIsTheCoreBuildTime) {
  // The CLI prefetches every slot before analyze(), so a stopwatch
  // around cores() would time a cached read, not the decomposition.
  const hyper::AnalysisContext ctx{cellzome_surrogate({}).hypergraph};
  ctx.prefetch();
  double built = 0.0;
  for (const hyper::ArtifactStats& a : ctx.stats().artifacts) {
    if (a.name == "core decomposition") built = a.build_seconds;
  }
  EXPECT_GT(built, 0.0);
  EXPECT_EQ(analyze(ctx).core_seconds, built);
}

TEST(PaperReport, CellzomeReferenceHoldsPublishedValues) {
  const PaperReference ref = PaperReference::cellzome();
  EXPECT_EQ(ref.num_vertices, 1361u);
  EXPECT_EQ(ref.max_core, 6u);
  EXPECT_EQ(ref.cover_unit_size, 109u);
  EXPECT_DOUBLE_EQ(*ref.gamma, 2.528);
}

TEST(PaperReport, RenderWithCellzomeReference) {
  const std::string text =
      render_report(surrogate_report(), PaperReference::cellzome());
  EXPECT_NE(text.find("maximum core k"), std::string::npos);
  EXPECT_NE(text.find("2.528"), std::string::npos);  // paper gamma
  EXPECT_NE(text.find("109"), std::string::npos);    // paper cover
  EXPECT_NE(text.find("core decomposition time"), std::string::npos);
}

TEST(PaperReport, RenderWithBlankReferenceUsesDashes) {
  const std::string text =
      render_report(surrogate_report(), PaperReference{});
  EXPECT_NE(text.find("| - "), std::string::npos);
  EXPECT_EQ(text.find("2.528"), std::string::npos);
}

TEST(PaperReport, OneDegreeAndOneSizeLeaveTheFitsEmpty) {
  // Every protein in exactly one complex, every complex of size 2: no
  // slope to fit on either distribution, and no error either.
  hyper::HypergraphBuilder b{4};
  b.add_edge({0, 1});
  b.add_edge({2, 3});
  const PaperReport r = analyze(b.build());
  EXPECT_FALSE(r.degree_fit.has_value());
  EXPECT_FALSE(r.size_fits.has_value());
  const std::string text = render_report(r, PaperReference{});
  EXPECT_NE(text.find("| n/a"), std::string::npos);
  EXPECT_NE(text.find("fits: n/a"), std::string::npos);
}

}  // namespace
}  // namespace hp::bio
