// Golden regression for the paper's §3 numbers on the synthetic
// Cellzome surrogate at the default seed. The neighbouring suites
// assert banded properties; this one pins the EXACT values the repo
// currently reproduces, so any drift in the generator, the peel
// substrate, reduction, or traversal shows up as a one-line diff
// against the published table rather than a silent recalibration.
//
// Paper (Table 1 / §3) vs surrogate at default seed:
//   proteins            1361        1361  (exact)
//   complexes            232         232  (exact)
//   max vertex degree     21          21  (exact)
//   degree-1 proteins    846         846  (exact)
//   max core               6           6  (exact)
//   6-core proteins       41          41  (exact)
//   6-core complexes      54          55  (surrogate; documented
//                                          discrepancy, see DESIGN.md)
//   diameter               6           6  (exact)
//   avg path length    2.568      2.5805  (surrogate)
//
// The 10^4 scaled surrogate (seed 1) pins its exact path integers too.
//
// If an intentional change moves one of these, update the constant in
// the same commit and say why in its message.
#include <gtest/gtest.h>

#include "bio/cellzome_synth.hpp"
#include "core/kcore.hpp"
#include "core/reduce.hpp"
#include "core/stats.hpp"
#include "core/traversal.hpp"

namespace hp::bio {
namespace {

const ComplexDataset& surrogate() {
  static const ComplexDataset data = cellzome_surrogate();
  return data;
}

TEST(PaperGolden, DatasetShape) {
  const auto& h = surrogate().hypergraph;
  EXPECT_EQ(h.num_vertices(), 1361u);
  EXPECT_EQ(h.num_edges(), 232u);
  EXPECT_EQ(h.max_vertex_degree(), 21u);
  EXPECT_EQ(hyper::summarize(h).degree_one_vertices, 846u);
}

TEST(PaperGolden, SixCoreExactSizes) {
  const auto r = hyper::core_decomposition(surrogate().hypergraph);
  EXPECT_EQ(r.max_core, 6u);
  EXPECT_EQ(r.core_vertices(6).size(), 41u);  // paper: 41 proteins
  EXPECT_EQ(r.core_edges(6).size(), 55u);     // paper: 54 complexes
}

TEST(PaperGolden, FullCoreLevelProfile) {
  const auto r = hyper::core_decomposition(surrogate().hypergraph);
  const std::vector<index_t> expected_vertices = {1361, 1361, 495, 188,
                                                  48,   43,   41};
  const std::vector<index_t> expected_edges = {184, 184, 153, 129,
                                               67,  55,  55};
  EXPECT_EQ(r.level_vertices, expected_vertices);
  EXPECT_EQ(r.level_edges, expected_edges);
}

TEST(PaperGolden, InitialReductionKeeps184Complexes) {
  // 232 complexes reduce to 184 maximal ones before peeling starts.
  EXPECT_EQ(hyper::reduce(surrogate().hypergraph).hypergraph.num_edges(),
            184u);
}

TEST(PaperGolden, ComponentStructure) {
  const auto c = hyper::connected_components(surrogate().hypergraph);
  EXPECT_EQ(c.count, 15u);
  EXPECT_EQ(c.vertex_counts[c.largest()], 1335u);  // giant component
}

TEST(PaperGolden, PathStatistics) {
  const auto p = hyper::path_summary(surrogate().hypergraph);
  EXPECT_EQ(p.diameter, 6u);  // paper: diameter 6
  EXPECT_NEAR(p.average_length, 2.5805, 5e-4);  // paper: 2.568
  EXPECT_EQ(p.connected_pairs, 1780914u);
}

TEST(PaperGolden, ScaledTenThousandPathIntegers) {
  // `hyperproteome generate --proteins 10000 --seed 1`: the exact
  // integers of the all-pairs sweep, so a path-kernel change that is
  // not bit-identical fails here rather than in a rounded report line.
  CellzomeParams params = scaled_cellzome_params(10000);
  params.seed = 1;
  const auto p = hyper::path_summary(cellzome_surrogate(params).hypergraph);
  EXPECT_EQ(p.diameter, 7u);
  EXPECT_EQ(p.connected_pairs, 96344596u);
  EXPECT_EQ(p.average_length, 3.2933213192362132);
}

}  // namespace
}  // namespace hp::bio
