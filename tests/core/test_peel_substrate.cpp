// Property tests for the unified peeling substrate: on ~50 synthetic
// Cellzome-style instances, the k-core peel, the naive set-comparison
// oracle and the standalone reduction must agree, and the PeelStats
// invariants documented in peel_stats.hpp must hold.
#include <gtest/gtest.h>

#include "bio/cellzome_synth.hpp"
#include "core/kcore.hpp"
#include "core/kcore_naive.hpp"
#include "core/peel/peel.hpp"
#include "core/reduce.hpp"
#include "test_helpers.hpp"

namespace hp::hyper {
namespace {

/// Cellzome-style instance: a few promiscuous hub vertices (the ADH1
/// analogue), many low-degree members, nested and duplicated complexes
/// (TAP pulldowns of sub-complexes), sizes varying per seed.
Hypergraph cellzome_style_instance(std::uint64_t seed) {
  Rng rng{seed};
  const index_t num_vertices = 20 + static_cast<index_t>(rng.uniform(40));
  const index_t num_edges = 15 + static_cast<index_t>(rng.uniform(50));
  const index_t num_hubs = 1 + static_cast<index_t>(rng.uniform(4));
  HypergraphBuilder builder{num_vertices};
  std::vector<index_t> members;
  std::vector<std::vector<index_t>> committed;
  for (index_t e = 0; e < num_edges; ++e) {
    const double roll = rng.uniform01();
    if (roll < 0.15 && !committed.empty()) {
      // Duplicate an earlier complex verbatim.
      builder.add_edge(committed[rng.uniform(committed.size())]);
      continue;
    }
    if (roll < 0.3 && !committed.empty()) {
      // Pull down a sub-complex: a prefix of an earlier complex.
      const auto& parent = committed[rng.uniform(committed.size())];
      const std::size_t take = 1 + rng.uniform(parent.size());
      members.assign(parent.begin(), parent.begin() + take);
      builder.add_edge(members);
      continue;
    }
    const index_t size = 1 + static_cast<index_t>(rng.uniform(7));
    members.clear();
    // Hubs join complexes with high probability; the rest uniformly.
    for (index_t i = 0; i < size; ++i) {
      if (rng.uniform01() < 0.3) {
        members.push_back(static_cast<index_t>(rng.uniform(num_hubs)));
      } else {
        members.push_back(static_cast<index_t>(rng.uniform(num_vertices)));
      }
    }
    builder.add_edge(members);
    committed.emplace_back(members);
  }
  return builder.build();
}

void expect_stats_invariants(const PeelStats& stats, const Hypergraph& h,
                             const char* label, std::uint64_t seed) {
  // The peel recounts overlaps; it never decrements a pairwise table.
  EXPECT_EQ(stats.overlap_decrements, 0u) << label << " seed " << seed;
  // A mid-peel edge deletion is always preceded by a containment probe.
  EXPECT_GE(stats.containment_probes, stats.cascaded_edge_deletions)
      << label << " seed " << seed;
  // A full decomposition consumes the whole hypergraph, exactly once.
  EXPECT_EQ(stats.vertex_deletions, h.num_vertices())
      << label << " seed " << seed;
  EXPECT_EQ(stats.edge_deletions, h.num_edges()) << label << " seed " << seed;
  EXPECT_LE(stats.cascaded_edge_deletions, stats.edge_deletions)
      << label << " seed " << seed;
  EXPECT_LE(stats.peak_queue_length, h.num_vertices())
      << label << " seed " << seed;
  if (h.num_vertices() > 0) {
    EXPECT_GE(stats.peel_rounds, 1u) << label << " seed " << seed;
  }
}

class PeelSubstrateSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PeelSubstrateSweep, ImplementationsAgreeAndStatsHold) {
  const std::uint64_t seed = GetParam();
  const Hypergraph h = cellzome_style_instance(seed);

  PeelStats stats;
  const HyperCoreResult fast = core_decomposition(h, &stats);
  testing::expect_same_cores(fast, core_decomposition_naive(h),
                             "naive, seed " + std::to_string(seed));
  expect_stats_invariants(stats, h, "peel", seed);

  // reduce() must agree with the decomposition's level-0 residual: same
  // surviving-edge count, and its output is actually reduced.
  const ReduceResult r = find_non_maximal(h);
  EXPECT_EQ(fast.level_edges[0], h.num_edges() - r.num_removed)
      << "seed " << seed;
  EXPECT_TRUE(is_reduced(reduce(h).hypergraph)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeelSubstrateSweep,
                         ::testing::Range<std::uint64_t>(1, 51));

TEST(PeelSubstrate, ResidualErasePrimitives) {
  const Hypergraph h = testing::toy_hypergraph();
  ResidualHypergraph residual{h};
  EXPECT_EQ(residual.live_vertices(), h.num_vertices());
  EXPECT_EQ(residual.live_edges(), h.num_edges());

  // Erase vertex 4 (member of e1 {2,3,4} and e2 {4,5}).
  std::vector<index_t> touched;
  residual.erase_vertex(4, touched);
  EXPECT_EQ(touched, (std::vector<index_t>{1, 2}));
  EXPECT_FALSE(residual.vertex_alive(4));
  EXPECT_EQ(residual.edge_size(1), 2u);
  EXPECT_EQ(residual.edge_size(2), 1u);

  // Erase edge e2 {4,5}: only live member 5 loses a degree.
  const index_t degree5 = residual.vertex_degree(5);
  const index_t degree4 = residual.vertex_degree(4);
  residual.erase_edge(2);
  EXPECT_EQ(residual.vertex_degree(5), degree5 - 1);
  EXPECT_EQ(residual.vertex_degree(4), degree4);
  EXPECT_FALSE(residual.edge_alive(2));
  EXPECT_EQ(residual.live_edges(), h.num_edges() - 1);
}

TEST(PeelSubstrate, StampsCoresOnDeletion) {
  const Hypergraph h = testing::toy_hypergraph();
  std::vector<index_t> vertex_core(h.num_vertices(), 0);
  std::vector<index_t> edge_core(h.num_edges(), 0);
  ResidualHypergraph residual{h};
  residual.bind_cores(&vertex_core, &edge_core);

  residual.set_peel_level(0);
  residual.erase_edge(0);
  EXPECT_EQ(edge_core[0], 0u);  // level 0: not stamped

  residual.set_peel_level(3);
  residual.erase_vertex(6);
  residual.erase_edge(4);
  EXPECT_EQ(vertex_core[6], 2u);
  EXPECT_EQ(edge_core[4], 2u);
}

TEST(PeelSubstrate, CellzomeSurrogateStatsInvariants) {
  const Hypergraph h = bio::cellzome_surrogate().hypergraph;
  PeelStats stats;
  const HyperCoreResult cores = core_decomposition(h, &stats);
  expect_stats_invariants(stats, h, "cellzome", 0);
  // Paper invariant (section 3): the maximum core is the 6-core with 41
  // proteins and 54 complexes. At the default seed the calibrated
  // surrogate reproduces the 6-core and 41 proteins exactly and lands
  // one complex off (55); the values below are the deterministic
  // surrogate outputs, identical before and after the substrate refactor.
  EXPECT_EQ(cores.max_core, 6u);
  EXPECT_EQ(cores.core_vertices(6).size(), 41u);
  EXPECT_EQ(cores.core_edges(6).size(), 55u);
}

}  // namespace
}  // namespace hp::hyper
