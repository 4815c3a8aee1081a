#include "core/projection.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bio/cellzome_synth.hpp"
#include "check/generator.hpp"
#include "check/oracles.hpp"
#include "test_helpers.hpp"

namespace hp::hyper {
namespace {

/// Fuzz-seed instances plus the calibrated Cellzome surrogate.
std::vector<std::pair<std::string, Hypergraph>> reference_instances() {
  std::vector<std::pair<std::string, Hypergraph>> out;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    out.emplace_back("seed " + std::to_string(seed), check::generate(seed));
  }
  out.emplace_back("cellzome surrogate", bio::cellzome_surrogate().hypergraph);
  return out;
}

/// The intersection graph as ordered (f, g) pairs, f < g, with overlap
/// sizes, accumulated in an ordered map: the straightforward reference
/// for the marker sweep.
std::map<std::pair<index_t, index_t>, index_t> map_intersections(
    const Hypergraph& h) {
  std::map<std::pair<index_t, index_t>, index_t> overlap;
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    const auto edges = h.edges_of(v);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      for (std::size_t j = i + 1; j < edges.size(); ++j) {
        ++overlap[{edges[i], edges[j]}];
      }
    }
  }
  return overlap;
}

TEST(CliqueExpansion, EachEdgeBecomesAClique) {
  HypergraphBuilder b{5};
  b.add_edge({0, 1, 2});
  b.add_edge({3, 4});
  const graph::Graph g = clique_expansion(b.build());
  EXPECT_EQ(g.num_edges(), 4u);  // C(3,2) + 1
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_FALSE(g.has_edge(2, 3));
}

TEST(CliqueExpansion, SharedPairsNotDoubleCounted) {
  HypergraphBuilder b{3};
  b.add_edge({0, 1, 2});
  b.add_edge({0, 1});
  EXPECT_EQ(clique_expansion(b.build()).num_edges(), 3u);
}

TEST(CliqueExpansion, QuadraticBlowupOnLargeEdge) {
  // The paper's storage argument: one n-member complex costs O(n) in the
  // hypergraph but O(n^2) edges in the clique expansion.
  HypergraphBuilder b{50};
  std::vector<index_t> all(50);
  for (index_t i = 0; i < 50; ++i) all[i] = i;
  b.add_edge(all);
  const Hypergraph h = b.build();
  EXPECT_EQ(h.num_pins(), 50u);
  EXPECT_EQ(clique_expansion(h).num_edges(), 50u * 49 / 2);
}

TEST(StarExpansion, BaitConnectsToMembers) {
  HypergraphBuilder b{4};
  b.add_edge({0, 1, 2, 3});
  const graph::Graph g = star_expansion(b.build(), {1});
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(1, 3));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(StarExpansion, RejectsNonMemberBait) {
  HypergraphBuilder b{4};
  b.add_edge({0, 1});
  EXPECT_THROW(star_expansion(b.build(), {3}), InvalidInputError);
  EXPECT_THROW(star_expansion(b.build(), {}), InvalidInputError);
}

TEST(StarExpansion, SingletonEdgeContributesNothing) {
  HypergraphBuilder b{2};
  b.add_edge({0});
  b.add_edge({0, 1});
  const graph::Graph g = star_expansion(b.build(), {0, 0});
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(DefaultBaits, PicksHighestDegreeMember) {
  HypergraphBuilder b{4};
  b.add_edge({0, 1});     // deg(1) will be 3
  b.add_edge({1, 2});
  b.add_edge({1, 3, 0});
  const auto baits = default_baits(b.build());
  EXPECT_EQ(baits, (std::vector<index_t>{1, 1, 1}));
}

TEST(IntersectionGraph, SharedProteinsCreateEdges) {
  const Hypergraph h = testing::toy_hypergraph();
  std::vector<index_t> weights;
  const graph::Graph g = intersection_graph(h, &weights);
  EXPECT_EQ(g.num_vertices(), h.num_edges());
  // e0 and e1 share {2,3}.
  EXPECT_TRUE(g.has_edge(0, 1));
  // e0 and e2 are disjoint.
  EXPECT_FALSE(g.has_edge(0, 2));
  // Weight for the (0,1) pair is 2 (first in sorted pair order).
  ASSERT_FALSE(weights.empty());
  EXPECT_EQ(weights.size(), g.num_edges());
}

TEST(IntersectionGraph, QuadraticInVertexDegree) {
  // A protein in m complexes creates C(m,2) intersection edges.
  HypergraphBuilder b{11};
  for (index_t e = 0; e < 10; ++e) {
    b.add_edge({0, static_cast<index_t>(e + 1)});
  }
  const graph::Graph g = intersection_graph(b.build());
  EXPECT_EQ(g.num_edges(), 45u);  // C(10,2)
}

TEST(IntersectionGraph, MatchesOrderedMapReference) {
  for (const auto& [name, h] : reference_instances()) {
    SCOPED_TRACE(name);
    std::vector<index_t> weights;
    const graph::Graph g = intersection_graph(h, &weights);
    const auto expected = map_intersections(h);
    ASSERT_EQ(g.num_vertices(), h.num_edges());
    ASSERT_EQ(g.num_edges(), expected.size());
    ASSERT_EQ(weights.size(), expected.size());
    std::size_t i = 0;
    for (const auto& [pair, w] : expected) {
      EXPECT_TRUE(g.has_edge(pair.first, pair.second));
      EXPECT_EQ(weights[i++], w) << pair.first << "," << pair.second;
    }
  }
}

TEST(BipartiteGraph, StructureMatches) {
  const Hypergraph h = testing::toy_hypergraph();
  const graph::Graph b = bipartite_graph(h);
  EXPECT_EQ(b.num_vertices(), h.num_vertices() + h.num_edges());
  EXPECT_EQ(b.num_edges(), h.num_pins());
  // Vertex 0 belongs to e0 and e4.
  EXPECT_TRUE(b.has_edge(0, h.num_vertices() + 0));
  EXPECT_TRUE(b.has_edge(0, h.num_vertices() + 4));
  EXPECT_FALSE(b.has_edge(0, h.num_vertices() + 2));
}

TEST(RepresentationCosts, HypergraphIsCheapestOnCliqueHeavyData) {
  // Few large complexes: the regime where the paper's O(n) vs O(n^2)
  // argument bites.
  HypergraphBuilder b{60};
  std::vector<index_t> members;
  for (index_t start = 0; start < 3; ++start) {
    members.clear();
    for (index_t i = 0; i < 20; ++i) members.push_back(start * 20 + i);
    b.add_edge(members);
  }
  const RepresentationCosts costs = representation_costs(b.build());
  EXPECT_LT(costs.hypergraph_pins, costs.clique_edges);
  EXPECT_LT(costs.hypergraph_bytes, costs.clique_bytes);
  EXPECT_EQ(costs.star_edges, 57u);  // 3 * (20 - 1)
}

TEST(RepresentationCosts, CountsEqualMaterializedGraphs) {
  for (const auto& [name, h] : reference_instances()) {
    std::vector<check::CheckFailure> failures;
    check::check_representation_costs(h, failures);
    for (const check::CheckFailure& f : failures) {
      ADD_FAILURE() << name << ": " << f.detail;
    }
  }
}

}  // namespace
}  // namespace hp::hyper
