#include "core/traversal.hpp"

#include <gtest/gtest.h>

#include "core/projection.hpp"
#include "graph/graph_algos.hpp"
#include "test_helpers.hpp"

namespace hp::hyper {
namespace {

TEST(HyperBfs, ChainDistances) {
  const Hypergraph h = testing::chain_hypergraph(6);
  const auto dist = bfs_distances(h, 0);
  for (index_t v = 0; v < 6; ++v) EXPECT_EQ(dist[v], v);
}

TEST(HyperBfs, OneBigEdgeGivesDistanceOne) {
  HypergraphBuilder b{5};
  b.add_edge({0, 1, 2, 3, 4});
  const auto dist = bfs_distances(b.build(), 2);
  EXPECT_EQ(dist[2], 0u);
  for (index_t v = 0; v < 5; ++v) {
    if (v != 2) EXPECT_EQ(dist[v], 1u);
  }
}

TEST(HyperBfs, UnreachableMarked) {
  HypergraphBuilder b{4};
  b.add_edge({0, 1});
  b.add_edge({2, 3});
  const auto dist = bfs_distances(b.build(), 0);
  EXPECT_EQ(dist[2], kInvalidIndex);
}

TEST(HyperBfs, PathAlternatesThroughSharedVertices) {
  // e0 = {0,1,2}, e1 = {2,3}, e2 = {3,4,5}: d(0,5) = 3 hyperedges.
  HypergraphBuilder b{6};
  b.add_edge({0, 1, 2});
  b.add_edge({2, 3});
  b.add_edge({3, 4, 5});
  const auto dist = bfs_distances(b.build(), 0);
  EXPECT_EQ(dist[2], 1u);
  EXPECT_EQ(dist[3], 2u);
  EXPECT_EQ(dist[5], 3u);
}

TEST(HyperBfs, MatchesBipartiteGraphDistances) {
  // The paper defines hypergraph distance as the number of hyperedges on
  // the path, which is half the distance in B(H).
  Rng rng{12};
  const Hypergraph h = testing::random_hypergraph(rng, 25, 25, 5);
  const graph::Graph b = bipartite_graph(h);
  for (index_t s = 0; s < 5; ++s) {
    const auto hyper_dist = bfs_distances(h, s);
    const auto bip_dist = graph::bfs_distances(b, s);
    for (index_t v = 0; v < h.num_vertices(); ++v) {
      if (hyper_dist[v] == kInvalidIndex) {
        EXPECT_EQ(bip_dist[v], kInvalidIndex);
      } else {
        EXPECT_EQ(hyper_dist[v] * 2, bip_dist[v]) << "s=" << s << " v=" << v;
      }
    }
  }
}

TEST(HyperComponents, CountsVerticesAndEdges) {
  HypergraphBuilder b{7};
  b.add_edge({0, 1, 2});
  b.add_edge({2, 3});
  b.add_edge({4, 5});
  // vertex 6 isolated
  const HyperComponents c = connected_components(b.build());
  EXPECT_EQ(c.count, 3u);
  const index_t big = c.largest();
  EXPECT_EQ(c.vertex_counts[big], 4u);
  EXPECT_EQ(c.edge_counts[big], 2u);
  // Isolated vertex forms a component with zero edges.
  index_t singleton_components = 0;
  for (index_t i = 0; i < c.count; ++i) {
    if (c.vertex_counts[i] == 1 && c.edge_counts[i] == 0) {
      ++singleton_components;
    }
  }
  EXPECT_EQ(singleton_components, 1u);
}

TEST(HyperComponents, LabelsAreConsistent) {
  Rng rng{14};
  const Hypergraph h = testing::random_hypergraph(rng, 40, 20, 4);
  const HyperComponents c = connected_components(h);
  for (index_t e = 0; e < h.num_edges(); ++e) {
    for (index_t v : h.vertices_of(e)) {
      EXPECT_EQ(c.vertex_label[v], c.edge_label[e]);
    }
  }
}

TEST(HyperPathSummary, ChainValues) {
  const HyperPathSummary s = path_summary(testing::chain_hypergraph(5));
  EXPECT_EQ(s.diameter, 4u);
  EXPECT_EQ(s.connected_pairs, 20u);
  // Average over ordered pairs of |i-j|: 2*(4*1+3*2+2*3+1*4)/20 = 2.
  EXPECT_DOUBLE_EQ(s.average_length, 2.0);
}

TEST(HyperPathSummary, TwoComponentsAverageWithinComponentsOnly) {
  // The paper reports its 2.568 average path length over the giant
  // component, i.e. averaging over connected ordered pairs only.
  // Unreachable cross-component pairs must enter neither the numerator
  // nor the denominator.
  //   component A: chain 0-1-2 via {0,1},{1,2}
  //   component B: pair 3-4 via {3,4}
  HypergraphBuilder b{5};
  b.add_edge({0, 1});
  b.add_edge({1, 2});
  b.add_edge({3, 4});
  const HyperPathSummary s = path_summary(b.build());
  // A: ordered-pair distances 1,1,1,1,2,2 (total 8 over 6 pairs).
  // B: 1,1 (total 2 over 2 pairs). The 12 cross pairs are excluded,
  // so the average is 10/8, not 10/20 or an infinity-poisoned value.
  EXPECT_EQ(s.connected_pairs, 8u);
  EXPECT_EQ(s.diameter, 2u);
  EXPECT_DOUBLE_EQ(s.average_length, 1.25);
}

TEST(HyperPathSummary, EmptyAndSingleton) {
  const HyperPathSummary empty = path_summary(HypergraphBuilder{0}.build());
  EXPECT_EQ(empty.diameter, 0u);
  EXPECT_EQ(empty.connected_pairs, 0u);

  HypergraphBuilder b{1};
  b.add_edge({0});
  const HyperPathSummary one = path_summary(b.build());
  EXPECT_EQ(one.connected_pairs, 0u);
}

}  // namespace
}  // namespace hp::hyper
