// Metric properties of hypergraph distances on random inputs: symmetry,
// triangle inequality, component consistency, and agreement between the
// all-pairs summary and per-source BFS (across 64-source word
// boundaries and lane caps).
#include <gtest/gtest.h>

#include "core/traversal.hpp"
#include "par/thread_pool.hpp"
#include "test_helpers.hpp"

namespace hp::hyper {
namespace {

class TraversalProperties : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(TraversalProperties, DistanceIsSymmetric) {
  Rng rng{GetParam()};
  const Hypergraph h = testing::random_hypergraph(rng, 22, 18, 5);
  for (index_t s = 0; s < 6; ++s) {
    const auto from_s = bfs_distances(h, s);
    for (index_t v = s + 1; v < 12 && v < h.num_vertices(); ++v) {
      const auto from_v = bfs_distances(h, v);
      EXPECT_EQ(from_s[v], from_v[s]) << s << " <-> " << v;
    }
  }
}

TEST_P(TraversalProperties, TriangleInequality) {
  Rng rng{GetParam() * 53};
  const Hypergraph h = testing::random_hypergraph(rng, 20, 16, 5);
  std::vector<std::vector<index_t>> dist;
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    dist.push_back(bfs_distances(h, v));
  }
  for (index_t a = 0; a < h.num_vertices(); ++a) {
    for (index_t b = 0; b < h.num_vertices(); ++b) {
      for (index_t c = 0; c < h.num_vertices(); c += 3) {
        if (dist[a][b] == kInvalidIndex || dist[b][c] == kInvalidIndex) {
          continue;
        }
        ASSERT_NE(dist[a][c], kInvalidIndex);
        EXPECT_LE(dist[a][c], dist[a][b] + dist[b][c]);
      }
    }
  }
}

TEST_P(TraversalProperties, ReachabilityMatchesComponents) {
  Rng rng{GetParam() * 191};
  const Hypergraph h = testing::random_hypergraph(rng, 30, 12, 4);
  const HyperComponents comp = connected_components(h);
  for (index_t s = 0; s < 8 && s < h.num_vertices(); ++s) {
    const auto dist = bfs_distances(h, s);
    for (index_t v = 0; v < h.num_vertices(); ++v) {
      const bool reachable = dist[v] != kInvalidIndex;
      const bool same_component =
          comp.vertex_label[s] == comp.vertex_label[v];
      EXPECT_EQ(reachable, same_component) << s << " -> " << v;
    }
  }
}

/// Random hypergraph on `n` vertices whose batches of 64 sources cut
/// across components: every seventh vertex is isolated, and the rest
/// split by parity into two halves no hyperedge crosses. Hyperedges are
/// small and sparse, so distances run over many levels.
Hypergraph split_hypergraph(Rng& rng, index_t n) {
  HypergraphBuilder builder{n};
  for (index_t parity = 0; parity < 2; ++parity) {
    std::vector<index_t> half;
    for (index_t v = parity; v < n; v += 2) {
      if (v % 7 != 3) half.push_back(v);
    }
    if (half.empty()) continue;
    std::vector<index_t> members;
    for (std::size_t e = 0; e < half.size() * 3 / 5 + 1; ++e) {
      members.clear();
      const index_t size = 2 + static_cast<index_t>(rng.uniform(2));
      for (index_t i = 0; i < size; ++i) {
        members.push_back(half[rng.uniform(half.size())]);
      }
      builder.add_edge(members);
    }
  }
  return builder.build();
}

/// path_summary must equal the per-source bfs_distances recomputation
/// exactly -- all three fields, average included -- at every lane cap.
void expect_summary_matches_bfs(const Hypergraph& h) {
  count_t pairs = 0, total = 0;
  index_t diameter = 0;
  for (index_t s = 0; s < h.num_vertices(); ++s) {
    const auto dist = bfs_distances(h, s);
    for (index_t v = 0; v < h.num_vertices(); ++v) {
      if (v == s || dist[v] == kInvalidIndex) continue;
      ++pairs;
      total += dist[v];
      diameter = std::max(diameter, dist[v]);
    }
  }
  const double average =
      pairs > 0 ? static_cast<double>(total) / static_cast<double>(pairs)
                : 0.0;
  for (int cap : {1, 2, 16}) {
    par::LaneLimit limit{cap};
    const HyperPathSummary summary = path_summary(h);
    EXPECT_EQ(summary.connected_pairs, pairs)
        << h.num_vertices() << " vertices, cap " << cap;
    EXPECT_EQ(summary.diameter, diameter)
        << h.num_vertices() << " vertices, cap " << cap;
    EXPECT_EQ(summary.average_length, average)
        << h.num_vertices() << " vertices, cap " << cap;
  }
}

TEST_P(TraversalProperties, SummaryAgreesWithPerSourceBfs) {
  Rng rng{GetParam() * 719};
  expect_summary_matches_bfs(testing::random_hypergraph(rng, 18, 14, 4));
  // Sources run 64 to a machine word: cover one partial word, exact
  // word multiples, one source past them, and several words.
  for (index_t n : {1u, 63u, 64u, 65u, 128u, 129u, 200u}) {
    expect_summary_matches_bfs(split_hypergraph(rng, n));
  }
}

TEST_P(TraversalProperties, ComponentCountsSumCorrectly) {
  Rng rng{GetParam() * 1009};
  const Hypergraph h = testing::random_hypergraph(rng, 40, 15, 4);
  const HyperComponents comp = connected_components(h);
  count_t vertex_sum = 0, edge_sum = 0;
  for (index_t c = 0; c < comp.count; ++c) {
    vertex_sum += comp.vertex_counts[c];
    edge_sum += comp.edge_counts[c];
  }
  EXPECT_EQ(vertex_sum, h.num_vertices());
  EXPECT_EQ(edge_sum, h.num_edges());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraversalProperties,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace hp::hyper
