// Metric properties of hypergraph distances on random inputs: symmetry,
// triangle inequality, component consistency, and agreement between the
// all-pairs summary and per-source BFS (across the 64-bit word and
// 256-source batch boundaries, lane caps and twin-class shapes).
#include <gtest/gtest.h>

#include <set>

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

/// Random hypergraph on `n` vertices whose source batches cut across
/// components: every seventh vertex is isolated, and the rest
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

/// Distinct non-empty incidence sets of `h`: the twin classes the
/// summary runs its sources over.
std::size_t twin_classes(const Hypergraph& h) {
  std::set<std::vector<index_t>> classes;
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    const auto edges = h.edges_of(v);
    if (!edges.empty()) classes.emplace(edges.begin(), edges.end());
  }
  return classes.size();
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
  // A batch holds 256 sources in four 64-bit words: cover a partial
  // word, the word and batch boundaries, one source past them, and
  // several batches.
  for (index_t n : {1u, 63u, 64u, 65u, 128u, 129u, 200u, 255u, 256u, 257u,
                    320u, 511u, 512u, 513u}) {
    expect_summary_matches_bfs(split_hypergraph(rng, n));
  }
}

TEST(TwinQuotientPaths, ChainsCrossEveryWordAndBatchBoundary) {
  // Every vertex of a chain is its own twin class, so the source count
  // lands exactly on each boundary, and each class is reached at its
  // own level.
  for (index_t n : {63u, 64u, 65u, 127u, 128u, 129u, 192u, 193u, 255u, 256u,
                    257u, 511u, 512u, 513u}) {
    expect_summary_matches_bfs(testing::chain_hypergraph(n));
  }
}

/// Replace every vertex v of `base` by `weight[v]` twins -- copies with
/// v's incidence set. Given `rng`, the ids are shuffled, so each twin
/// class is spread over the id range; without it, v's copies take
/// consecutive ids and the classes keep the vertex order of `base`. A
/// weight-0 vertex vanishes.
Hypergraph blow_up(const Hypergraph& base, const std::vector<index_t>& weight,
                   Rng* rng = nullptr) {
  std::vector<index_t> owner;
  for (index_t v = 0; v < base.num_vertices(); ++v) {
    owner.insert(owner.end(), weight[v], v);
  }
  if (rng != nullptr) rng->shuffle(owner);
  std::vector<std::vector<index_t>> copies(base.num_vertices());
  for (index_t id = 0; id < owner.size(); ++id) copies[owner[id]].push_back(id);
  HypergraphBuilder builder{static_cast<index_t>(owner.size())};
  std::vector<index_t> members;
  for (index_t e = 0; e < base.num_edges(); ++e) {
    members.clear();
    for (index_t v : base.vertices_of(e)) {
      members.insert(members.end(), copies[v].begin(), copies[v].end());
    }
    if (!members.empty()) builder.add_edge(members);
  }
  return builder.build();
}

TEST(TwinQuotientPaths, OneEdgeOfTwins) {
  for (index_t w : {1u, 2u, 3u, 64u, 65u, 200u}) {
    std::vector<index_t> all(w);
    for (index_t v = 0; v < w; ++v) all[v] = v;
    HypergraphBuilder builder{w};
    builder.add_edge(all);
    const Hypergraph h = builder.build();
    expect_summary_matches_bfs(h);
    const HyperPathSummary summary = path_summary(h);
    EXPECT_EQ(summary.connected_pairs, count_t{w} * (w - 1)) << w;
    EXPECT_EQ(summary.diameter, w > 1 ? 1u : 0u) << w;
    EXPECT_EQ(summary.average_length, w > 1 ? 1.0 : 0.0) << w;
  }
}

TEST(TwinQuotientPaths, IsolatedVerticesAreNotTwins) {
  const Hypergraph edgeless = HypergraphBuilder{5}.build();
  expect_summary_matches_bfs(edgeless);
  EXPECT_EQ(path_summary(edgeless).connected_pairs, 0u);
  // Isolated vertices next to a twin pair: only the pair connects.
  HypergraphBuilder builder{7};
  builder.add_edge({2, 5});
  const Hypergraph h = builder.build();
  expect_summary_matches_bfs(h);
  EXPECT_EQ(path_summary(h).connected_pairs, 2u);
}

TEST(TwinQuotientPaths, OneBatchOfManyBitPlanes) {
  // Five classes in one batch whose weights need one to eight
  // bit-planes. On a chain every class has its own incidence set and
  // every class distance 1..4 occurs.
  Rng rng{64};
  expect_summary_matches_bfs(
      blow_up(testing::chain_hypergraph(5), {1, 63, 64, 65, 200}, &rng));
  expect_summary_matches_bfs(
      blow_up(testing::chain_hypergraph(5), {200, 1, 65, 64, 63}, &rng));
  // A full batch of 256 chain classes, in chain order, whose heavy
  // classes sit in words 1, 2 and 3: their bit-planes span words the
  // light classes of word 0 never touch.
  const std::vector<index_t> slots = {70, 130, 200, 255};
  for (const std::vector<index_t>& heavy :
       {std::vector<index_t>{63, 64, 65, 200},
        std::vector<index_t>{200, 65, 64, 63}}) {
    std::vector<index_t> weight(256, 1);
    for (std::size_t i = 0; i < slots.size(); ++i) weight[slots[i]] = heavy[i];
    const Hypergraph h = blow_up(testing::chain_hypergraph(256), weight);
    ASSERT_EQ(twin_classes(h), 256u);
    expect_summary_matches_bfs(h);
  }
}

TEST_P(TraversalProperties, TwinQuotientMatchesBfs) {
  Rng rng{GetParam() * 4099};
  // No twins: a private singleton edge per vertex makes every
  // incidence set distinct.
  {
    const Hypergraph base = testing::random_hypergraph(rng, 40, 20, 4);
    HypergraphBuilder builder{base.num_vertices()};
    for (index_t e = 0; e < base.num_edges(); ++e) {
      builder.add_edge(base.vertices_of(e));
    }
    for (index_t v = 0; v < base.num_vertices(); ++v) builder.add_edge({v});
    expect_summary_matches_bfs(builder.build());
  }
  // All twins: every vertex of a random instance doubled or more;
  // isolated ones become groups of isolated vertices.
  {
    const Hypergraph base = testing::random_hypergraph(rng, 30, 12, 4);
    std::vector<index_t> weight(base.num_vertices());
    for (index_t& w : weight) w = 2 + static_cast<index_t>(rng.uniform(4));
    expect_summary_matches_bfs(blow_up(base, weight, &rng));
  }
  // More than 256 classes: partial and multiple batches, with weights
  // from 0 (vanished) to 5 and classes cut across components.
  for (index_t n : {600u, 700u}) {
    const Hypergraph base = split_hypergraph(rng, n);
    std::vector<index_t> weight(base.num_vertices());
    for (index_t& w : weight) w = static_cast<index_t>(rng.uniform(6));
    const Hypergraph h = blow_up(base, weight, &rng);
    EXPECT_GT(twin_classes(h), 256u) << n;
    expect_summary_matches_bfs(h);
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
