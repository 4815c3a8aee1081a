// The generator is the harness's foundation: if it stops producing the
// adversarial regimes (or loses determinism), the fuzzer silently stops
// covering the interesting code paths. These tests pin per-shape
// structural properties and the seed -> instance contract.
#include "check/generator.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/hypergraph.hpp"
#include "util/rng.hpp"

namespace hp::check {
namespace {

using hyper::Hypergraph;

TEST(Generator, DeterministicPerSeed) {
  for (std::uint64_t seed : {0ULL, 7ULL, 123ULL, 99999ULL}) {
    const Hypergraph a = generate(seed);
    const Hypergraph b = generate(seed);
    ASSERT_EQ(a.num_vertices(), b.num_vertices()) << "seed " << seed;
    ASSERT_EQ(a.num_edges(), b.num_edges()) << "seed " << seed;
    for (index_t e = 0; e < a.num_edges(); ++e) {
      const auto ma = a.vertices_of(e);
      const auto mb = b.vertices_of(e);
      ASSERT_TRUE(std::equal(ma.begin(), ma.end(), mb.begin(), mb.end()))
          << "seed " << seed << " edge " << e;
    }
  }
}

TEST(Generator, AllInstancesValidate) {
  for (std::uint64_t seed = 0; seed < 256; ++seed) {
    const Hypergraph h = generate(seed);
    EXPECT_NO_THROW(hyper::validate(h)) << "seed " << seed;
  }
}

TEST(Generator, RespectsSizeEnvelope) {
  GenOptions options;
  options.max_vertices = 12;
  options.max_edges = 10;
  options.max_edge_size = 4;
  for (std::uint64_t seed = 0; seed < 128; ++seed) {
    const Hypergraph h = generate(seed, options);
    EXPECT_LE(h.num_vertices(), options.max_vertices) << "seed " << seed;
    EXPECT_LE(h.num_edges(), options.max_edges) << "seed " << seed;
    for (index_t e = 0; e < h.num_edges(); ++e) {
      EXPECT_LE(h.edge_size(e), options.max_edge_size)
          << "seed " << seed << " edge " << e;
    }
  }
}

TEST(Generator, SeedRangeSweepsAllShapes) {
  std::set<Shape> seen;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    seen.insert(shape_of_seed(seed));
  }
  EXPECT_EQ(static_cast<int>(seen.size()), kNumShapes);
}

TEST(Generator, NestedChainReallyNests) {
  Rng rng{42};
  const Hypergraph h = generate_shape(Shape::kNestedChain, rng);
  ASSERT_GE(h.num_edges(), 2);
  // At least one ordered pair of distinct edges must be in containment;
  // the chain construction guarantees many.
  int containments = 0;
  for (index_t a = 0; a < h.num_edges(); ++a) {
    for (index_t b = 0; b < h.num_edges(); ++b) {
      if (a == b) continue;
      const auto ma = h.vertices_of(a);
      const auto mb = h.vertices_of(b);
      if (ma.size() > mb.size()) continue;
      if (std::includes(mb.begin(), mb.end(), ma.begin(), ma.end())) {
        ++containments;
      }
    }
  }
  EXPECT_GT(containments, 0);
}

TEST(Generator, DuplicateHeavyRepeatsEdges) {
  Rng rng{7};
  const Hypergraph h = generate_shape(Shape::kDuplicateHeavy, rng);
  std::set<std::vector<index_t>> distinct;
  for (index_t e = 0; e < h.num_edges(); ++e) {
    const auto m = h.vertices_of(e);
    distinct.insert(std::vector<index_t>(m.begin(), m.end()));
  }
  EXPECT_LT(distinct.size(), static_cast<std::size_t>(h.num_edges()));
}

TEST(Generator, SingletonShapeHasSingletonEdges) {
  Rng rng{3};
  const Hypergraph h = generate_shape(Shape::kSingletons, rng);
  bool has_singleton = false;
  for (index_t e = 0; e < h.num_edges(); ++e) {
    if (h.edge_size(e) == 1) has_singleton = true;
  }
  EXPECT_TRUE(has_singleton);
}

TEST(Generator, SparseShapeLeavesIsolatedVertices) {
  Rng rng{11};
  const Hypergraph h = generate_shape(Shape::kSparse, rng);
  index_t isolated = 0;
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    if (h.vertex_degree(v) == 0) ++isolated;
  }
  EXPECT_GT(isolated, 0);
}

TEST(Generator, CellzomeShapeHasTwinClasses) {
  // Twins (equal non-empty incidence sets) are what the weighted path
  // sweep folds; most Cellzome-shaped cases must have a twin class, and
  // many one of weight >= 3 (two bit-planes), not only the occasional
  // twin pair.
  int with_pairs = 0;
  int with_triples = 0;
  int cases = 0;
  for (std::uint64_t seed = 0; cases < 60; ++seed) {
    if (shape_of_seed(seed) != Shape::kCellzome) continue;
    ++cases;
    const Hypergraph h = generate(seed);
    std::map<std::vector<index_t>, index_t> weight;
    for (index_t v = 0; v < h.num_vertices(); ++v) {
      const auto edges = h.edges_of(v);
      if (!edges.empty()) ++weight[{edges.begin(), edges.end()}];
    }
    index_t heaviest = 0;
    for (const auto& [incidence, w] : weight) heaviest = std::max(heaviest, w);
    if (heaviest >= 2) ++with_pairs;
    if (heaviest >= 3) ++with_triples;
  }
  EXPECT_GE(with_pairs, 50);
  EXPECT_GE(with_triples, 30);
}

TEST(Generator, ProducesDegenerateInstancesAtSmallRate) {
  bool saw_empty = false;
  bool saw_edgeless = false;
  for (std::uint64_t seed = 0; seed < 512; ++seed) {
    const Hypergraph h = generate(seed);
    if (h.num_vertices() == 0) saw_empty = true;
    if (h.num_vertices() > 0 && h.num_edges() == 0) saw_edgeless = true;
  }
  EXPECT_TRUE(saw_empty);
  EXPECT_TRUE(saw_edgeless);
}

TEST(Generator, MutateTextIsDeterministicGivenRngState) {
  const std::string input = "%hypergraph 4 2\n0 1 2\n2 3\n";
  Rng a{5};
  Rng b{5};
  EXPECT_EQ(mutate_text(a, input, 4), mutate_text(b, input, 4));
}

TEST(Generator, MutateBytesChangesInput) {
  const std::string input(64, '\x5a');
  Rng rng{9};
  int changed = 0;
  for (int i = 0; i < 16; ++i) {
    if (mutate_bytes(rng, input, 3) != input) ++changed;
  }
  EXPECT_GT(changed, 8);  // overwhelming majority of mutations differ
}

TEST(Generator, MutateTextHandlesEmptyInput) {
  Rng rng{1};
  EXPECT_NO_THROW(mutate_text(rng, "", 4));
  EXPECT_NO_THROW(mutate_bytes(rng, "", 4));
}

}  // namespace
}  // namespace hp::check
