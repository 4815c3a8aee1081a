// Lane-count behaviour of core_decomposition: the bulk-synchronous
// peel must give the same result on any par::LaneLimit, and that result
// is the naive reference's.
#include <gtest/gtest.h>

#include "core/kcore.hpp"
#include "par/thread_pool.hpp"
#include "test_helpers.hpp"

namespace hp::hyper {
namespace {

TEST(ParallelKCore, EmptyAndTrivial) {
  const HyperCoreResult empty = core_decomposition(HypergraphBuilder{0}.build());
  EXPECT_EQ(empty.max_core, 0u);

  HypergraphBuilder b{2};
  b.add_edge({0, 1});
  const HyperCoreResult one = core_decomposition(b.build());
  EXPECT_EQ(one.max_core, 1u);
}

TEST(ParallelKCore, ThreadCountDoesNotChangeResult) {
  Rng rng{31337};
  testing::expect_engine_matches_naive(
      testing::random_hypergraph(rng, 60, 80, 6), "random");
}

TEST(ParallelKCore, EdgeRepresentativeIsLowestId) {
  // Two edges shrink to the same residual set in the same round; the
  // engine keeps the lower id on every lane count.
  HypergraphBuilder b{4};
  b.add_edge({0, 1, 2});  // e0
  b.add_edge({0, 1, 3});  // e1
  const Hypergraph h = b.build();
  testing::expect_engine_matches_naive(h, "pair");
  // At k = 2: vertices 2 and 3 peel, e0 and e1 both become {0,1};
  // e1 (higher id) is deleted as non-maximal at level 2 (edge_core 1),
  // e0 empties in the next round of the same level.
  const HyperCoreResult r = core_decomposition(h);
  EXPECT_EQ(r.max_core, 1u);
  EXPECT_EQ(r.edge_core[1], 1u);
}

TEST(ParallelKCore, ExtractedCoreIsValid) {
  Rng rng{71};
  const Hypergraph h = testing::random_hypergraph(rng, 40, 60, 5);
  const HyperCoreResult r = core_decomposition(h);
  for (index_t k = 1; k <= r.max_core; ++k) {
    const SubHypergraph core = extract_core(h, r, k);
    EXPECT_TRUE(satisfies_core_conditions(core.hypergraph, k)) << k;
  }
}

TEST(ParallelKCore, DefaultThreadsMatchesSequentialContract) {
  // Default lanes and one lane (the sequential schedule) agree exactly.
  Rng rng{9001};
  const Hypergraph h = testing::random_hypergraph(rng, 35, 50, 6);
  const HyperCoreResult all_lanes = core_decomposition(h);
  par::LaneLimit one{1};
  testing::expect_same_cores(all_lanes, core_decomposition(h), "1 lane");
}

}  // namespace
}  // namespace hp::hyper
