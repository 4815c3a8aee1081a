// Differential tests: the k-core engine (the paper's algorithm as a
// bulk-synchronous frontier peel) against the naive set-comparison
// reference.
//
// Contract: every field is identical -- vertex and edge core numbers,
// the reduction mask, maximum core and per-level counts -- under any
// lane count. Among hyperedges whose residual sets become equal during
// peeling, both keep the lowest id.
#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace hp::hyper {
namespace {

using testing::expect_engine_matches_naive;

class KCoreEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KCoreEquivalence, RandomSparse) {
  Rng rng{GetParam()};
  expect_engine_matches_naive(testing::random_hypergraph(rng, 30, 40, 5),
                              "sparse");
}

TEST_P(KCoreEquivalence, RandomDense) {
  Rng rng{GetParam() * 7919};
  expect_engine_matches_naive(testing::random_hypergraph(rng, 15, 60, 8),
                              "dense");
}

TEST_P(KCoreEquivalence, ManySmallEdges) {
  Rng rng{GetParam() * 104729};
  expect_engine_matches_naive(testing::random_hypergraph(rng, 50, 120, 3),
                              "small edges");
}

INSTANTIATE_TEST_SUITE_P(Seeds, KCoreEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

TEST(KCoreEquivalence, ToyHypergraph) {
  expect_engine_matches_naive(testing::toy_hypergraph(), "toy");
}

TEST(KCoreEquivalence, DuplicateHeavyInput) {
  // Stress representative selection: many duplicate and nested edges.
  HypergraphBuilder b{6};
  b.add_edge({0, 1, 2});
  b.add_edge({0, 1, 2});
  b.add_edge({1, 2});
  b.add_edge({0, 1, 2, 3});
  b.add_edge({3, 4, 5});
  b.add_edge({4, 5});
  b.add_edge({4, 5});
  expect_engine_matches_naive(b.build(), "duplicate-heavy");
}

TEST(KCoreEquivalence, StarOfEdges) {
  // One hub vertex in every edge; peeling order stresses the cascade.
  HypergraphBuilder b{9};
  for (index_t i = 1; i < 9; i += 2) {
    b.add_edge({0, i, i + 1 < 9 ? i + 1 : 1});
  }
  expect_engine_matches_naive(b.build(), "star");
}

}  // namespace
}  // namespace hp::hyper
