// Shared helpers for the hypergraph test suites.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/hypergraph.hpp"
#include "core/kcore.hpp"
#include "core/kcore_naive.hpp"
#include "par/thread_pool.hpp"
#include "util/rng.hpp"

namespace hp::hyper::testing {

/// Random hypergraph: `num_edges` hyperedges, each with a uniform size in
/// [1, max_size], members drawn uniformly (deduplicated by the builder).
inline Hypergraph random_hypergraph(Rng& rng, index_t num_vertices,
                                    index_t num_edges, index_t max_size) {
  HypergraphBuilder builder{num_vertices};
  std::vector<index_t> members;
  for (index_t e = 0; e < num_edges; ++e) {
    const index_t size =
        1 + static_cast<index_t>(rng.uniform(max_size));
    members.clear();
    for (index_t i = 0; i < size; ++i) {
      members.push_back(static_cast<index_t>(rng.uniform(num_vertices)));
    }
    builder.add_edge(members);
  }
  return builder.build();
}

/// The paper-style toy: two overlapping "complexes" plus satellites.
///   e0 = {0,1,2,3}, e1 = {2,3,4}, e2 = {4,5}, e3 = {5}, e4 = {0,1,2,3,6}
/// e0 is contained in e4, so a reduction must drop e0.
/// Chain of hyperedges e_i = {i, i + 1}: distances equal index gaps.
inline Hypergraph chain_hypergraph(index_t n) {
  HypergraphBuilder b{n};
  for (index_t i = 0; i + 1 < n; ++i) {
    b.add_edge({i, static_cast<index_t>(i + 1)});
  }
  return b.build();
}

inline Hypergraph toy_hypergraph() {
  HypergraphBuilder b{7};
  b.add_edge({0, 1, 2, 3});
  b.add_edge({2, 3, 4});
  b.add_edge({4, 5});
  b.add_edge({5});
  b.add_edge({0, 1, 2, 3, 6});
  return b.build();
}

/// Two core decompositions agree in every field.
inline void expect_same_cores(const HyperCoreResult& a,
                              const HyperCoreResult& b,
                              const std::string& label) {
  EXPECT_EQ(a.max_core, b.max_core) << label;
  EXPECT_EQ(a.vertex_core, b.vertex_core) << label;
  EXPECT_EQ(a.edge_core, b.edge_core) << label;
  EXPECT_EQ(a.in_reduced, b.in_reduced) << label;
  EXPECT_EQ(a.level_vertices, b.level_vertices) << label;
  EXPECT_EQ(a.level_edges, b.level_edges) << label;
}

/// The k-core contract: core_decomposition equals the naive reference
/// exactly, under one, two and sixteen lanes.
inline void expect_engine_matches_naive(const Hypergraph& h,
                                        const std::string& label) {
  const HyperCoreResult naive = core_decomposition_naive(h);
  for (int lanes : {1, 2, 16}) {
    par::LaneLimit limit{lanes};
    expect_same_cores(core_decomposition(h), naive,
                      label + ", " + std::to_string(lanes) + " lanes");
  }
}

}  // namespace hp::hyper::testing
