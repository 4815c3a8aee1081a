// Graph k-core decomposition (Batagelj-Zaversnik bucket peeling).
//
// The paper (section 3) describes the classic linear-time algorithm:
// repeatedly remove a vertex of minimum degree; the highest minimum
// degree observed is the maximum core. We additionally return per-vertex
// core numbers, which the paper's DIP-network comparison needs.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "util/common.hpp"

namespace hp::graph {

struct CoreDecomposition {
  /// core[v] = largest k such that v belongs to the k-core.
  std::vector<index_t> core;
  /// Maximum core value (0 for an empty / edgeless graph).
  index_t max_core = 0;
  /// Vertices in the maximum core.
  std::vector<index_t> max_core_vertices() const;
};

/// O(V + E) peeling over flat degree bins.
CoreDecomposition core_decomposition(const Graph& g);

/// Vertices of the k-core (possibly empty).
std::vector<index_t> k_core_vertices(const CoreDecomposition& d, index_t k);

/// Reference O(V^2 E)-ish implementation by repeated scans, for testing.
CoreDecomposition core_decomposition_naive(const Graph& g);

}  // namespace hp::graph
