// Paths, distances, components, and diameter of a hypergraph.
//
// The paper defines a path as an alternating sequence of vertices and
// hyperedges v1, f1, v2, f2, ..., v_i with each hyperedge containing its
// flanking vertices; the length is the number of hyperedges. Distances
// are therefore half the distances in the bipartite graph B(H), which is
// exactly how we compute them: one BFS over the incidence structure,
// alternating vertex -> edges -> vertices expansions.
#pragma once

#include <vector>

#include "core/hypergraph.hpp"

namespace hp::hyper {

/// Hyperedge-count distances from `source` to every vertex;
/// kInvalidIndex marks unreachable vertices. distance[source] == 0.
std::vector<index_t> bfs_distances(const Hypergraph& h, index_t source);

/// Connected components of the bipartite incidence structure. An
/// isolated vertex forms its own component with zero hyperedges.
struct HyperComponents {
  std::vector<index_t> vertex_label;  ///< component id per vertex
  std::vector<index_t> edge_label;    ///< component id per hyperedge
  std::vector<index_t> vertex_counts; ///< vertices per component
  std::vector<index_t> edge_counts;   ///< hyperedges per component
  index_t count = 0;

  /// Component with the most vertices.
  index_t largest() const;
};

HyperComponents connected_components(const Hypergraph& h);

/// Exact all-pairs path statistics (paper: diameter 6, average path
/// length 2.568 for the yeast hypergraph). Average is over all ordered
/// connected vertex pairs. The sweep runs on the twin quotient: one
/// source per class of vertices with the same non-empty incidence set,
/// weighted by the class size (twins are equidistant from everything
/// else, and 1 apart). Source classes run in batches of 256, one bit per
/// source in four machine words: each BFS level of a batch costs at
/// most 2 * quotient pins four-word ORs (a class pull pass and a push
/// into the hyperedges), so the sweep is at most ceil(classes / 256)
/// batches * levels * 2 * quotient pins such operations, after an
/// O(pins) quotient build. Batches are spread
/// over the shared pool; results are exact integers merged per lane and
/// identical for every HP_THREADS value.
struct HyperPathSummary {
  index_t diameter = 0;
  double average_length = 0.0;
  count_t connected_pairs = 0;
};

HyperPathSummary path_summary(const Hypergraph& h);

}  // namespace hp::hyper
