// Compressed-sparse-row undirected simple graph.
//
// This is the substrate for the paper's two baseline representations of
// protein-complex data (clique/star expansions, complex intersection
// graphs) and for the DIP protein-protein interaction comparisons in
// section 3. Immutable after construction; use GraphBuilder to assemble.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/common.hpp"

namespace hp::graph {

class GraphBuilder;

/// Undirected simple graph in CSR form. Neighbor lists are sorted, with
/// no self-loops and no parallel edges.
class Graph {
 public:
  Graph() = default;

  index_t num_vertices() const {
    return static_cast<index_t>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }

  /// Number of undirected edges.
  count_t num_edges() const { return adjacency_.size() / 2; }

  index_t degree(index_t v) const {
    return static_cast<index_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Sorted neighbors of v.
  std::span<const index_t> neighbors(index_t v) const {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  /// Binary search in the sorted neighbor list.
  bool has_edge(index_t u, index_t v) const;

  index_t max_degree() const;

  /// Bytes used by the CSR arrays; the storage measure the paper uses to
  /// argue the hypergraph representation is cheaper than clique expansion.
  std::size_t storage_bytes() const {
    return offsets_.size() * sizeof(offsets_[0]) +
           adjacency_.size() * sizeof(adjacency_[0]);
  }

  /// storage_bytes() of a graph with n vertices and m edges, computed
  /// without building it: n+1 offsets plus both directions of each edge.
  static std::size_t csr_bytes(index_t n, count_t m) {
    return (static_cast<std::size_t>(n) + 1) * sizeof(std::size_t) +
           2 * static_cast<std::size_t>(m) * sizeof(index_t);
  }

 private:
  friend class GraphBuilder;
  std::vector<std::size_t> offsets_;  // size num_vertices()+1
  std::vector<index_t> adjacency_;    // both directions of each edge
};

/// Accumulates edges, deduplicates, and produces an immutable Graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(index_t num_vertices) : num_vertices_(num_vertices) {}

  /// Add an undirected edge. Self-loops are rejected; duplicates are
  /// merged at build(). Endpoints must be < num_vertices.
  void add_edge(index_t u, index_t v);

  std::size_t num_pending_edges() const { return edges_.size(); }

  /// Sort, deduplicate, and produce the CSR graph. The builder may be
  /// reused afterwards (its pending edge list is preserved).
  Graph build() const;

 private:
  index_t num_vertices_;
  std::vector<std::pair<index_t, index_t>> edges_;
};

}  // namespace hp::graph
