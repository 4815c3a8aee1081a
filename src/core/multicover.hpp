// Greedy minimum-weight vertex multicover (paper, section 4.1).
//
// Each hyperedge f carries a coverage requirement r_f >= 1 and must be
// hit by at least r_f distinct cover vertices. The greedy algorithm is
// the Fig. 5 procedure with one change: when a vertex enters the cover,
// only hyperedges whose requirement is now met are deleted; a partially
// satisfied hyperedge keeps contributing (its residual demand) to the
// costs of its remaining vertices. The approximation ratio stays H_m.
//
// The paper uses r_f = 2 to make the 70 %-reproducible TAP experiment
// identify every complex at least twice (559 proteins in their data;
// singleton complexes, which cannot be covered twice, are excluded).
#pragma once

#include <vector>

#include "core/cover.hpp"
#include "core/hypergraph.hpp"

namespace hp::hyper {

struct MulticoverResult {
  std::vector<index_t> vertices;  ///< selection order
  double total_weight = 0.0;
  double average_degree = 0.0;
  /// Hyperedges whose requirement exceeds their cardinality; these are
  /// infeasible and were clamped to their cardinality (the paper's
  /// "excluding three complexes that consist of a single protein").
  std::vector<index_t> clamped_edges;
};

/// Greedy weighted multicover, the one greedy cover loop. `weights`
/// holds one non-negative entry per vertex; requirements[f] >= 1 per
/// edge; entries larger than edge_size(f) are clamped (and reported)
/// because a vertex can hit an edge at most once.
MulticoverResult greedy_multicover(const Hypergraph& h,
                                   const std::vector<double>& weights,
                                   const std::vector<index_t>& requirements);

/// Convenience: uniform requirement r for every hyperedge.
MulticoverResult greedy_multicover(const Hypergraph& h,
                                   const std::vector<double>& weights,
                                   index_t r);

/// True if every hyperedge f is hit by at least min(r_f, |f|) distinct
/// vertices of `cover`.
bool is_multicover(const Hypergraph& h, const std::vector<index_t>& cover,
                   const std::vector<index_t>& requirements);

}  // namespace hp::hyper
