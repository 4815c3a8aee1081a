// Greedy minimum-weight vertex cover of a hypergraph (Fig. 5).
//
// Given non-negative vertex weights w, find C ⊆ V hitting every
// hyperedge with small total weight. The greedy rule repeatedly picks
// the vertex minimizing the current cost
//     alpha(v) = w(v) / |adj(v) ∩ F_i|
// (its weight spread over the hyperedges it would newly cover), deletes
// the covered hyperedges, and repeats until every hyperedge is covered.
// This is the Johnson-Chvatal-Lovasz H_m = O(log m) approximation for
// set cover, m = |F|.
//
// The paper applies this to TAP bait selection: a cover is a candidate
// bait set guaranteed to pull down every complex. Weight choices:
//   * unit weights  -> minimum-cardinality cover (paper: 109 proteins);
//   * w(v) = deg(v)^2 -> biases toward low-degree baits, which pull down
//     their complexes less ambiguously (paper: 233 proteins, avg degree
//     down from 3.7 to 1.14).
#pragma once

#include <vector>

#include "core/hypergraph.hpp"

namespace hp::hyper {

struct CoverResult {
  std::vector<index_t> vertices;  ///< the cover, in selection order
  double total_weight = 0.0;      ///< sum of selected weights
  /// Average (original) degree of the cover's vertices -- the bait
  /// quality metric the paper reports.
  double average_degree = 0.0;
  /// Greedy lower bound on OPT: total_weight / H_m. Any feasible cover
  /// weighs at least this much.
  double lower_bound = 0.0;
};

/// Standard weight vectors.
std::vector<double> unit_weights(const Hypergraph& h);
std::vector<double> degree_squared_weights(const Hypergraph& h);

/// Greedy weighted vertex cover: greedy_multicover with every
/// requirement 1, plus the lower bound. Runs in O(|E| log |V| + sum_v
/// d2(v)) time via a lazy-deletion heap.
CoverResult greedy_vertex_cover(const Hypergraph& h,
                                const std::vector<double>& weights);

/// True if `cover` hits every hyperedge of h.
bool is_vertex_cover(const Hypergraph& h, const std::vector<index_t>& cover);

/// Mean original degree of a vertex set (0 for an empty set).
double average_degree(const Hypergraph& h, const std::vector<index_t>& set);

/// H_m = 1 + 1/2 + ... + 1/m (the greedy approximation factor).
double harmonic(index_t m);

}  // namespace hp::hyper
