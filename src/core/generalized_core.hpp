// Generalized cores of a hypergraph.
//
// The paper's k-core counts how many hyperedges a vertex belongs to.
// Batagelj & Zaversnik's generalized-core framework replaces that count
// with any monotone vertex measure p(v, residual); peeling vertices with
// p < threshold yields the "p-core" for every threshold in one pass
// whenever p is local and monotone decreasing under deletions. We
// provide the measures relevant to the protein-complex setting:
//
//   * kDegree       -- |incident live hyperedges| (the paper's k-core,
//                      but WITHOUT the reducedness rule: hyperedges are
//                      never deleted, only emptied; useful as a cheaper,
//                      weaker notion and as a cross-check)
//   * kPinWeight    -- sum over incident live hyperedges of 1/|f|
//                      (large complexes count less; a protein deep in
//                      many small specific complexes outranks one buried
//                      in a single huge pulldown)
//   * kNeighborhood -- |distinct live co-members| (the d2(v) measure
//                      from the paper's cover analysis)
//
// Measures take real values, so thresholds are doubles and the result
// reports, per vertex, the largest threshold at which it survives
// (its "core value").
#pragma once

#include <vector>

#include "core/hypergraph.hpp"
#include "core/peel/peel_stats.hpp"

namespace hp::hyper {

enum class CoreMeasure { kDegree, kPinWeight, kNeighborhood };

struct GeneralizedCoreResult {
  /// value[v] = sup of thresholds t such that v is in the t-core
  /// (equivalently: the measure of v at the moment it is peeled in the
  /// min-first peeling order, made monotone over the order).
  std::vector<double> value;
  double max_value = 0.0;

  /// Vertices with value >= t.
  std::vector<index_t> core_vertices(double t) const;
};

/// Min-first generalized peeling: repeatedly remove the vertex with the
/// smallest current measure; the running maximum of removal measures is
/// each vertex's core value (the standard generalized-core algorithm).
/// O(|E| * Delta_V + |V| log |V|)-ish with a lazy heap (the shared
/// util/lazy_heap.hpp LazyMinHeap).
GeneralizedCoreResult generalized_core(const Hypergraph& h,
                                       CoreMeasure measure);

/// Instrumented variant: substrate deletions plus the lazy heap's
/// frontier_pushes / frontier_wasted accumulate into `*stats`.
GeneralizedCoreResult generalized_core(const Hypergraph& h,
                                       CoreMeasure measure,
                                       PeelStats* stats);

/// Evaluate the measure of every vertex on the intact hypergraph
/// (exposed for tests and for ranking reports).
std::vector<double> measure_values(const Hypergraph& h, CoreMeasure measure);

}  // namespace hp::hyper
