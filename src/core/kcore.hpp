// Hypergraph k-core decomposition -- the paper's central algorithm
// (Fig. 4).
//
// Definition (section 3): the k-core of a hypergraph H is the maximal
// sub-hypergraph that is *reduced* (no hyperedge contained in another)
// and in which every vertex belongs to at least k hyperedges. When a
// vertex is deleted it is removed from all hyperedges containing it; a
// hyperedge is deleted as soon as it stops being maximal (including the
// special case of becoming empty).
//
// Non-maximality is detected without pairwise set comparisons by
// overlap counting: hyperedge f is contained in a live hyperedge g
// exactly when f's current cardinality equals its current overlap with
// g (core/peel/containment.hpp).
//
// The paper closes section 3 with "a parallel algorithm will need to be
// designed"; this is one, and it is also the only engine. Each level k
// is a bulk-synchronous decrement-and-filter loop (the shape of Blaze's
// k-core, SNIPPETS.md section 2): every round removes the whole
// sub-threshold frontier at once on the shared pool (src/par/), then
// re-checks maximality only for the edges that shrank, and the degree
// drops of the edges it deletes feed the next round. Level seeds drain
// from lazy degree buckets (core/peel/frontier.hpp), so no level rescans
// |V|. core(x) = largest k such that x survives the level-k peel; cores
// are nested, and the maximum core is the largest k with a non-empty
// residual.
//
// Lane count (par::LaneLimit, HP_THREADS) never changes the result: one
// lane runs the same rounds serially inline.
#pragma once

#include <vector>

#include "core/hypergraph.hpp"
#include "core/peel/peel_stats.hpp"

namespace hp::hyper {

/// Result of the full core decomposition.
struct HyperCoreResult {
  /// vertex_core[v] = largest k such that v belongs to the k-core
  /// (0 = not even in the 1-core, e.g. an isolated vertex).
  std::vector<index_t> vertex_core;
  /// edge_core[e] = largest k such that e belongs (as a residual edge)
  /// to the k-core. When several hyperedges have identical residual
  /// sets, the lowest id survives and the others are deleted -- the same
  /// rule as the reduction and the naive reference (kcore_naive.hpp), so
  /// the whole result is a function of the input alone.
  std::vector<index_t> edge_core;
  /// in_reduced[e] != 0 iff edge e survived the initial reduction (the
  /// level-0 residual). Not derivable from edge_core: reduction-removed
  /// and level-1-removed edges both report core 0, yet only the latter
  /// counted toward level_edges[0].
  std::vector<char> in_reduced;
  /// Largest k with a non-empty k-core.
  index_t max_core = 0;
  /// level_vertices[k] / level_edges[k]: number of vertices / edges in
  /// the k-core, for k = 0 .. max_core (index 0 = whole reduced input).
  std::vector<index_t> level_vertices;
  std::vector<index_t> level_edges;

  std::vector<index_t> core_vertices(index_t k) const;
  std::vector<index_t> core_edges(index_t k) const;
};

/// Full core decomposition. Runs on the lanes the caller's
/// par::LaneLimit (or HP_THREADS) allows; the result is identical on
/// any lane count.
HyperCoreResult core_decomposition(const Hypergraph& h);

/// Instrumented variant: substrate counters (containment probes,
/// deletions, cascade rounds, peak frontier, frontier pushes/wasted)
/// are accumulated into `*stats` when non-null.
HyperCoreResult core_decomposition(const Hypergraph& h, PeelStats* stats);

/// Extract the k-core as a standalone hypergraph (residual hyperedges
/// restricted to core vertices), with id maps back to the input.
SubHypergraph extract_core(const Hypergraph& h, const HyperCoreResult& d,
                           index_t k);

/// Verify that `core` (as a sub-hypergraph of h described by the masks)
/// satisfies the k-core conditions: reduced, and every vertex has degree
/// >= k. Used by tests and exposed for downstream sanity checks.
bool satisfies_core_conditions(const Hypergraph& core, index_t k);

}  // namespace hp::hyper
