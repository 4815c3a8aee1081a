// MutableAnalysisContext: the incremental analysis pipeline.
//
// Owns a MutableHypergraph plus derived artifacts maintained in
// *stable* id space, incrementally:
//
//     - vertex degrees            O(|dirty|) per apply
//     - vertex degree histogram   O(|dirty|), moves old bucket -> new
//     - edge size histogram       O(|dirty|)
//     - connected components      labels + union-find over labels;
//                                 insertion unions in near-O(1), a
//                                 removal runs a balanced search at the
//                                 next query and relabels only the
//                                 pieces that split off (DESIGN.md 12)
//     - core decomposition        the frontier peel over the snapshot,
//                                 re-run at the next query after a
//                                 window that touched a hyperedge;
//                                 isolated-vertex windows extend it
//
// Any other analysis of the current version builds a fresh, build-once
// AnalysisContext over the materialized snapshot:
// `AnalysisContext full{ctx.snapshot().hypergraph};`.
//
// Cores have one path: the full peel. The only window it skips is one
// that touched no hyperedge. Such a window only adds vertices (or drops
// isolated ones); a vertex in no hyperedge changes no degree, overlap
// or containment, so every core number stands and the new vertices
// take core 0 (DESIGN.md 12). Containment rules out a sound smaller
// repair unit than the component, and on protein-complex topology the
// giant component is nearly the whole graph.
// The differential fuzz oracle (src/check/mutation.hpp) holds this to
// account on thousands of random mutation traces.
//
// Threading: the whole pipeline is single-writer by contract -- one
// thread mutates and queries. Artifacts handed out by reference are
// invalidated by the next apply()/mutation, exactly like iterators of a
// std::vector under insert. Parallelism still happens *inside* builds
// (the frontier peel), which is safe because apply() never runs
// concurrently with them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/context/context_stats.hpp"
#include "core/kcore.hpp"
#include "core/mutate/mutable_hypergraph.hpp"
#include "core/peel/peel_stats.hpp"
#include "core/traversal.hpp"
#include "util/histogram.hpp"

namespace hp::hyper {

namespace detail {

/// Union-find with union by size and path halving.
struct UnionFind {
  std::vector<index_t> parent;
  std::vector<index_t> size;

  void reset(index_t n);
  void grow(index_t n);
  index_t find(index_t x);
  /// Returns true when two distinct roots were merged.
  bool unite(index_t a, index_t b);
};

}  // namespace detail

class MutableAnalysisContext {
 public:
  /// Start from an immutable base (unpacked into a MutableHypergraph).
  explicit MutableAnalysisContext(const Hypergraph& base);

  MutableAnalysisContext(const MutableAnalysisContext&) = delete;
  MutableAnalysisContext& operator=(const MutableAnalysisContext&) = delete;

  /// The underlying editable structure. Mutate freely, then call
  /// apply() (or any query, which applies implicitly).
  MutableHypergraph& graph() { return graph_; }
  const MutableHypergraph& graph() const { return graph_; }

  /// Absorb pending mutations into every *built* artifact. No-op when
  /// the graph is clean.
  void apply();

  // Stable id space: tombstones report degree 0 and form singleton
  // components, matching their appearance in the materialized snapshot.
  const std::vector<index_t>& vertex_degrees();
  const Histogram& vertex_degree_histogram();
  const Histogram& edge_size_histogram();
  /// Canonical component labeling, bit-identical to
  /// connected_components(snapshot().hypergraph) with edge labels in
  /// compact (snapshot) edge order.
  const HyperComponents& components();
  /// Core decomposition in stable id space: vertex_core by vertex id,
  /// edge_core / in_reduced by stable edge slot (dead slots report 0).
  /// Level counts, max_core and the compact-order invariants match
  /// core_decomposition(snapshot().hypergraph) exactly.
  const HyperCoreResult& cores();
  /// Substrate counters accumulated across all core builds and re-peels
  /// so far.
  const PeelStats& core_peel_stats() const { return peel_stats_; }

  /// Materialized snapshot of the current version (cached).
  const MutableHypergraph::Snapshot& snapshot();

  struct ApplyStats {
    count_t applies = 0;             ///< non-empty apply() calls
    count_t mutations = 0;           ///< graph mutations absorbed
    count_t incremental_updates = 0; ///< artifact-level in-place updates
    count_t component_rebuilds = 0;  ///< full component relabels
    count_t core_repeels = 0;        ///< full core re-peels after a build
  };
  const ApplyStats& apply_stats() const { return apply_stats_; }

  /// One row per artifact, with incremental-update counts.
  ContextStats stats();

 private:
  struct CheapCounters {
    bool built = false;
    count_t hits = 0;
    count_t incremental_updates = 0;
  };

  void grow_tracked_arrays();
  void note_split_seeds(const DirtyRegion& region);
  void relabel_components();
  void resolve_splits();
  void split_off(std::span<const index_t> seeds);
  void canonicalize_components();
  void build_cores_full();

  MutableHypergraph graph_;

  // degrees
  CheapCounters degrees_counters_;
  std::vector<index_t> degrees_;

  // histograms
  CheapCounters vertex_hist_counters_;
  Histogram vertex_hist_;
  CheapCounters edge_hist_counters_;
  Histogram edge_hist_;

  // components: vertex v is in component uf_.find(label_[v]). The
  // labels describe the graph as of labeled_slots_ edge slots; a
  // pending split keeps removal seeds until the next query.
  CheapCounters components_counters_;
  std::vector<index_t> label_;
  detail::UnionFind uf_;          ///< over label ids
  index_t labeled_slots_ = 0;     ///< edge slots the labels account for
  bool split_pending_ = false;    ///< removals await resolve_splits()
  std::vector<index_t> split_seeds_;
  std::vector<index_t> search_owner_;  ///< split search scratch
  bool labels_stale_ = false;     ///< two unqueried removal windows
  bool components_dirty_ = false; ///< canonical output needs refresh
  HyperComponents components_;

  // cores
  CheapCounters cores_counters_;
  HyperCoreResult cores_;       // stable id space
  bool cores_dirty_ = false;    // a hyperedge changed: re-peel on query
  PeelStats peel_stats_;

  // Search scratch, epoch-stamped to avoid O(V) clears per search.
  std::vector<std::uint64_t> vertex_mark_;
  std::vector<std::uint64_t> edge_mark_;
  std::uint64_t mark_epoch_ = 0;

  ApplyStats apply_stats_;
};

}  // namespace hp::hyper
