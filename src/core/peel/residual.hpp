// Residual-hypergraph bookkeeping shared by every peeling algorithm.
//
// A peel works on a shrinking sub-hypergraph of an immutable Hypergraph:
// alive masks, residual vertex degrees (live incident edges), residual
// edge sizes (live member vertices), and live counts. Historically each
// algorithm (k-core engines, the naive reference, generalized cores,
// reduction, multicover) carried a private copy of this state; this
// class is the single substrate they now share, leaving each algorithm
// only its *policy* -- peel order, threshold rule, measure.
//
// Deletion primitives are cascade-free by design: erase_vertex reports
// the live edges it shrank, and the bulk primitives leave degree-drop
// routing to the caller. The caller decides what to enqueue or delete
// next, so the same substrate serves the bulk k-core frontier,
// measure-driven heaps and cover demand tracking.
//
// Core stamping (satellite of the paper's Fig. 4): when core-number
// arrays are bound, erase_* stamps the removed item with level-1 at the
// moment of deletion. Since a peel runs until nothing is alive, every
// item is stamped exactly once -- no per-level survivor sweeps needed.
#pragma once

#include <vector>

#include "core/hypergraph.hpp"
#include "core/peel/peel_stats.hpp"

namespace hp::hyper {

class ResidualHypergraph {
 public:
  explicit ResidualHypergraph(const Hypergraph& h);

  const Hypergraph& base() const { return *h_; }

  bool vertex_alive(index_t v) const { return vertex_alive_[v] != 0; }
  bool edge_alive(index_t e) const { return edge_alive_[e] != 0; }
  index_t vertex_degree(index_t v) const { return vertex_degree_[v]; }
  index_t edge_size(index_t e) const { return edge_size_[e]; }
  index_t live_vertices() const { return live_vertices_; }
  index_t live_edges() const { return live_edges_; }

  /// Optional instrumentation: deletions are counted into `stats`.
  void bind_stats(PeelStats* stats) { stats_ = stats; }

  /// Optional core stamping: erase_vertex / erase_edge write level-1
  /// into these arrays (sized |V| / |F|) while peel_level() >= 1.
  void bind_cores(std::vector<index_t>* vertex_core,
                  std::vector<index_t>* edge_core) {
    vertex_core_ = vertex_core;
    edge_core_ = edge_core;
  }

  /// Current peel level k; level 0 is the initial reduction (deletions
  /// are not stamped and not counted as cascaded).
  void set_peel_level(index_t k) { level_ = k; }
  index_t peel_level() const { return level_; }

  /// Delete vertex v: mark dead, shrink every live incident edge by one,
  /// append those edges to `touched` (not cleared). Stamps v if bound.
  void erase_vertex(index_t v, std::vector<index_t>& touched);

  /// Same, discarding the touched-edge list.
  void erase_vertex(index_t v);

  /// Delete edge f: mark dead, decrement the degree of every live member
  /// vertex. Stamps f if bound.
  void erase_edge(index_t f);

  // --- Bulk-parallel primitives (frontier engine) -------------------
  //
  // The k-core peel erases a whole frontier of vertices (then
  // a whole batch of doomed edges) from concurrent pool lanes. Item
  // ownership is disjoint -- each vertex/edge is erased by exactly one
  // lane -- so alive flags and core stamps are plain disjoint writes,
  // while the shared degree/size counters use atomic decrements. Live
  // counts and stats are settled once per phase via note_bulk_erase
  // (calling it is the caller's obligation; the mark_*_bulk primitives
  // deliberately touch neither). Phase discipline keeps the reads safe:
  // a vertex phase never writes edge-alive flags and vice versa.

  /// Mark v dead and stamp its core (level-1) if bound. No counters.
  void mark_vertex_dead_bulk(index_t v) {
    vertex_alive_[v] = 0;
    if (vertex_core_ != nullptr && level_ >= 1) {
      (*vertex_core_)[v] = level_ - 1;
    }
  }

  /// Mark f dead and stamp its core (level-1) if bound. No counters.
  void mark_edge_dead_bulk(index_t f) {
    edge_alive_[f] = 0;
    if (edge_core_ != nullptr && level_ >= 1) {
      (*edge_core_)[f] = level_ - 1;
    }
  }

  /// Atomically shrink edge e's residual size by one (a member vertex
  /// died). Safe from any lane while no lane writes edge-alive flags.
  void shrink_edge_atomic(index_t e);

  /// Atomically drop vertex w's residual degree by one (an incident
  /// edge died); returns the new degree. Each concurrent decrement
  /// observes a distinct value, so (w, new_degree) records are unique.
  index_t drop_degree_atomic(index_t w);

  /// Settle live counts and deletion stats after bulk phases erased
  /// `vertices` vertices and `edges` edges via the mark_*_bulk
  /// primitives. Serial (driver) code only.
  void note_bulk_erase(index_t vertices, index_t edges);

 private:
  void mark_vertex_dead(index_t v);
  void mark_edge_dead(index_t f);

  const Hypergraph* h_;
  std::vector<char> vertex_alive_;
  std::vector<char> edge_alive_;
  std::vector<index_t> vertex_degree_;  // live incident edges
  std::vector<index_t> edge_size_;      // live member vertices
  index_t live_vertices_ = 0;
  index_t live_edges_ = 0;
  index_t level_ = 0;
  PeelStats* stats_ = nullptr;
  std::vector<index_t>* vertex_core_ = nullptr;
  std::vector<index_t>* edge_core_ = nullptr;
};

}  // namespace hp::hyper
