#include "core/kcore.hpp"

#include <algorithm>
#include <vector>

#include "core/peel/frontier.hpp"
#include "core/peel/peel.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"

namespace hp::hyper {

namespace {

/// Ids whose core number is at least k, ascending. The count is one
/// vectorizable pass; the fill then skips non-members in a loop that
/// checks no bounds and never reallocates (a query reads this on every
/// request, over all |V| or |F| ids).
std::vector<index_t> ids_at_least(const std::vector<index_t>& core,
                                  index_t k) {
  const auto member = [k](index_t c) { return c >= k; };
  std::vector<index_t> out(static_cast<std::size_t>(
      std::count_if(core.begin(), core.end(), member)));
  index_t id = 0;
  for (index_t& slot : out) {
    while (!member(core[id])) ++id;
    slot = id++;
  }
  return out;
}

}  // namespace

std::vector<index_t> HyperCoreResult::core_vertices(index_t k) const {
  return ids_at_least(vertex_core, k);
}

std::vector<index_t> HyperCoreResult::core_edges(index_t k) const {
  return ids_at_least(edge_core, k);
}

namespace {

/// Chunk size for the bulk erase phases: each item does degree(v) /
/// size(f) work, so a few dozen amortize the chunk-claim fetch_add.
constexpr index_t kEraseGrain = 32;

/// Sort + unique a frontier candidate list in place, charging dropped
/// duplicates to frontier_wasted. Determinism: the surviving order is
/// ascending regardless of which lane produced which entry.
void sort_unique_frontier(std::vector<index_t>& frontier, PeelStats& stats) {
  std::sort(frontier.begin(), frontier.end());
  const auto last = std::unique(frontier.begin(), frontier.end());
  stats.frontier_wasted += static_cast<count_t>(frontier.end() - last);
  frontier.erase(last, frontier.end());
}

}  // namespace

HyperCoreResult core_decomposition(const Hypergraph& h, PeelStats* stats) {
  HP_TRACE_SPAN("kcore.decomposition");
  HyperCoreResult result;
  result.vertex_core.assign(h.num_vertices(), 0);
  result.edge_core.assign(h.num_edges(), 0);

  PeelStats local;
  ResidualHypergraph residual{h};
  residual.bind_stats(&local);
  residual.bind_cores(&result.vertex_core, &result.edge_core);

  // Initial reduction: delete every non-maximal edge, re-seeding the
  // verification sweep from doomed-edge neighborhoods (not a full
  // rescan -- see erase_non_maximal for the fixpoint argument).
  {
    HP_TRACE_SPAN("kcore.initial_reduction");
    residual.set_peel_level(0);
    erase_non_maximal(residual, &local);
  }

  // level 0 = reduced input.
  result.level_vertices.push_back(residual.live_vertices());
  result.level_edges.push_back(residual.live_edges());
  result.in_reduced.assign(h.num_edges(), 0);
  for (index_t e = 0; e < h.num_edges(); ++e) {
    result.in_reduced[e] = residual.edge_alive(e) ? 1 : 0;
  }

  // Buckets are filled with post-reduction degrees (all vertices are
  // live -- reduction deletes only edges); every later drop to a
  // still-above-threshold degree re-enters them, so each level's seed
  // drain is O(drops), not O(|V|).
  index_t max_degree = 0;
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    max_degree = std::max(max_degree, residual.vertex_degree(v));
  }
  FrontierBuckets buckets{max_degree, &local};
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    buckets.push(v, residual.vertex_degree(v));
  }
  const int lanes = par::ThreadPool::global().thread_count();
  EpochStamps edge_stamps{h.num_edges()};
  LaneDropBags drop_bags{lanes};
  std::vector<std::vector<index_t>> touched_bags(
      static_cast<std::size_t>(lanes));

  // Core numbers are stamped by the substrate at deletion time; the
  // level loop only records populations (no survivor sweeps). Each level
  // gets its own span (args.k = level) with the cumulative probe counter
  // interleaved on the trace timeline.
  std::vector<index_t> frontier;
  std::vector<index_t> touched;
  for (index_t k = 1;; ++k) {
    HP_TRACE_SPAN("kcore.peel_level", k);
    residual.set_peel_level(k);
    {
      // Level seeds: drain buckets 0..k-1 and drop stale entries (dead
      // vertices, duplicate hints). A live entry below k is genuinely
      // sub-threshold -- degrees only shrink after the push.
      HP_TRACE_SPAN("peel.frontier", k);
      frontier.clear();
      buckets.drain_below(
          k, [&](index_t v) { return residual.vertex_alive(v); }, frontier);
      sort_unique_frontier(frontier, local);
    }
    // Cascade rounds within this level: remove the whole sub-threshold
    // frontier, then every edge that stopped being maximal.
    while (!frontier.empty()) {
      ++local.peel_rounds;
      local.note_queue_length(frontier.size());

      // Phase A: erase the whole frontier in parallel. Vertices are
      // disjoint per lane; edge sizes shrink atomically; the touched
      // set is deduplicated via epoch stamps into per-lane bags (no
      // edge-alive flag changes happen in this phase, so the alive
      // reads are stable).
      edge_stamps.next_epoch();
      par::parallel_for(
          0, static_cast<index_t>(frontier.size()), kEraseGrain,
          [&](index_t chunk_begin, index_t chunk_end, int lane) {
            std::vector<index_t>& bag =
                touched_bags[static_cast<std::size_t>(lane)];
            for (index_t i = chunk_begin; i < chunk_end; ++i) {
              const index_t v = frontier[i];
              residual.mark_vertex_dead_bulk(v);
              for (index_t f : h.edges_of(v)) {
                if (!residual.edge_alive(f)) continue;
                residual.shrink_edge_atomic(f);
                if (edge_stamps.claim(f)) bag.push_back(f);
              }
            }
          });
      residual.note_bulk_erase(static_cast<index_t>(frontier.size()), 0);
      touched.clear();
      for (std::vector<index_t>& bag : touched_bags) {
        touched.insert(touched.end(), bag.begin(), bag.end());
        bag.clear();
      }

      // Only edges that just shrank can have become non-maximal; among
      // identical residual sets the lowest id survives.
      const std::vector<index_t> doomed =
          find_non_maximal(residual, touched, &local);

      // Phase B: delete the doomed edges in parallel, recording every
      // degree drop in per-lane bags (vertex-alive flags are stable in
      // this phase; degree decrements are atomic, and each decrement
      // observes a distinct new value).
      par::parallel_for(
          0, static_cast<index_t>(doomed.size()), kEraseGrain,
          [&](index_t chunk_begin, index_t chunk_end, int lane) {
            for (index_t i = chunk_begin; i < chunk_end; ++i) {
              const index_t f = doomed[i];
              residual.mark_edge_dead_bulk(f);
              for (index_t w : h.vertices_of(f)) {
                if (!residual.vertex_alive(w)) continue;
                drop_bags.record(lane, w, residual.drop_degree_atomic(w));
              }
            }
          });
      residual.note_bulk_erase(0, static_cast<index_t>(doomed.size()));

      // Route the drops: below threshold feeds the next cascade round,
      // everything else becomes a lazy bucket hint for future levels.
      frontier.clear();
      drop_bags.drain([&](index_t w, index_t degree) {
        if (degree < k) {
          ++local.frontier_pushes;
          frontier.push_back(w);
        } else {
          buckets.push(w, degree);
        }
      });
      sort_unique_frontier(frontier, local);
    }
    obs::trace_counter("peel.containment_probes",
                       static_cast<double>(local.containment_probes));
    if (residual.live_vertices() == 0) {
      result.max_core = k - 1;
      break;
    }
    // Everything still alive is in the k-core.
    result.level_vertices.push_back(residual.live_vertices());
    result.level_edges.push_back(residual.live_edges());
  }
  publish_metrics(local);
  if (stats != nullptr) *stats += local;
  return result;
}

HyperCoreResult core_decomposition(const Hypergraph& h) {
  return core_decomposition(h, nullptr);
}

SubHypergraph extract_core(const Hypergraph& h, const HyperCoreResult& d,
                           index_t k) {
  std::vector<bool> keep_vertex(h.num_vertices());
  std::vector<bool> keep_edge(h.num_edges());
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    keep_vertex[v] = d.vertex_core[v] >= k;
  }
  for (index_t e = 0; e < h.num_edges(); ++e) {
    keep_edge[e] = d.edge_core[e] >= k;
  }
  return induce(h, keep_vertex, keep_edge);
}

bool satisfies_core_conditions(const Hypergraph& core, index_t k) {
  for (index_t v = 0; v < core.num_vertices(); ++v) {
    if (core.vertex_degree(v) < k) return false;
  }
  // Reducedness: no edge contained in another.
  for (index_t f = 0; f < core.num_edges(); ++f) {
    for (index_t g = 0; g < core.num_edges(); ++g) {
      if (f == g) continue;
      const auto fv = core.vertices_of(f);
      const auto gv = core.vertices_of(g);
      if (fv.size() > gv.size()) continue;
      if (std::includes(gv.begin(), gv.end(), fv.begin(), fv.end())) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace hp::hyper
