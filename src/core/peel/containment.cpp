#include "core/peel/containment.hpp"

#include <algorithm>
#include <atomic>

#include "par/thread_pool.hpp"

namespace hp::hyper {

std::vector<index_t> find_non_maximal(const ResidualHypergraph& residual,
                                      std::span<const index_t> candidates,
                                      PeelStats* stats) {
  const Hypergraph& h = residual.base();
  // Atomic because duplicate candidates may mark the same edge from two
  // lanes; every store writes 1, so relaxed ordering is enough.
  std::vector<std::atomic<char>> doomed(h.num_edges());
  const index_t n = static_cast<index_t>(candidates.size());

  // Per-lane scratch: the overlap-counting sweep needs an |F|-sized
  // count array, reused across every candidate a lane processes.
  struct LaneScratch {
    std::vector<index_t> count;
    std::vector<index_t> seen;
    count_t probes = 0;
  };
  std::vector<LaneScratch> scratch(
      static_cast<std::size_t>(par::ThreadPool::global().thread_count()));

  par::parallel_for(0, n, /*grain=*/8, [&](index_t chunk_begin,
                                           index_t chunk_end, int lane) {
    LaneScratch& s = scratch[static_cast<std::size_t>(lane)];
    if (s.count.empty()) s.count.assign(h.num_edges(), 0);
    for (index_t idx = chunk_begin; idx < chunk_end; ++idx) {
      const index_t f = candidates[idx];
      if (!residual.edge_alive(f)) continue;
      const index_t size_f = residual.edge_size(f);
      if (size_f == 0) {
        doomed[f].store(1, std::memory_order_relaxed);
        ++s.probes;
        continue;
      }
      // Overlap counting restricted to the edges that can still win: a
      // container of f passes through f's first live member, so only
      // those live edges (strictly larger, or equal-sized with a lower
      // id -- identical residual sets keep the lowest id) get counters.
      // A counter survives a member only if that edge holds it too; f
      // is contained once some counter reaches size_f, and maximal as
      // soon as a member leaves no counter standing.
      s.seen.clear();
      bool contained = false;
      index_t matched = 0;  // live members of f swept so far
      for (index_t w : h.vertices_of(f)) {
        if (!residual.vertex_alive(w)) continue;
        index_t survivors = 0;
        for (index_t g : h.edges_of(w)) {
          if (g == f || !residual.edge_alive(g)) continue;
          ++s.probes;
          if (matched == 0) {
            const index_t size_g = residual.edge_size(g);
            if (size_g < size_f || (size_g == size_f && g > f)) continue;
            s.seen.push_back(g);
          } else if (s.count[g] != matched) {
            continue;
          }
          ++s.count[g];
          ++survivors;
        }
        ++matched;
        if (survivors == 0) break;
        if (matched == size_f) {
          contained = true;
          break;
        }
      }
      for (index_t g : s.seen) s.count[g] = 0;
      if (contained) doomed[f].store(1, std::memory_order_relaxed);
    }
  });

  if (stats != nullptr) {
    for (const LaneScratch& s : scratch) stats->containment_probes += s.probes;
  }

  std::vector<index_t> result;
  for (index_t f : candidates) {
    if (doomed[f].load(std::memory_order_relaxed)) result.push_back(f);
  }
  // Candidates may contain duplicates; dedupe.
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

}  // namespace hp::hyper
