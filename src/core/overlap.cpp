#include "core/overlap.hpp"

#include <algorithm>

namespace hp::hyper {

OverlapTable::OverlapTable(const Hypergraph& h) {
  const index_t ne = h.num_edges();
  offsets_.reserve(static_cast<std::size_t>(ne) + 1);
  offsets_.push_back(0);

  // Per-row accumulation: count, over f's members, how often each other
  // incident edge appears; that multiplicity is |f ∩ g|. The scratch
  // counter array is cleared via the `seen` list, keeping each row
  // O(sum_{v in f} d(v)).
  std::vector<index_t> scratch(ne, 0);
  std::vector<index_t> seen;
  for (index_t f = 0; f < ne; ++f) {
    seen.clear();
    for (index_t v : h.vertices_of(f)) {
      for (index_t g : h.edges_of(v)) {
        if (g == f) continue;
        if (scratch[g] == 0) seen.push_back(g);
        ++scratch[g];
      }
    }
    std::sort(seen.begin(), seen.end());
    for (index_t g : seen) {
      neighbors_.push_back(g);
      counts_.push_back(scratch[g]);
      scratch[g] = 0;
    }
    offsets_.push_back(neighbors_.size());
  }
}

index_t OverlapTable::overlap(index_t f, index_t g) const {
  const auto row = neighbors(f);
  const auto it = std::lower_bound(row.begin(), row.end(), g);
  if (it == row.end() || *it != g) return 0;  // disjoint, or f == g
  return counts(f)[static_cast<std::size_t>(it - row.begin())];
}

index_t OverlapTable::max_degree2() const {
  index_t best = 0;
  for (index_t f = 0; f < num_edges(); ++f) {
    best = std::max(best, degree2(f));
  }
  return best;
}

std::vector<index_t> vertex_degree2(const Hypergraph& h) {
  std::vector<index_t> d2(h.num_vertices(), 0);
  std::vector<index_t> scratch;
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    scratch.clear();
    for (index_t e : h.edges_of(v)) {
      for (index_t w : h.vertices_of(e)) {
        if (w != v) scratch.push_back(w);
      }
    }
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    d2[v] = static_cast<index_t>(scratch.size());
  }
  return d2;
}

}  // namespace hp::hyper
