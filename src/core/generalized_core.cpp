#include "core/generalized_core.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/peel/residual.hpp"
#include "util/lazy_heap.hpp"

namespace hp::hyper {

namespace {

/// Measure policy on top of the shared residual substrate: the
/// substrate tracks alive vertices and residual edge sizes; this
/// evaluates the chosen vertex measure against that state.
struct MeasurePolicy {
  const Hypergraph& h;
  const ResidualHypergraph& residual;
  CoreMeasure measure;

  double evaluate(index_t v) const {
    switch (measure) {
      case CoreMeasure::kDegree: {
        // Incident edges still connecting v to at least one live
        // co-member.
        index_t degree = 0;
        for (index_t e : h.edges_of(v)) {
          if (residual.edge_size(e) >= 2) ++degree;
        }
        return static_cast<double>(degree);
      }
      case CoreMeasure::kPinWeight: {
        // Per incident edge: live co-members normalized by the edge's
        // full co-member count; 1.0 for an intact edge, shrinking to 0
        // as the complex empties around v.
        double total = 0.0;
        for (index_t e : h.edges_of(v)) {
          const index_t full = h.edge_size(e);
          if (full < 2) continue;
          total += static_cast<double>(residual.edge_size(e) - 1) /
                   static_cast<double>(full - 1);
        }
        return total;
      }
      case CoreMeasure::kNeighborhood: {
        std::vector<index_t> seen;
        for (index_t e : h.edges_of(v)) {
          for (index_t w : h.vertices_of(e)) {
            if (w != v && residual.vertex_alive(w)) seen.push_back(w);
          }
        }
        std::sort(seen.begin(), seen.end());
        seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
        return static_cast<double>(seen.size());
      }
    }
    return 0.0;
  }
};

/// Remove v on the substrate and return the live vertices whose measure
/// may have changed (the live co-members of v's edges).
std::vector<index_t> remove_vertex(ResidualHypergraph& residual,
                                   index_t v) {
  std::vector<index_t> touched;
  residual.erase_vertex(v, touched);
  std::vector<index_t> affected;
  for (index_t e : touched) {
    for (index_t w : residual.base().vertices_of(e)) {
      if (residual.vertex_alive(w)) affected.push_back(w);
    }
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  return affected;
}

}  // namespace

std::vector<double> measure_values(const Hypergraph& h,
                                   CoreMeasure measure) {
  const ResidualHypergraph residual{h};
  const MeasurePolicy policy{h, residual, measure};
  std::vector<double> values(h.num_vertices());
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    values[v] = policy.evaluate(v);
  }
  return values;
}

GeneralizedCoreResult generalized_core(const Hypergraph& h,
                                       CoreMeasure measure,
                                       PeelStats* stats) {
  GeneralizedCoreResult result;
  const index_t n = h.num_vertices();
  result.value.assign(n, 0.0);
  if (n == 0) return result;

  PeelStats local;
  ResidualHypergraph residual{h};
  residual.bind_stats(&local);
  const MeasurePolicy policy{h, residual, measure};
  std::vector<double> current(n);
  // Lazy frontier in measure space: measures only fall, and every change
  // pushes a fresh entry, so the shared lazy-deletion queue (seeded with
  // every vertex) drops the superseded snapshots at pop time (counted as
  // frontier_wasted) instead of locating entries to update. Ties break
  // toward the lower vertex id.
  std::vector<LazyMinHeap::Entry> initial(n);
  for (index_t v = 0; v < n; ++v) {
    current[v] = policy.evaluate(v);
    initial[v] = {current[v], v};
  }
  LazyMinHeap heap{std::move(initial)};

  double running_max = 0.0;
  while (residual.live_vertices() > 0) {
    const index_t v = heap.pop_current(
        [&](index_t w) { return current[w]; },
        [&](index_t w) { return residual.vertex_alive(w); });
    running_max = std::max(running_max, current[v]);
    result.value[v] = running_max;
    for (index_t w : remove_vertex(residual, v)) {
      const double fresh = policy.evaluate(w);
      if (fresh != current[w]) {
        current[w] = fresh;
        heap.push(w, fresh);
      }
    }
  }
  result.max_value = running_max;
  local.frontier_pushes += heap.pushes();
  local.frontier_wasted += heap.discarded();
  if (stats != nullptr) *stats += local;
  return result;
}

GeneralizedCoreResult generalized_core(const Hypergraph& h,
                                       CoreMeasure measure) {
  return generalized_core(h, measure, nullptr);
}

std::vector<index_t> GeneralizedCoreResult::core_vertices(double t) const {
  std::vector<index_t> out;
  for (index_t v = 0; v < value.size(); ++v) {
    if (value[v] >= t) out.push_back(v);
  }
  return out;
}

}  // namespace hp::hyper
