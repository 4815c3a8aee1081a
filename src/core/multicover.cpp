#include "core/multicover.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/peel/residual.hpp"
#include "util/lazy_heap.hpp"

namespace hp::hyper {

MulticoverResult greedy_multicover(const Hypergraph& h,
                                   const std::vector<double>& weights,
                                   const std::vector<index_t>& requirements) {
  HP_REQUIRE(weights.size() == h.num_vertices(),
             "greedy_multicover: weight vector size mismatch");
  HP_REQUIRE(requirements.size() == h.num_edges(),
             "greedy_multicover: requirements size mismatch");
  for (double w : weights) {
    HP_REQUIRE(w >= 0.0, "greedy_multicover: negative weight");
  }

  MulticoverResult result;
  // Residual demand per edge, clamped to cardinality (>= 1 always, so
  // every edge starts alive on the substrate).
  std::vector<index_t> demand(h.num_edges());
  for (index_t e = 0; e < h.num_edges(); ++e) {
    HP_REQUIRE(requirements[e] >= 1,
               "greedy_multicover: requirement must be >= 1");
    demand[e] = std::min<index_t>(requirements[e], h.edge_size(e));
    if (demand[e] != requirements[e]) result.clamped_edges.push_back(e);
  }

  // Substrate mapping: an edge is alive while its demand is positive;
  // a vertex's usefulness (adjacent edges still demanding coverage) is
  // then exactly its residual degree. Chosen vertices stay alive -- a
  // cover vertex remains inside its edges -- so only the edge-deletion
  // half of the substrate is exercised.
  ResidualHypergraph residual{h};
  std::vector<bool> chosen(h.num_vertices(), false);

  std::vector<LazyMinHeap::Entry> initial;
  initial.reserve(h.num_vertices());
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    if (residual.vertex_degree(v) > 0) {
      initial.push_back(
          {weights[v] / static_cast<double>(residual.vertex_degree(v)), v});
    }
  }
  LazyMinHeap heap{std::move(initial)};

  const auto current_key = [&](index_t v) {
    const index_t useful = residual.vertex_degree(v);
    return useful > 0 ? weights[v] / static_cast<double>(useful)
                      : std::numeric_limits<double>::infinity();
  };
  const auto still_live = [&](index_t v) {
    return !chosen[v] && residual.vertex_degree(v) > 0;
  };

  while (residual.live_edges() > 0) {
    const index_t v = heap.pop_current(current_key, still_live);
    chosen[v] = true;
    result.vertices.push_back(v);
    result.total_weight += weights[v];
    for (index_t e : h.edges_of(v)) {
      if (!residual.edge_alive(e)) continue;
      --demand[e];
      if (demand[e] == 0) {
        // Edge satisfied: delete it from the residual so it stops
        // contributing to anyone's usefulness (degree maintenance is
        // the substrate's job; the lazy heap re-keys on pop).
        residual.erase_edge(e);
      } else {
        // Edge still demands more vertices, but v itself can no longer
        // contribute to it (a vertex hits an edge at most once); v is
        // chosen, so its usefulness is moot anyway.
      }
    }
  }

  result.average_degree = average_degree(h, result.vertices);
  return result;
}

MulticoverResult greedy_multicover(const Hypergraph& h,
                                   const std::vector<double>& weights,
                                   index_t r) {
  return greedy_multicover(h, weights,
                           std::vector<index_t>(h.num_edges(), r));
}

std::vector<double> cover_weights(const Hypergraph& h, CoverWeights weights) {
  return weights == CoverWeights::kUnit ? unit_weights(h)
                                        : degree_squared_weights(h);
}

bool is_multicover(const Hypergraph& h, const std::vector<index_t>& cover,
                   const std::vector<index_t>& requirements) {
  HP_REQUIRE(requirements.size() == h.num_edges(),
             "is_multicover: requirements size mismatch");
  std::vector<bool> in_cover(h.num_vertices(), false);
  for (index_t v : cover) {
    HP_REQUIRE(v < h.num_vertices(), "is_multicover: vertex out of range");
    in_cover[v] = true;
  }
  for (index_t e = 0; e < h.num_edges(); ++e) {
    index_t hits = 0;
    for (index_t v : h.vertices_of(e)) {
      if (in_cover[v]) ++hits;
    }
    const index_t need = std::min<index_t>(requirements[e], h.edge_size(e));
    if (hits < need) return false;
  }
  return true;
}

}  // namespace hp::hyper
