#include "core/cover.hpp"

#include <utility>

#include "core/multicover.hpp"

namespace hp::hyper {

std::vector<double> unit_weights(const Hypergraph& h) {
  return std::vector<double>(h.num_vertices(), 1.0);
}

std::vector<double> degree_squared_weights(const Hypergraph& h) {
  std::vector<double> w(h.num_vertices());
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    const double d = static_cast<double>(h.vertex_degree(v));
    w[v] = d * d;
  }
  return w;
}

CoverResult greedy_vertex_cover(const Hypergraph& h,
                                const std::vector<double>& weights) {
  // Fig. 5 is the multicover loop with every requirement 1.
  MulticoverResult cover = greedy_multicover(h, weights, 1);
  const double hm = harmonic(h.num_edges());
  return {.vertices = std::move(cover.vertices),
          .total_weight = cover.total_weight,
          .average_degree = cover.average_degree,
          .lower_bound = hm > 0.0 ? cover.total_weight / hm : 0.0};
}

bool is_vertex_cover(const Hypergraph& h, const std::vector<index_t>& cover) {
  std::vector<bool> in_cover(h.num_vertices(), false);
  for (index_t v : cover) {
    HP_REQUIRE(v < h.num_vertices(), "is_vertex_cover: vertex out of range");
    in_cover[v] = true;
  }
  for (index_t e = 0; e < h.num_edges(); ++e) {
    bool hit = false;
    for (index_t v : h.vertices_of(e)) {
      if (in_cover[v]) {
        hit = true;
        break;
      }
    }
    if (!hit) return false;
  }
  return true;
}

double average_degree(const Hypergraph& h, const std::vector<index_t>& set) {
  if (set.empty()) return 0.0;
  double sum = 0.0;
  for (index_t v : set) sum += static_cast<double>(h.vertex_degree(v));
  return sum / static_cast<double>(set.size());
}

double harmonic(index_t m) {
  double sum = 0.0;
  for (index_t i = 1; i <= m; ++i) sum += 1.0 / static_cast<double>(i);
  return sum;
}

}  // namespace hp::hyper
