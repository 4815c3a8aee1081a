#include "core/soverlap.hpp"

#include <algorithm>

#include "core/overlap.hpp"
#include "graph/graph_algos.hpp"

namespace hp::hyper {

graph::Graph s_intersection_graph(const Hypergraph& h, index_t s) {
  return s_intersection_graph(OverlapTable{h}, s);
}

graph::Graph s_intersection_graph(const OverlapTable& table, index_t s) {
  HP_REQUIRE(s >= 1, "s_intersection_graph: s must be >= 1");
  graph::GraphBuilder builder{table.num_edges()};
  for (index_t f = 0; f < table.num_edges(); ++f) {
    const auto row = table.neighbors(f);
    const auto counts = table.counts(f);
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (f < row[i] && counts[i] >= s) builder.add_edge(f, row[i]);
    }
  }
  return builder.build();
}

index_t SComponents::largest() const {
  HP_REQUIRE(count > 0, "SComponents::largest: no components");
  return static_cast<index_t>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
}

SComponents s_components(const Hypergraph& h, index_t s) {
  return s_components(OverlapTable{h}, s);
}

SComponents s_components(const OverlapTable& table, index_t s) {
  const graph::Graph g = s_intersection_graph(table, s);
  const graph::Components comp = graph::connected_components(g);
  SComponents out;
  out.label = comp.label;
  out.sizes = comp.sizes;
  out.count = comp.count;
  return out;
}

std::vector<index_t> s_distances(const Hypergraph& h, index_t source,
                                 index_t s) {
  HP_REQUIRE(source < h.num_edges(), "s_distances: source out of range");
  const graph::Graph g = s_intersection_graph(h, s);
  return graph::bfs_distances(g, source);
}

SPathSummary s_path_summary(const Hypergraph& h, index_t s) {
  const graph::Graph g = s_intersection_graph(h, s);
  const graph::PathSummary summary = graph::path_summary(g);
  SPathSummary out;
  out.diameter = summary.diameter;
  out.average_length = summary.average_length;
  out.connected_pairs = summary.pairs;
  return out;
}

index_t max_meaningful_s(const Hypergraph& h) {
  return max_meaningful_s(OverlapTable{h});
}

index_t max_meaningful_s(const OverlapTable& table) {
  index_t best = 0;
  for (index_t f = 0; f < table.num_edges(); ++f) {
    for (index_t ov : table.counts(f)) best = std::max(best, ov);
  }
  return best;
}

}  // namespace hp::hyper
