#include "core/projection.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace hp::hyper {

namespace {

/// Two-hop marker sweep over the incidence lists: for each x < n, the
/// distinct z > x reachable as x -> y in out(x) -> z in back(y). Calls
/// visit(x, row, shared), where `row` lists those z (unsorted) and
/// shared[z] counts the y that reach z. O(two-hop work) time, O(n)
/// memory. With out = vertices_of and back = edges_of the rows are the
/// intersection graph (shared[g] = |f ∩ g|); swapped, the clique
/// expansion.
template <typename Out, typename Back, typename Visit>
void for_each_two_hop_row(index_t n, const Out& out, const Back& back,
                          const Visit& visit) {
  std::vector<index_t> mark(n, kInvalidIndex);  // last x that reached z
  std::vector<index_t> shared(n, 0);
  std::vector<index_t> row;
  for (index_t x = 0; x < n; ++x) {
    row.clear();
    for (index_t y : out(x)) {
      const auto targets = back(y);  // sorted, contains x
      for (auto it = std::upper_bound(targets.begin(), targets.end(), x);
           it != targets.end(); ++it) {
        if (mark[*it] != x) {
          mark[*it] = x;
          shared[*it] = 0;
          row.push_back(*it);
        }
        ++shared[*it];
      }
    }
    visit(x, row, shared);
  }
}

/// Number of rows' entries in a two-hop sweep: the edge count of the
/// graph it walks.
template <typename Out, typename Back>
count_t two_hop_edges(index_t n, const Out& out, const Back& back) {
  count_t edges = 0;
  for_each_two_hop_row(n, out, back,
                       [&](index_t, const std::vector<index_t>& row,
                           const std::vector<index_t>&) {
                         edges += row.size();
                       });
  return edges;
}

/// Edges of star_expansion(h, baits): the distinct star neighbours
/// w > u of each vertex u -- every co-member of a complex u baits, and
/// the bait of every other complex u is in. O(|E|) time, O(|V|) memory.
count_t star_edge_count(const Hypergraph& h,
                        const std::vector<index_t>& baits) {
  std::vector<index_t> mark(h.num_vertices(), kInvalidIndex);
  count_t edges = 0;
  const auto touch = [&](index_t u, index_t w) {
    if (mark[w] != u) {
      mark[w] = u;
      ++edges;
    }
  };
  for (index_t u = 0; u < h.num_vertices(); ++u) {
    for (index_t e : h.edges_of(u)) {
      const index_t bait = baits[e];
      if (bait > u) {
        touch(u, bait);
      } else if (bait == u) {
        const auto members = h.vertices_of(e);
        for (auto it = std::upper_bound(members.begin(), members.end(), u);
             it != members.end(); ++it) {
          touch(u, *it);
        }
      }
    }
  }
  return edges;
}

}  // namespace

graph::Graph clique_expansion(const Hypergraph& h) {
  HP_TRACE_SPAN("projection.clique_expansion");
  graph::GraphBuilder builder{h.num_vertices()};
  for (index_t e = 0; e < h.num_edges(); ++e) {
    const auto members = h.vertices_of(e);
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        builder.add_edge(members[i], members[j]);
      }
    }
  }
  return builder.build();
}

graph::Graph star_expansion(const Hypergraph& h,
                            const std::vector<index_t>& baits) {
  HP_TRACE_SPAN("projection.star_expansion");
  HP_REQUIRE(baits.size() == h.num_edges(),
             "star_expansion: need one bait per hyperedge");
  graph::GraphBuilder builder{h.num_vertices()};
  for (index_t e = 0; e < h.num_edges(); ++e) {
    const index_t bait = baits[e];
    HP_REQUIRE(h.edge_contains(e, bait),
               "star_expansion: bait is not a member of its hyperedge");
    for (index_t v : h.vertices_of(e)) {
      if (v != bait) builder.add_edge(bait, v);
    }
  }
  return builder.build();
}

std::vector<index_t> default_baits(const Hypergraph& h) {
  std::vector<index_t> baits(h.num_edges());
  for (index_t e = 0; e < h.num_edges(); ++e) {
    index_t best = h.vertices_of(e).front();
    for (index_t v : h.vertices_of(e)) {
      if (h.vertex_degree(v) > h.vertex_degree(best)) best = v;
    }
    baits[e] = best;
  }
  return baits;
}

graph::Graph intersection_graph(const Hypergraph& h,
                                std::vector<index_t>* weights_out) {
  HP_TRACE_SPAN("projection.intersection_graph");
  // Rows come in f order and each is sorted before it is emitted, so the
  // pairs -- and the weights -- follow (u, v)-sorted order.
  graph::GraphBuilder builder{h.num_edges()};
  if (weights_out != nullptr) weights_out->clear();
  for_each_two_hop_row(
      h.num_edges(), [&](index_t f) { return h.vertices_of(f); },
      [&](index_t v) { return h.edges_of(v); },
      [&](index_t f, std::vector<index_t>& row,
          const std::vector<index_t>& shared) {
        std::sort(row.begin(), row.end());
        for (index_t g : row) {
          builder.add_edge(f, g);
          if (weights_out != nullptr) weights_out->push_back(shared[g]);
        }
      });
  return builder.build();
}

graph::Graph bipartite_graph(const Hypergraph& h) {
  HP_TRACE_SPAN("projection.bipartite_graph");
  graph::GraphBuilder builder{h.num_vertices() + h.num_edges()};
  for (index_t e = 0; e < h.num_edges(); ++e) {
    for (index_t v : h.vertices_of(e)) {
      builder.add_edge(v, h.num_vertices() + e);
    }
  }
  return builder.build();
}

RepresentationCosts representation_costs(const Hypergraph& h) {
  HP_TRACE_SPAN("projection.representation_costs");
  RepresentationCosts costs;
  costs.hypergraph_bytes = h.storage_bytes();
  costs.hypergraph_pins = h.num_pins();

  const auto members = [&](index_t e) { return h.vertices_of(e); };
  const auto incidences = [&](index_t v) { return h.edges_of(v); };
  costs.clique_edges = two_hop_edges(h.num_vertices(), incidences, members);
  costs.clique_bytes =
      graph::Graph::csr_bytes(h.num_vertices(), costs.clique_edges);

  costs.star_edges = star_edge_count(h, default_baits(h));
  costs.star_bytes = graph::Graph::csr_bytes(h.num_vertices(), costs.star_edges);

  costs.intersection_edges = two_hop_edges(h.num_edges(), members, incidences);
  costs.intersection_bytes =
      graph::Graph::csr_bytes(h.num_edges(), costs.intersection_edges);
  return costs;
}

}  // namespace hp::hyper
