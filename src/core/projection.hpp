// The two baseline graph models the paper argues against (section 1.2),
// plus the bipartite drawing graph of Fig. 3.
//
//  * Protein-protein interaction graph, clique variant: every pair of
//    proteins in a complex is joined -- O(n^2) edges per complex.
//  * Protein-protein interaction graph, star variant: the complex's bait
//    protein is joined to every other member.
//  * Complex intersection graph: complexes are vertices; two complexes
//    are adjacent when they share >= 1 protein (optionally weighted by
//    the overlap size). A protein in m complexes creates O(m^2) edges.
//  * Bipartite graph B(H): proteins 0..|V|-1, complexes |V|..|V|+|F|-1.
//
// representation_costs() counts each projection's edges and storage
// without building it, so bench_model_comparison can reproduce the
// paper's space argument quantitatively.
#pragma once

#include <vector>

#include "core/hypergraph.hpp"
#include "graph/graph.hpp"

namespace hp::hyper {

/// Clique expansion: all pairs within each hyperedge.
graph::Graph clique_expansion(const Hypergraph& h);

/// Star expansion: baits[e] is the designated bait protein of hyperedge
/// e and must be a member. Edges of size 1 contribute nothing.
graph::Graph star_expansion(const Hypergraph& h,
                            const std::vector<index_t>& baits);

/// Default bait choice: each hyperedge's highest-degree member (a proxy
/// for "the protein most likely to have been used as bait").
std::vector<index_t> default_baits(const Hypergraph& h);

/// Complex intersection graph over hyperedges. If `weights_out` is
/// non-null it receives, for each graph edge in (u, v)-sorted order, the
/// number of shared vertices.
graph::Graph intersection_graph(const Hypergraph& h,
                                std::vector<index_t>* weights_out = nullptr);

/// Bipartite incidence graph B(H).
graph::Graph bipartite_graph(const Hypergraph& h);

/// Storage comparison of the four representations for one hypergraph.
struct RepresentationCosts {
  std::size_t hypergraph_bytes = 0;
  std::size_t clique_bytes = 0;
  std::size_t star_bytes = 0;
  std::size_t intersection_bytes = 0;
  count_t hypergraph_pins = 0;
  count_t clique_edges = 0;
  count_t star_edges = 0;
  count_t intersection_edges = 0;
};

/// Edge counts and CSR bytes of the clique, star (default baits) and
/// intersection graphs, counted by marker-array sweeps without building
/// them: O(Σ_e |e|² + Σ_v deg(v)²) time, O(|V| + |F|) memory. Equal to
/// num_edges()/storage_bytes() of the materialized projections.
RepresentationCosts representation_costs(const Hypergraph& h);

}  // namespace hp::hyper
