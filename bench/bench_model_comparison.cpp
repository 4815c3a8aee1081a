// Section 1.2/1.3 reproduction: the storage and fidelity argument for
// the hypergraph model against the two baseline graph representations.
//
// Paper claims:
//   * a complex of n proteins costs O(n) in the hypergraph but O(n^2)
//     edges in the clique-expanded protein interaction graph;
//   * a protein in m complexes generates O(m^2) edges in the complex
//     intersection graph;
//   * clique expansion produces "unusually high clustering coefficients"
//     (citing Maslov-Sneppen-Alon).
//
// We measure all three on the Cellzome surrogate and on a sweep of
// synthetic datasets with growing complex sizes.
//
// Usage: bench_model_comparison [--seed N]
#include <cstdio>

#include "bio/cellzome_synth.hpp"
#include "core/projection.hpp"
#include "graph/graph_stats.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

void cost_row(hp::Table& t, const char* name, const hp::hyper::Hypergraph& h) {
  const hp::hyper::RepresentationCosts c = hp::hyper::representation_costs(h);
  t.row()
      .cell(name)
      .cell(static_cast<std::uint64_t>(c.hypergraph_pins))
      .cell(static_cast<std::uint64_t>(c.clique_edges))
      .cell(static_cast<std::uint64_t>(c.star_edges))
      .cell(static_cast<std::uint64_t>(c.intersection_edges))
      .cell(static_cast<std::uint64_t>(c.hypergraph_bytes))
      .cell(static_cast<std::uint64_t>(c.clique_bytes));
}

}  // namespace

int main(int argc, char** argv) {
  const hp::Args args{argc, argv};
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 20040426));

  hp::bio::CellzomeParams params;
  params.seed = seed;
  const hp::hyper::Hypergraph h = hp::bio::cellzome_surrogate(params).hypergraph;

  std::puts(
      "=== Model comparison: hypergraph vs graph representations ===\n");
  {
    hp::Table t{{"dataset", "hypergraph pins", "clique edges", "star edges",
                 "intersection edges", "hypergraph bytes", "clique bytes"}};
    cost_row(t, "cellzome", h);

    // Sweep: one complex of growing size n; clique cost grows as n^2.
    for (hp::index_t n : {10u, 20u, 40u, 80u}) {
      hp::hyper::HypergraphBuilder b{n};
      std::vector<hp::index_t> all(n);
      for (hp::index_t i = 0; i < n; ++i) all[i] = i;
      b.add_edge(all);
      char name[32];
      std::snprintf(name, sizeof name, "1 complex of %u", n);
      cost_row(t, name, b.build());
    }

    // Sweep: one protein in m complexes; intersection cost grows as m^2.
    for (hp::index_t m : {5u, 10u, 20u}) {
      hp::hyper::HypergraphBuilder b{m + 1};
      for (hp::index_t e = 0; e < m; ++e) {
        b.add_edge({0, static_cast<hp::index_t>(e + 1)});
      }
      char name[32];
      std::snprintf(name, sizeof name, "1 protein in %u", m);
      cost_row(t, name, b.build());
    }
    t.print();
  }

  // Clustering-coefficient inflation from clique expansion: the one
  // table that needs the graphs themselves, so it builds them here (the
  // costs above were counted without them).
  std::puts("\n--- Clustering coefficient inflation (Maslov et al.) ---");
  {
    const hp::graph::Graph clique = hp::hyper::clique_expansion(h);
    const hp::graph::Graph star =
        hp::hyper::star_expansion(h, hp::hyper::default_baits(h));
    hp::Table t{{"protein interaction model", "avg clustering coeff",
                 "transitivity"}};
    t.row()
        .cell("clique expansion")
        .cell(hp::graph::average_clustering_coefficient(clique), 3)
        .cell(hp::graph::transitivity(clique), 3);
    t.row()
        .cell("star expansion (bait model)")
        .cell(hp::graph::average_clustering_coefficient(star), 3)
        .cell(hp::graph::transitivity(star), 3);
    t.print();
    std::puts(
        "\nclique expansion manufactures near-1 clustering by construction "
        "-- the artifact the paper (citing Maslov/Sneppen/Alon) warns "
        "about; the hypergraph stores the same information in O(sum |f|).");
  }
  return 0;
}
