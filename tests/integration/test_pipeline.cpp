// End-to-end integration tests: run the full paper pipeline (surrogate
// dataset -> properties -> k-core -> enrichment -> covers -> TAP
// reliability) and cross-check the modules against each other.
#include <gtest/gtest.h>

#include "bio/annotations.hpp"
#include "bio/bait.hpp"
#include "bio/cellzome_synth.hpp"
#include "bio/complex_io.hpp"
#include "bio/enrichment.hpp"
#include "bio/tap_sim.hpp"
#include "core/hypergraph_io.hpp"
#include "core/kcore.hpp"
#include "core/kcore_naive.hpp"
#include "core/projection.hpp"
#include "core/reduce.hpp"
#include "core/stats.hpp"
#include "core/traversal.hpp"
#include "graph/graph_algos.hpp"
#include "graph/graph_generators.hpp"
#include "graph/graph_kcore.hpp"
#include "mm/mm_synth.hpp"
#include "mm/mm_to_hypergraph.hpp"
#include "par/thread_pool.hpp"

namespace hp {
namespace {

const bio::ComplexDataset& dataset() {
  static const bio::ComplexDataset data = bio::cellzome_surrogate();
  return data;
}

TEST(Pipeline, SurrogateSurvivesIoRoundTrip) {
  const auto& d = dataset();
  // Complex-table round trip preserves structure and names.
  const bio::ComplexDataset back =
      bio::parse_complex_table(bio::format_complex_table(d));
  EXPECT_EQ(back.hypergraph.num_pins(), d.hypergraph.num_pins());
  // Raw hypergraph text round trip is exact.
  EXPECT_EQ(hyper::from_text(hyper::to_text(d.hypergraph)), d.hypergraph);
}

TEST(Pipeline, PropertiesAreInThePaperBand) {
  const auto& h = dataset().hypergraph;
  const hyper::HypergraphSummary s = hyper::summarize(h);
  EXPECT_EQ(s.num_vertices, 1361u);
  EXPECT_EQ(s.num_edges, 232u);
  EXPECT_EQ(s.max_vertex_degree, 21u);

  const hyper::HyperPathSummary paths = hyper::path_summary(h);
  // Paper: diameter 6, average 2.568. A calibrated surrogate lands in a
  // modest band around those values.
  EXPECT_GE(paths.diameter, 3u);
  EXPECT_LE(paths.diameter, 10u);
  EXPECT_GT(paths.average_length, 1.5);
  EXPECT_LT(paths.average_length, 4.5);
}

TEST(Pipeline, AllThreeCoreImplementationsAgreeOnTheSurrogate) {
  // The engine on all lanes, the engine on one lane, and the naive
  // set-comparison reference: identical in every field.
  const auto& h = dataset().hypergraph;
  const hyper::HyperCoreResult fast = hyper::core_decomposition(h);
  const hyper::HyperCoreResult serial = [&] {
    par::LaneLimit one{1};
    return hyper::core_decomposition(h);
  }();
  const hyper::HyperCoreResult naive = hyper::core_decomposition_naive(h);
  for (const hyper::HyperCoreResult* other : {&serial, &naive}) {
    EXPECT_EQ(fast.vertex_core, other->vertex_core);
    EXPECT_EQ(fast.edge_core, other->edge_core);
    EXPECT_EQ(fast.in_reduced, other->in_reduced);
    EXPECT_EQ(fast.max_core, other->max_core);
    EXPECT_EQ(fast.level_vertices, other->level_vertices);
    EXPECT_EQ(fast.level_edges, other->level_edges);
  }
}

TEST(Pipeline, CoreProteomeEnrichment) {
  const auto& d = dataset();
  const hyper::HyperCoreResult cores =
      hyper::core_decomposition(d.hypergraph);
  const auto core = cores.core_vertices(cores.max_core);
  ASSERT_FALSE(core.empty());

  Rng rng{2004};
  const bio::AnnotationSet ann = bio::simulate_annotations(
      d.hypergraph.num_vertices(), core, {}, rng);
  const bio::CoreProteomeReport report =
      bio::core_proteome_report(core, ann);
  // The paper's qualitative claim: the core proteome is enriched in
  // essential and homologous proteins.
  EXPECT_GT(report.essential_enrichment.fold_enrichment, 1.5);
  EXPECT_LT(report.essential_enrichment.p_value, 0.01);
  EXPECT_GT(report.homolog_enrichment.fold_enrichment, 1.2);
}

TEST(Pipeline, CoverLadderMatchesPaperOrdering) {
  const auto& h = dataset().hypergraph;
  const bio::BaitSelection unit =
      bio::select_baits(h, bio::BaitStrategy::kMinCardinality);
  const bio::BaitSelection deg2 =
      bio::select_baits(h, bio::BaitStrategy::kDegreeSquared);
  const bio::BaitSelection twice =
      bio::select_baits(h, bio::BaitStrategy::kDoubleCoverage);

  // Paper ordering: 109 < 233 < 558 proteins; avg degree 3.7 > 1.14.
  EXPECT_LT(unit.baits.size(), deg2.baits.size());
  EXPECT_LT(deg2.baits.size(), twice.baits.size());
  EXPECT_GT(unit.average_degree, deg2.average_degree);
  EXPECT_TRUE(hyper::is_vertex_cover(h, unit.baits));
  EXPECT_TRUE(hyper::is_vertex_cover(h, deg2.baits));
  EXPECT_EQ(twice.excluded_complexes.size(), 3u);  // the 3 singletons
}

TEST(Pipeline, TapReliabilityImprovesWithMulticover) {
  const auto& h = dataset().hypergraph;
  const bio::BaitSelection unit =
      bio::select_baits(h, bio::BaitStrategy::kMinCardinality);
  const bio::BaitSelection twice =
      bio::select_baits(h, bio::BaitStrategy::kDoubleCoverage);
  Rng rng{70};
  const bio::TapSimParams params{0.7, 100};
  const bio::TapSimResult single =
      bio::simulate_tap(h, unit.baits, params, rng);
  const bio::TapSimResult doubled =
      bio::simulate_tap(h, twice.baits, params, rng);
  EXPECT_GT(doubled.mean_recovered_fraction,
            single.mean_recovered_fraction);
}

TEST(Pipeline, ProjectionsAgreeOnConnectivity) {
  const auto& h = dataset().hypergraph;
  const hyper::HyperComponents hyper_comp = hyper::connected_components(h);
  const graph::Components clique_comp =
      graph::connected_components(hyper::clique_expansion(h));
  // Vertices connected in the hypergraph are connected in the clique
  // expansion and vice versa (isolated vertices are their own
  // components in both).
  for (index_t u = 0; u < h.num_vertices(); ++u) {
    for (index_t v : {index_t{0}, index_t{100}, index_t{700}}) {
      const bool same_h =
          hyper_comp.vertex_label[u] == hyper_comp.vertex_label[v];
      const bool same_g = clique_comp.label[u] == clique_comp.label[v];
      EXPECT_EQ(same_h, same_g) << u << " vs " << v;
    }
  }
}

TEST(Pipeline, MatrixMarketHypergraphCoreRuns) {
  Rng rng{11};
  const mm::CooMatrix matrix = mm::synthesize_stiffness(300, 6, 250, rng);
  const hyper::Hypergraph h = mm::row_net_hypergraph(matrix);
  const hyper::HyperCoreResult cores = hyper::core_decomposition(h);
  EXPECT_GT(cores.max_core, 0u);
  const hyper::SubHypergraph core =
      hyper::extract_core(h, cores, cores.max_core);
  EXPECT_TRUE(
      hyper::satisfies_core_conditions(core.hypergraph, cores.max_core));
}

TEST(Pipeline, GraphCoreOnPpiSurrogateIsDeeperThanHypergraphCore) {
  // Section 3's comparison: DIP yeast PPI graph max core (k = 10) is
  // deeper than the protein-complex hypergraph's (k = 6). Reproduce the
  // qualitative relation on matched surrogates.
  Rng rng{12};
  const auto weights = graph::power_law_weights(2000, 2.4, 9.0);
  const graph::Graph ppi = graph::generate_chung_lu(weights, rng);
  const graph::CoreDecomposition gcores = graph::core_decomposition(ppi);

  const hyper::HyperCoreResult hcores =
      hyper::core_decomposition(dataset().hypergraph);
  EXPECT_GT(gcores.max_core, hcores.max_core);
}

}  // namespace
}  // namespace hp
