// One-call reproduction report: computes every quantity the paper's
// evaluation reports for a protein-complex dataset, with the published
// Cellzome values attached for side-by-side display.
//
// This is the library form of what the bench_* binaries print; it lets
// downstream users run the complete analysis on their own catalog
// (`hyperproteome report data.tsv`) and programmatically consume the
// numbers.
#pragma once

#include <optional>
#include <string>

#include "bio/complex_io.hpp"
#include "core/context/analysis_context.hpp"
#include "core/kcore.hpp"
#include "core/stats.hpp"
#include "core/traversal.hpp"
#include "util/linreg.hpp"

namespace hp::bio {

struct PaperReport {
  // Section 2.
  hyper::HypergraphSummary summary;
  hyper::HyperPathSummary paths;
  /// nullopt when every protein (complex) shares one degree (size):
  /// a single point has no slope to fit.
  std::optional<PowerLawFit> degree_fit;
  std::optional<hyper::EdgeSizeFits> size_fits;
  // Section 3.
  index_t max_core = 0;
  index_t core_proteins = 0;
  index_t core_complexes = 0;
  double core_seconds = 0.0;
  // Section 4.
  count_t cover_unit_size = 0;
  double cover_unit_degree = 0.0;
  count_t cover_deg2_size = 0;
  double cover_deg2_degree = 0.0;
  count_t multicover_size = 0;
  double multicover_degree = 0.0;
  count_t multicover_excluded = 0;
};

/// The paper's published values for the Cellzome dataset, for
/// side-by-side rendering (fields without a published number are
/// nullopt).
struct PaperReference {
  static PaperReference cellzome();

  std::optional<index_t> num_vertices, num_edges, components,
      degree_one_vertices, max_vertex_degree, diameter;
  std::optional<double> average_path, gamma, log10_c, r_squared;
  std::optional<index_t> max_core, core_proteins, core_complexes;
  std::optional<count_t> cover_unit_size, cover_deg2_size, multicover_size;
  std::optional<double> cover_unit_degree, cover_deg2_degree,
      multicover_degree;
};

/// Run the complete analysis (components, all-pairs paths, fits, core
/// decomposition, the three covers) against a shared artifact cache:
/// summary, paths, histograms, and the core decomposition are taken from
/// the context, so a caller that already touched them (e.g. the CLI)
/// pays for each exactly once.
PaperReport analyze(const hyper::AnalysisContext& context);

/// Convenience overload: runs against a fresh private context.
PaperReport analyze(const hyper::Hypergraph& h);

/// Render a side-by-side table ("quantity | paper | measured"); pass
/// PaperReference::cellzome() for the Cellzome columns or a default
/// reference for blank paper cells.
std::string render_report(const PaperReport& report,
                          const PaperReference& reference);

}  // namespace hp::bio
