#include "bio/paper_report.hpp"

#include <sstream>

#include "bio/bait.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace hp::bio {

PaperReference PaperReference::cellzome() {
  PaperReference ref;
  ref.num_vertices = 1361;
  ref.num_edges = 232;
  ref.components = 33;
  ref.degree_one_vertices = 846;
  ref.max_vertex_degree = 21;
  ref.diameter = 6;
  ref.average_path = 2.568;
  ref.gamma = 2.528;
  ref.log10_c = 3.161;
  ref.r_squared = 0.963;
  ref.max_core = 6;
  ref.core_proteins = 41;
  ref.core_complexes = 54;
  ref.cover_unit_size = 109;
  ref.cover_unit_degree = 3.7;
  ref.cover_deg2_size = 233;
  ref.cover_deg2_degree = 1.14;
  ref.multicover_size = 558;
  ref.multicover_degree = 1.74;
  return ref;
}

PaperReport analyze(const hyper::Hypergraph& h) {
  const hyper::AnalysisContext context{h};
  return analyze(context);
}

PaperReport analyze(const hyper::AnalysisContext& context) {
  PaperReport report;
  report.summary = context.summary();
  report.paths = context.paths();
  const Histogram& degrees = context.vertex_degree_histogram();
  if (fittable(degrees.frequencies())) {
    report.degree_fit = hyper::vertex_degree_power_law(degrees);
  }
  const Histogram& sizes = context.edge_size_histogram();
  if (fittable(sizes.frequencies())) {
    report.size_fits = hyper::edge_size_fits(sizes);
  }

  const hyper::HyperCoreResult& cores = context.cores();
  // The slot's build time: after prefetch() the read above is a cache
  // hit, and timing it would report nanoseconds.
  report.core_seconds = context.core_build_seconds();
  report.max_core = cores.max_core;
  report.core_proteins =
      static_cast<index_t>(cores.core_vertices(cores.max_core).size());
  report.core_complexes =
      static_cast<index_t>(cores.core_edges(cores.max_core).size());

  const BaitSelection unit =
      select_baits(context, BaitStrategy::kMinCardinality);
  report.cover_unit_size = unit.baits.size();
  report.cover_unit_degree = unit.average_degree;
  const BaitSelection deg2 =
      select_baits(context, BaitStrategy::kDegreeSquared);
  report.cover_deg2_size = deg2.baits.size();
  report.cover_deg2_degree = deg2.average_degree;
  const BaitSelection twice =
      select_baits(context, BaitStrategy::kDoubleCoverage);
  report.multicover_size = twice.baits.size();
  report.multicover_degree = twice.average_degree;
  report.multicover_excluded = twice.excluded_complexes.size();
  return report;
}

namespace {

template <typename T>
std::string opt_cell(const std::optional<T>& value) {
  if (!value.has_value()) return "-";
  if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", *value);
    return buf;
  } else {
    return std::to_string(*value);
  }
}

std::string real_cell(double value, int precision = 3) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

}  // namespace

std::string render_report(const PaperReport& r, const PaperReference& ref) {
  Table t{{"quantity", "paper", "measured"}};
  t.row().cell("proteins |V|").cell(opt_cell(ref.num_vertices)).cell(
      static_cast<std::uint64_t>(r.summary.num_vertices));
  t.row().cell("complexes |F|").cell(opt_cell(ref.num_edges)).cell(
      static_cast<std::uint64_t>(r.summary.num_edges));
  t.row().cell("components").cell(opt_cell(ref.components)).cell(
      static_cast<std::uint64_t>(r.summary.num_components));
  t.row()
      .cell("degree-1 proteins")
      .cell(opt_cell(ref.degree_one_vertices))
      .cell(static_cast<std::uint64_t>(r.summary.degree_one_vertices));
  t.row()
      .cell("max protein degree")
      .cell(opt_cell(ref.max_vertex_degree))
      .cell(static_cast<std::uint64_t>(r.summary.max_vertex_degree));
  t.row().cell("diameter").cell(opt_cell(ref.diameter)).cell(
      static_cast<std::uint64_t>(r.paths.diameter));
  t.row()
      .cell("average path length")
      .cell(opt_cell(ref.average_path))
      .cell(real_cell(r.paths.average_length));
  const auto fit_cell = [&r](double PowerLawFit::*field) {
    return r.degree_fit ? real_cell((*r.degree_fit).*field) : "n/a";
  };
  t.row().cell("power-law gamma").cell(opt_cell(ref.gamma)).cell(
      fit_cell(&PowerLawFit::gamma));
  t.row().cell("power-law log10(c)").cell(opt_cell(ref.log10_c)).cell(
      fit_cell(&PowerLawFit::log10_c));
  t.row().cell("power-law R^2").cell(opt_cell(ref.r_squared)).cell(
      fit_cell(&PowerLawFit::r_squared));
  t.row().cell("maximum core k").cell(opt_cell(ref.max_core)).cell(
      static_cast<std::uint64_t>(r.max_core));
  t.row().cell("core proteins").cell(opt_cell(ref.core_proteins)).cell(
      static_cast<std::uint64_t>(r.core_proteins));
  t.row().cell("core complexes").cell(opt_cell(ref.core_complexes)).cell(
      static_cast<std::uint64_t>(r.core_complexes));
  t.row()
      .cell("min cover size")
      .cell(opt_cell(ref.cover_unit_size))
      .cell(static_cast<std::uint64_t>(r.cover_unit_size));
  t.row()
      .cell("min cover avg degree")
      .cell(opt_cell(ref.cover_unit_degree))
      .cell(real_cell(r.cover_unit_degree, 2));
  t.row()
      .cell("deg^2 cover size")
      .cell(opt_cell(ref.cover_deg2_size))
      .cell(static_cast<std::uint64_t>(r.cover_deg2_size));
  t.row()
      .cell("deg^2 cover avg degree")
      .cell(opt_cell(ref.cover_deg2_degree))
      .cell(real_cell(r.cover_deg2_degree, 2));
  t.row()
      .cell("2-multicover size")
      .cell(opt_cell(ref.multicover_size))
      .cell(static_cast<std::uint64_t>(r.multicover_size));
  t.row()
      .cell("2-multicover avg degree")
      .cell(opt_cell(ref.multicover_degree))
      .cell(real_cell(r.multicover_degree, 2));

  std::ostringstream out;
  out << t.to_string();
  if (r.size_fits) {
    out << "\ncomplex size distribution fits: power R^2 = "
        << real_cell(r.size_fits->power.r_squared) << ", exponential R^2 = "
        << real_cell(r.size_fits->exponential.r_squared)
        << " (the paper reports both as poor)\n";
  } else {
    out << "\ncomplex size distribution fits: n/a (one complex size)\n";
  }
  out << "core decomposition time: " << format_duration(r.core_seconds)
      << '\n';
  return out.str();
}

}  // namespace hp::bio
