#include "cli/query.hpp"

#include <charconv>
#include <limits>
#include <ostream>
#include <string_view>

#include "bio/paper_report.hpp"
#include "core/hypergraph_io.hpp"
#include "core/kcore.hpp"
#include "core/smallworld.hpp"
#include "core/soverlap.hpp"
#include "core/stats.hpp"
#include "core/traversal.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace hp::cli {

void maybe_context_stats(const Args& args,
                         const hyper::AnalysisContext& context,
                         std::ostream& out) {
  if (args.get_bool("context-stats", false)) {
    out << '\n' << hyper::to_string(context.stats());
  }
}

namespace {

/// Parse-or-throw a flag that names an index_t: its value must lie in
/// [min, 2^32 - 1]. A plain cast wraps -1 to 2^32 - 1 and 2^32 + 2 to 2.
index_t index_flag(const Args& args, const std::string& name,
                   index_t fallback, index_t min) {
  constexpr std::int64_t kMax = std::numeric_limits<index_t>::max();
  const std::int64_t value = args.get_int(name, fallback);
  if (value < min || value > kMax) {
    throw InvalidInputError{"--" + name + " must be in [" +
                            std::to_string(min) + ", " +
                            std::to_string(kMax) + "], got " +
                            std::to_string(value)};
  }
  return static_cast<index_t>(value);
}

int query_stats(QuerySession& session, const Args& args, std::ostream& out) {
  const hyper::AnalysisContext& ctx = session.context;
  out << hyper::to_string(ctx.summary());
  if (args.get_bool("paths", false)) {
    const hyper::HyperPathSummary& paths = ctx.paths();
    // Shortest round-trip digits: outputs compared byte for byte (the
    // HP_THREADS=1 vs 4 check in scripts/ci.sh) then compare the double.
    char average[32];
    const auto printed =
        std::to_chars(average, average + sizeof average, paths.average_length);
    out << "diameter                  : " << paths.diameter << '\n'
        << "average path length       : "
        << std::string_view{average, printed.ptr} << '\n';
  }
  const Histogram& degrees = ctx.vertex_degree_histogram();
  out << "degree power-law exponent : ";
  if (fittable(degrees.frequencies())) {
    const PowerLawFit fit = hyper::vertex_degree_power_law(degrees);
    out << fit.gamma << " (R^2 = " << fit.r_squared << ")\n";
  } else {
    out << "n/a (one protein degree)\n";
  }
  maybe_context_stats(args, ctx, out);
  return 0;
}

int query_core(QuerySession& session, const Args& args, std::ostream& out) {
  const hyper::AnalysisContext& ctx = session.context;
  Timer timer;
  const hyper::HyperCoreResult& cores = ctx.cores();
  out << "core decomposition in " << format_duration(timer.seconds())
      << "\n\nk-core ladder (k, vertices, hyperedges):\n";
  for (std::size_t k = 0; k < cores.level_vertices.size(); ++k) {
    out << "  " << k << "  " << cores.level_vertices[k] << "  "
        << cores.level_edges[k] << '\n';
  }
  const index_t k = index_flag(args, "k", cores.max_core, 0);
  const auto members = cores.core_vertices(k);
  out << "\n" << k << "-core vertices (" << members.size() << "):";
  const std::size_t limit =
      static_cast<std::size_t>(args.get_int("limit", 30));
  for (std::size_t i = 0; i < members.size() && i < limit; ++i) {
    out << ' ' << session.data.proteins.name_of(members[i]);
  }
  if (members.size() > limit) out << " ...";
  out << '\n';
  if (args.get_bool("peel-stats", false)) {
    out << "\npeel substrate counters:\n"
        << hyper::to_string(ctx.core_peel_stats());
  }
  if (args.has("out")) {
    const hyper::SubHypergraph core =
        hyper::extract_core(ctx.hypergraph(), cores, k);
    hyper::save_text(core.hypergraph, args.get("out", "core.hyper"));
    out << "wrote " << args.get("out", "core.hyper") << '\n';
  }
  maybe_context_stats(args, ctx, out);
  return 0;
}

int query_cover(QuerySession& session, const Args& args, std::ostream& out) {
  const std::string weighting = args.get("weights", "unit");
  hyper::CoverWeights weights = hyper::CoverWeights::kUnit;
  if (weighting == "deg2") {
    weights = hyper::CoverWeights::kDegreeSquared;
  } else if (weighting != "unit") {
    throw InvalidInputError{"--weights must be 'unit' or 'deg2'"};
  }
  const index_t r = index_flag(args, "multicover", 1, 1);
  const hyper::MulticoverResult& result = session.context.cover(weights, r);
  const std::vector<index_t>& cover = result.vertices;
  if (!result.clamped_edges.empty()) {
    out << result.clamped_edges.size()
        << " hyperedges smaller than the requirement were clamped\n";
  }
  out << "cover: " << cover.size() << " vertices, average degree "
      << result.average_degree << '\n';
  const std::size_t limit =
      static_cast<std::size_t>(args.get_int("limit", 30));
  for (std::size_t i = 0; i < cover.size() && i < limit; ++i) {
    out << ' ' << session.data.proteins.name_of(cover[i]);
  }
  if (cover.size() > limit) out << " ...";
  out << '\n';
  maybe_context_stats(args, session.context, out);
  return 0;
}

int query_match(QuerySession& session, const Args& args, std::ostream& out) {
  const hyper::MatchingResult& m = session.context.matching();
  out << "maximal matching: " << m.edges.size()
      << " pairwise-disjoint hyperedges (lower bound on any vertex "
         "cover)\n";
  const std::size_t limit =
      static_cast<std::size_t>(args.get_int("limit", 20));
  for (std::size_t i = 0; i < m.edges.size() && i < limit; ++i) {
    out << ' ' << session.data.complex_names[m.edges[i]];
  }
  if (m.edges.size() > limit) out << " ...";
  out << '\n';
  maybe_context_stats(args, session.context, out);
  return 0;
}

int query_soverlap(QuerySession& session, const Args& args,
                   std::ostream& out) {
  const hyper::AnalysisContext& ctx = session.context;
  const hyper::OverlapTable& table = ctx.overlaps();
  const index_t s_max = hyper::max_meaningful_s(table);
  out << "max meaningful s: " << s_max
      << "\n s  components  largest  edges\n";
  for (index_t s = 1; s <= s_max; ++s) {
    const hyper::SComponents comp = hyper::s_components(table, s);
    index_t largest = 0;
    if (comp.count > 0) largest = comp.sizes[comp.largest()];
    out << ' ' << s << "  " << comp.count << "  " << largest << "  "
        << hyper::s_intersection_graph(table, s).num_edges() << '\n';
  }
  maybe_context_stats(args, ctx, out);
  return 0;
}

int query_smallworld(QuerySession& session, const Args& args,
                     std::ostream& out) {
  const hyper::AnalysisContext& ctx = session.context;
  Rng rng{static_cast<std::uint64_t>(args.get_int("seed", 1))};
  const hyper::SmallWorldReport r =
      hyper::small_world_report(ctx.hypergraph(), ctx.paths(), rng);
  out << "observed:   diameter " << r.observed.diameter
      << ", average path length " << r.observed.average_length << '\n'
      << "null model: diameter " << r.null_model.diameter
      << ", average path length " << r.null_model.average_length << '\n'
      << "ratio observed/null: " << r.path_ratio << '\n';
  maybe_context_stats(args, ctx, out);
  return 0;
}

int query_report(QuerySession& session, const Args& args, std::ostream& out) {
  // Build the artifacts the report reads concurrently on the shared
  // pool before the serial analysis and rendering.
  session.context.prefetch();
  const bio::PaperReport report = bio::analyze(session.context);
  const bio::PaperReference reference = args.get_bool("no-paper", false)
                                            ? bio::PaperReference{}
                                            : bio::PaperReference::cellzome();
  out << bio::render_report(report, reference);
  maybe_context_stats(args, session.context, out);
  return 0;
}

struct QueryCommand {
  const char* name;
  int (*fn)(QuerySession&, const Args&, std::ostream&);
};

constexpr QueryCommand kQueryCommands[] = {
    {"stats", &query_stats},       {"report", &query_report},
    {"core", &query_core},         {"cover", &query_cover},
    {"match", &query_match},       {"soverlap", &query_soverlap},
    {"smallworld", &query_smallworld},
};

}  // namespace

const std::vector<std::string>& query_commands() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const QueryCommand& cmd : kQueryCommands) v.emplace_back(cmd.name);
    return v;
  }();
  return names;
}

bool is_query_command(const std::string& command) {
  for (const QueryCommand& cmd : kQueryCommands) {
    if (command == cmd.name) return true;
  }
  return false;
}

int run_query(QuerySession& session, const std::string& command,
              const Args& args, std::ostream& out) {
  for (const QueryCommand& cmd : kQueryCommands) {
    if (command == cmd.name) return cmd.fn(session, args, out);
  }
  throw InvalidInputError{"'" + command + "' is not a query command"};
}

}  // namespace hp::cli
