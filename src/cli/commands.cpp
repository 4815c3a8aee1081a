#include "cli/commands.hpp"

#include <cstdlib>
#include <exception>
#include <fstream>
#include <ostream>
#include <sstream>

#include "bio/cellzome_synth.hpp"
#include "bio/paper_report.hpp"
#include "check/mutation.hpp"
#include "cli/query.hpp"
#include "core/binary_io.hpp"
#include "core/context/analysis_context.hpp"
#include "core/mutate/mutable_context.hpp"
#include "core/cover.hpp"
#include "core/hypergraph_io.hpp"
#include "core/kcore.hpp"
#include "core/matching.hpp"
#include "core/multicover.hpp"
#include "core/pajek.hpp"
#include "core/smallworld.hpp"
#include "core/snapshot/snapshot.hpp"
#include "core/soverlap.hpp"
#include "core/svg.hpp"
#include "core/stats.hpp"
#include "core/traversal.hpp"
#include "mm/matrix_market.hpp"
#include "mm/mm_to_hypergraph.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/stringutil.hpp"
#include "util/timer.hpp"

namespace hp::cli {

namespace {

enum class Format {
  kHyper,
  kHmetis,
  kBinary,
  kSnapshot,
  kMatrixMarket,
  kComplexTable
};

Format detect_format(const std::string& path) {
  const auto dot = path.rfind('.');
  const std::string ext =
      dot == std::string::npos ? "" : to_lower(path.substr(dot + 1));
  if (ext == "hyper") return Format::kHyper;
  if (ext == "hgr") return Format::kHmetis;
  if (ext == "hpb") return Format::kBinary;
  if (ext == "hps") return Format::kSnapshot;
  if (ext == "mtx") return Format::kMatrixMarket;
  if (ext == "tsv" || ext == "txt") return Format::kComplexTable;
  throw InvalidInputError{
      "unrecognized file extension on '" + path +
      "' (expected .hyper, .hgr, .hpb, .hps, .mtx, .tsv, .txt)"};
}

/// Wrap a bare hypergraph in a dataset with generated names.
bio::ComplexDataset wrap(hyper::Hypergraph h) {
  bio::ComplexDataset data;
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    std::string name = "v";
    name += std::to_string(v);
    data.proteins.intern(name);
  }
  for (index_t e = 0; e < h.num_edges(); ++e) {
    std::string name = "f";
    name += std::to_string(e);
    data.complex_names.push_back(std::move(name));
  }
  data.hypergraph = std::move(h);
  return data;
}

/// The one positional input file every analysis command takes.
std::string input_path(const Args& args) {
  HP_REQUIRE(args.positional().size() >= 2,
             "expected an input file after the command");
  return args.positional()[1];
}

/// Every analysis command runs off one shared artifact cache -- a
/// QuerySession (cli/query.hpp), the same type the analysis server
/// pools across requests. One-shot invocations wrap it here so the
/// metrics publish on teardown.
struct Session {
  QuerySession q;

  explicit Session(bio::ComplexDataset loaded) : q(std::move(loaded)) {}

  // Publishing at teardown means --metrics output includes the cache
  // counters of whatever the command actually built.
  ~Session() { hyper::publish_metrics(q.context.stats()); }
};

Session open_session(const Args& args) {
  return Session{load_dataset(input_path(args))};
}

/// One-shot wrapper: fresh session, shared query implementation
/// (cli/query.cpp), metrics published when the session unwinds.
int run_one_shot_query(const char* command, const Args& args,
                       std::ostream& out) {
  Session session = open_session(args);
  return run_query(session.q, command, args, out);
}

}  // namespace

bio::ComplexDataset load_dataset(const std::string& path) {
  HP_TRACE_SPAN("cli.load_dataset");
  bio::ComplexDataset data = [&] {
    switch (detect_format(path)) {
      case Format::kHyper:
        return wrap(hyper::load_text(path));
      case Format::kHmetis:
        return wrap(hyper::load_hmetis(path));
      case Format::kBinary:
        return wrap(hyper::load_binary(path));
      case Format::kSnapshot:
        return wrap(hyper::snapshot::open(path));
      case Format::kMatrixMarket:
        return wrap(mm::row_net_hypergraph(mm::load_matrix_market(path)));
      case Format::kComplexTable:
        return bio::load_complex_table(path);
    }
    throw std::logic_error{"unreachable"};
  }();
  // Every loader's output goes through the structural validator, so a
  // malformed file fails here, with its name, instead of corrupting an
  // analysis downstream.
  try {
    HP_TRACE_SPAN("cli.validate");
    hyper::validate(data.hypergraph);
  } catch (const InvalidInputError& error) {
    std::string message = "invalid hypergraph loaded from '";
    message += path;
    message += "': ";
    message += error.what();
    throw InvalidInputError{message};
  }
  return data;
}

void save_dataset(const bio::ComplexDataset& data, const std::string& path) {
  switch (detect_format(path)) {
    case Format::kHyper:
      hyper::save_text(data.hypergraph, path);
      return;
    case Format::kHmetis:
      hyper::save_hmetis(data.hypergraph, path);
      return;
    case Format::kBinary:
      hyper::save_binary(data.hypergraph, path);
      return;
    case Format::kSnapshot:
      hyper::snapshot::save(data.hypergraph, path);
      return;
    case Format::kComplexTable:
      bio::save_complex_table(data, path);
      return;
    case Format::kMatrixMarket:
      throw InvalidInputError{
          "writing MatrixMarket from a hypergraph is not supported (the "
          "row-net conversion is lossy); choose .hyper, .hgr, .hpb, .hps "
          "or .tsv"};
  }
}

int cmd_stats(const Args& args, std::ostream& out) {
  return run_one_shot_query("stats", args, out);
}

int cmd_core(const Args& args, std::ostream& out) {
  return run_one_shot_query("core", args, out);
}

int cmd_cover(const Args& args, std::ostream& out) {
  return run_one_shot_query("cover", args, out);
}

int cmd_match(const Args& args, std::ostream& out) {
  return run_one_shot_query("match", args, out);
}

int cmd_soverlap(const Args& args, std::ostream& out) {
  return run_one_shot_query("soverlap", args, out);
}

int cmd_smallworld(const Args& args, std::ostream& out) {
  return run_one_shot_query("smallworld", args, out);
}

int cmd_convert(const Args& args, std::ostream& out) {
  HP_REQUIRE(args.positional().size() >= 3,
             "convert needs an input and an output file");
  const bio::ComplexDataset data = load_dataset(args.positional()[1]);
  save_dataset(data, args.positional()[2]);
  out << "wrote " << args.positional()[2] << " (" <<
      data.hypergraph.num_vertices() << " vertices, "
      << data.hypergraph.num_edges() << " hyperedges)\n";
  return 0;
}

int cmd_generate(const Args& args, std::ostream& out) {
  HP_REQUIRE(args.positional().size() >= 2,
             "generate needs an output file");
  bio::CellzomeParams params;
  if (args.has("proteins")) {
    params = bio::scaled_cellzome_params(
        static_cast<index_t>(args.get_int("proteins", 1361)));
  }
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 20040426));
  const bio::ComplexDataset data = bio::cellzome_surrogate(params);
  save_dataset(data, args.positional()[1]);
  out << "wrote " << args.positional()[1] << " ("
      << data.hypergraph.num_vertices() << " proteins, "
      << data.hypergraph.num_edges() << " complexes)\n";
  return 0;
}

int cmd_pajek(const Args& args, std::ostream& out) {
  HP_REQUIRE(args.positional().size() >= 3,
             "pajek needs an input file and an output prefix");
  Session session{load_dataset(args.positional()[1])};
  const hyper::AnalysisContext& ctx = session.q.context;
  const std::string prefix = args.positional()[2];
  const hyper::Hypergraph& h = ctx.hypergraph();
  const hyper::HyperCoreResult& cores = ctx.cores();
  const index_t k = static_cast<index_t>(
      args.get_int("k", static_cast<std::int64_t>(cores.max_core)));

  hyper::save_pajek(
      hyper::to_pajek_bipartite(h, session.q.data.proteins.names(),
                                session.q.data.complex_names),
      prefix + ".net");
  hyper::save_pajek(
      hyper::to_pajek_partition(hyper::fig3_classes(
          h, cores.vertex_core, cores.edge_core, k)),
      prefix + ".clu");
  out << "wrote " << prefix << ".net and " << prefix << ".clu ("
      << k << "-core coloring)\n";
  maybe_context_stats(args, ctx, out);
  return 0;
}

int cmd_report(const Args& args, std::ostream& out) {
  return run_one_shot_query("report", args, out);
}

int cmd_render(const Args& args, std::ostream& out) {
  HP_REQUIRE(args.positional().size() >= 3,
             "render needs an input file and an output .svg path");
  Session session{load_dataset(args.positional()[1])};
  const hyper::AnalysisContext& ctx = session.q.context;
  const hyper::HyperCoreResult& cores = ctx.cores();
  const index_t k = static_cast<index_t>(
      args.get_int("k", static_cast<std::int64_t>(cores.max_core)));
  hyper::LayoutParams layout;
  layout.iterations = static_cast<int>(args.get_int("iterations", 60));
  layout.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  hyper::save_svg(hyper::render_fig3_svg(ctx.hypergraph(), cores.vertex_core,
                                         cores.edge_core, k, layout),
                  args.positional()[2]);
  out << "wrote " << args.positional()[2] << " (" << k
      << "-core highlighted)\n";
  maybe_context_stats(args, ctx, out);
  return 0;
}

namespace {

/// Parse one mutation op per line, in the exact format printed by
/// check::to_string(MutationOp) — so shrunk fuzz traces can be replayed
/// verbatim. Blank lines and '#' comments are skipped.
std::vector<check::MutationOp> load_mutation_script(const std::string& path) {
  std::ifstream in(path);
  HP_REQUIRE(in.good(), "cannot open mutation script '" + path + "'");
  std::vector<check::MutationOp> ops;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream fields(line);
    std::string kind;
    if (!(fields >> kind) || kind[0] == '#') continue;
    check::MutationOp op;
    const auto parse_id = [&](const char* what) {
      std::uint64_t id = 0;
      HP_REQUIRE(static_cast<bool>(fields >> id),
                 "script line " + std::to_string(line_no) + ": " + kind +
                     " needs a " + what + " id");
      return static_cast<index_t>(id);
    };
    if (kind == "add-vertex") {
      op.kind = check::MutationOp::Kind::kAddVertex;
    } else if (kind == "remove-vertex") {
      op.kind = check::MutationOp::Kind::kRemoveVertex;
      op.target = parse_id("vertex");
    } else if (kind == "add-edge") {
      op.kind = check::MutationOp::Kind::kAddEdge;
      std::uint64_t member = 0;
      while (fields >> member) {
        op.members.push_back(static_cast<index_t>(member));
      }
      HP_REQUIRE(!op.members.empty(),
                 "script line " + std::to_string(line_no) +
                     ": add-edge needs at least one member");
    } else if (kind == "remove-edge") {
      op.kind = check::MutationOp::Kind::kRemoveEdge;
      op.target = parse_id("edge");
    } else {
      throw InvalidInputError{"script line " + std::to_string(line_no) +
                              ": unknown op '" + kind + "'"};
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Apply one op to the editable graph; returns false when the op is
/// invalid in the current state (dangling/dead ids), which mirrors the
/// skip semantics of the fuzz oracle rather than aborting the batch.
bool apply_mutation(hyper::MutableHypergraph& graph,
                    const check::MutationOp& op) {
  using Kind = check::MutationOp::Kind;
  try {
    switch (op.kind) {
      case Kind::kAddVertex:
        graph.add_vertex();
        return true;
      case Kind::kRemoveVertex:
        graph.remove_vertex(op.target);
        return true;
      case Kind::kAddEdge:
        graph.add_hyperedge(op.members);
        return true;
      case Kind::kRemoveEdge:
        graph.remove_hyperedge(op.target);
        return true;
    }
  } catch (const InvalidInputError&) {
    return false;
  }
  return false;
}

}  // namespace

int cmd_mutate(const Args& args, std::ostream& out) {
  bio::ComplexDataset data = load_dataset(input_path(args));
  hyper::MutableAnalysisContext ctx{data.hypergraph};

  std::vector<check::MutationOp> ops;
  if (args.has("script")) {
    ops = load_mutation_script(args.get("script", ""));
  } else {
    check::MutationTraceOptions options;
    options.num_ops = static_cast<int>(args.get_int("ops", 64));
    ops = check::generate_trace(
        data.hypergraph,
        static_cast<std::uint64_t>(args.get_int("seed", 42)), options);
  }

  // Warm the cheap tier so the batch loop below exercises incremental
  // maintenance rather than repeated cold builds.
  ctx.vertex_degrees();
  ctx.vertex_degree_histogram();
  ctx.edge_size_histogram();
  ctx.components();
  ctx.cores();

  const std::size_t batch =
      static_cast<std::size_t>(args.get_int("batch", 1));
  HP_REQUIRE(batch >= 1, "--batch must be at least 1");
  std::size_t applied = 0;
  std::size_t skipped = 0;
  Timer timer;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (apply_mutation(ctx.graph(), ops[i])) {
      ++applied;
    } else {
      ++skipped;
    }
    if ((i + 1) % batch == 0 || i + 1 == ops.size()) {
      ctx.apply();
      ctx.cores();
    }
  }
  const double seconds = timer.seconds();

  const hyper::MutableHypergraph& graph = ctx.graph();
  out << "applied " << applied << " mutations (" << skipped
      << " skipped as invalid) in " << format_duration(seconds) << '\n'
      << "version        : " << graph.version() << '\n'
      << "live vertices  : " << graph.live_vertices() << '\n'
      << "live hyperedges: " << graph.live_edges() << '\n'
      << "live pins      : " << graph.live_pins() << '\n';

  const hyper::HyperCoreResult& cores = ctx.cores();
  out << "\nk-core ladder (k, vertices, hyperedges):\n";
  for (std::size_t k = 0; k < cores.level_vertices.size(); ++k) {
    out << "  " << k << "  " << cores.level_vertices[k] << "  "
        << cores.level_edges[k] << '\n';
  }

  const hyper::MutableAnalysisContext::ApplyStats& stats = ctx.apply_stats();
  out << "\nincremental maintenance:\n"
      << "  applies              : " << stats.applies << '\n'
      << "  mutations absorbed   : " << stats.mutations << '\n'
      << "  incremental updates  : " << stats.incremental_updates << '\n'
      << "  component rebuilds   : " << stats.component_rebuilds << '\n'
      << "  core re-peels        : " << stats.core_repeels << '\n';

  if (args.get_bool("peel-stats", false)) {
    out << "\npeel substrate counters:\n"
        << hyper::to_string(ctx.core_peel_stats());
  }
  if (args.has("out")) {
    const std::string path = args.get("out", "mutated.hyper");
    hyper::save_text(ctx.snapshot().hypergraph, path);
    out << "\nwrote " << path << '\n';
  }
  if (args.get_bool("context-stats", false)) {
    out << '\n' << hyper::to_string(ctx.stats());
  }
  hyper::publish_metrics(ctx.stats());
  return 0;
}

namespace {

hyper::snapshot::SaveOptions snapshot_options(const Args& args) {
  hyper::snapshot::SaveOptions options;
  const std::string codec = args.get("codec", "nop");
  if (codec == "nop") {
    options.codec = hyper::snapshot::Codec::kNone;
  } else if (codec == "varint") {
    options.codec = hyper::snapshot::Codec::kVarint;
  } else {
    throw InvalidInputError{"--codec must be 'nop' or 'varint'"};
  }
  return options;
}

void print_snapshot_info(const hyper::snapshot::Info& info,
                         const std::string& path, std::ostream& out) {
  out << path << ":\n"
      << "  format version : " << info.version << '\n'
      << "  codec          : "
      << (info.codec == hyper::snapshot::Codec::kVarint ? "varint" : "nop")
      << '\n'
      << "  vertices       : " << info.num_vertices << '\n'
      << "  hyperedges     : " << info.num_edges << '\n'
      << "  pins           : " << info.num_pins << '\n'
      << "  file bytes     : " << info.file_bytes << '\n'
      << "  section bytes  : " << info.section_bytes << '\n';
}

}  // namespace

int cmd_snapshot(const Args& args, std::ostream& out) {
  HP_REQUIRE(args.positional().size() >= 2,
             "snapshot needs a subcommand: convert, info or verify");
  const std::string sub = args.positional()[1];
  if (sub == "convert") {
    HP_REQUIRE(args.positional().size() >= 4,
               "snapshot convert needs an input and an output file");
    const bio::ComplexDataset data = load_dataset(args.positional()[2]);
    const std::string& out_path = args.positional()[3];
    hyper::snapshot::save(data.hypergraph, out_path, snapshot_options(args));
    const hyper::snapshot::Info info = hyper::snapshot::info(out_path);
    out << "wrote " << out_path << " (" << info.num_vertices
        << " vertices, " << info.num_edges << " hyperedges, "
        << info.file_bytes << " bytes, codec "
        << (info.codec == hyper::snapshot::Codec::kVarint ? "varint" : "nop")
        << ")\n";
    return 0;
  }
  if (sub == "info") {
    HP_REQUIRE(args.positional().size() >= 3,
               "snapshot info needs a snapshot file");
    print_snapshot_info(hyper::snapshot::info(args.positional()[2]),
                        args.positional()[2], out);
    return 0;
  }
  if (sub == "verify") {
    HP_REQUIRE(args.positional().size() >= 3,
               "snapshot verify needs a snapshot file");
    hyper::snapshot::verify(args.positional()[2]);
    out << args.positional()[2] << ": snapshot ok\n";
    return 0;
  }
  throw InvalidInputError{"unknown snapshot subcommand '" + sub +
                          "' (expected convert, info or verify)"};
}

namespace {

/// Commands added by register_command(): the analysis server's `serve`
/// and `query` live here. Kept separate from the constexpr built-in
/// table; looked up after it.
struct RegisteredCommand {
  std::string name;
  const char* span;
  int (*fn)(const Args&, std::ostream&);
  std::string blurb;
};

std::vector<RegisteredCommand>& registered_commands() {
  static std::vector<RegisteredCommand> commands;
  return commands;
}

}  // namespace

void register_command(const std::string& name, const char* span,
                      int (*fn)(const Args&, std::ostream&),
                      const std::string& usage_blurb) {
  HP_REQUIRE(!name.empty() && span != nullptr && fn != nullptr,
             "register_command: name, span and fn are required");
  for (RegisteredCommand& cmd : registered_commands()) {
    if (cmd.name == name) {
      cmd = RegisteredCommand{name, span, fn, usage_blurb};
      return;
    }
  }
  registered_commands().push_back(
      RegisteredCommand{name, span, fn, usage_blurb});
}

std::string usage() {
  std::string text =
      "usage: hp_cli <command> [args]\n"
         "\n"
         "commands:\n"
         "  stats <file> [--paths]                 structural summary\n"
         "  report <file> [--no-paper]             full paper-vs-measured "
         "table\n"
         "  core <file> [--k K] [--out f.hyper] [--peel-stats]\n"
         "                                         k-core decomposition\n"
         "  cover <file> [--weights unit|deg2] [--multicover R]\n"
         "                                         greedy bait cover\n"
         "  match <file>                           maximal matching\n"
         "  soverlap <file>                        s-overlap census\n"
         "  smallworld <file> [--seed N]           null-model comparison\n"
         "  convert <in> <out>                     format conversion\n"
         "  generate <out> [--seed N] [--proteins N]  calibrated surrogate\n"
         "                                         (or scaled to N "
         "proteins)\n"
         "  pajek <file> <prefix> [--k K]          Figure-3 style export\n"
         "  render <file> <out.svg> [--k K] [--iterations N]\n"
         "                                         offline Figure-3 SVG\n"
         "  mutate <file> [--ops N] [--seed S] [--batch B]\n"
         "         [--script ops.txt] [--out f.hyper] [--peel-stats]\n"
         "                                         incremental mutation "
         "replay\n"
         "  snapshot convert <in> <out.hps> [--codec nop|varint]\n"
         "  snapshot info <f.hps> | verify <f.hps>\n"
         "                                         mmap'd zero-copy "
         "snapshots\n"
         "\n"
         "every analysis command also accepts --context-stats: print the\n"
         "  shared derived-artifact cache counters (builds, hits, bytes)\n"
         "\n"
         "global observability flags (any command):\n"
         "  --trace out.json    record a Chrome trace (load it in\n"
         "                      chrome://tracing or Perfetto); env\n"
         "                      HP_TRACE=out.json is equivalent\n"
         "  --metrics out.json  dump the metrics registry (counters,\n"
         "                      gauges, latency histograms); env\n"
         "                      HP_METRICS=out.json is equivalent\n"
         "  --profile out.folded  sample the command with the SIGPROF\n"
         "                      CPU profiler and write folded stacks\n"
         "                      (flamegraph.pl / speedscope input); env\n"
         "                      HP_PROFILE=out.folded is equivalent\n"
         "  --metrics-interval 250ms|2s|N  flush metrics continuously\n"
         "                      from a background thread to\n"
         "                      --metrics-jsonl (default hp_metrics.jsonl)\n"
         "                      and --metrics-prom (default\n"
         "                      hp_metrics.prom, Prometheus text format);\n"
         "                      env HP_METRICS_INTERVAL etc.\n"
         "  --slow-span-ms N    log traced spans that exceed N ms (also\n"
         "                      counted in obs.slow_spans); env\n"
         "                      HP_SLOW_SPAN_MS\n"
         "\n"
         "formats by extension: .hyper (native), .hgr (hMETIS),\n"
         "  .hpb (binary), .hps (mmap'd snapshot),\n"
         "  .mtx (MatrixMarket row-net), .tsv/.txt (complex table)\n";
  for (const RegisteredCommand& cmd : registered_commands()) {
    text += cmd.blurb;
  }
  return text;
}

namespace {

/// Dispatch table. The span name is a literal (the tracer stores the
/// pointer), so each command gets a root `cli.<name>` span enclosing its
/// whole run including dataset load.
struct Command {
  const char* name;
  const char* span;
  int (*fn)(const Args&, std::ostream&);
};

constexpr Command kCommands[] = {
    {"stats", "cli.stats", &cmd_stats},
    {"report", "cli.report", &cmd_report},
    {"core", "cli.core", &cmd_core},
    {"cover", "cli.cover", &cmd_cover},
    {"match", "cli.match", &cmd_match},
    {"soverlap", "cli.soverlap", &cmd_soverlap},
    {"smallworld", "cli.smallworld", &cmd_smallworld},
    {"convert", "cli.convert", &cmd_convert},
    {"generate", "cli.generate", &cmd_generate},
    {"pajek", "cli.pajek", &cmd_pajek},
    {"render", "cli.render", &cmd_render},
    {"mutate", "cli.mutate", &cmd_mutate},
    {"snapshot", "cli.snapshot", &cmd_snapshot},
};

/// Flag with environment fallback: --trace beats HP_TRACE, etc.
std::string flag_or_env(const Args& args, const std::string& flag,
                        const char* env) {
  std::string value = args.get(flag, "");
  if (value.empty()) {
    if (const char* from_env = std::getenv(env)) value = from_env;
  }
  return value;
}

}  // namespace

int run(const Args& args, std::ostream& out) {
  if (args.positional().empty()) {
    out << usage();
    return 2;
  }
  const std::string command = args.positional()[0];

  const std::string trace_path = flag_or_env(args, "trace", "HP_TRACE");
  const std::string metrics_path = flag_or_env(args, "metrics", "HP_METRICS");
  const std::string profile_path =
      flag_or_env(args, "profile", "HP_PROFILE");
  if (!trace_path.empty()) obs::set_tracing_enabled(true);

  // Slow-span watchdog: spans longer than the threshold are logged as
  // they close (and counted in obs.slow_spans). 0 = off.
  {
    std::int64_t slow_ms = args.get_int("slow-span-ms", 0);
    if (slow_ms <= 0) {
      if (const char* env = std::getenv("HP_SLOW_SPAN_MS")) {
        slow_ms = std::strtoll(env, nullptr, 10);
      }
    }
    if (slow_ms > 0) {
      obs::set_slow_span_threshold_ns(
          static_cast<std::uint64_t>(slow_ms) * 1000000u);
    }
  }

  // Continuous metrics export: --metrics-interval / HP_METRICS_INTERVAL
  // turn on the background flusher for the duration of the command.
  std::optional<std::chrono::milliseconds> metrics_interval;
  if (args.has("metrics-interval")) {
    metrics_interval =
        obs::parse_metrics_interval(args.get("metrics-interval", ""));
    if (!metrics_interval) {
      out << "error: --metrics-interval expects '250ms', '2s' or a "
             "millisecond count\n";
      return 2;
    }
  } else {
    metrics_interval = obs::metrics_interval_from_env();
  }
  std::string jsonl_path;
  std::string prom_path;
  if (metrics_interval) {
    jsonl_path = flag_or_env(args, "metrics-jsonl", "HP_METRICS_JSONL");
    if (jsonl_path.empty()) jsonl_path = "hp_metrics.jsonl";
    prom_path = flag_or_env(args, "metrics-prom", "HP_METRICS_PROM");
    if (prom_path.empty()) prom_path = "hp_metrics.prom";
  }

  const char* span = nullptr;
  int (*fn)(const Args&, std::ostream&) = nullptr;
  for (const Command& cmd : kCommands) {
    if (command == cmd.name) {
      span = cmd.span;
      fn = cmd.fn;
      break;
    }
  }
  if (fn == nullptr) {
    for (const RegisteredCommand& cmd : registered_commands()) {
      if (command == cmd.name) {
        span = cmd.span;
        fn = cmd.fn;
        break;
      }
    }
  }
  if (fn == nullptr) {
    out << "unknown command '" << command << "'\n\n" << usage();
    return 2;
  }

  int code = 0;
  bool profiling = false;
  try {
    if (!profile_path.empty()) {
      obs::start_profiling();
      profiling = true;
    }
    if (metrics_interval) {
      obs::ExportOptions options;
      options.interval = *metrics_interval;
      options.jsonl_path = jsonl_path;
      options.prom_path = prom_path;
      obs::MetricsExporter::global().start(options);
    }
    Timer timer;
    {
      HP_TRACE_SPAN(span);
      code = fn(args, out);
    }
    obs::latency("cli.command_ns").record_ns(timer.nanoseconds());
  } catch (const std::exception& error) {
    out << "error: " << error.what() << '\n';
    code = 1;
  } catch (...) {
    out << "error: unknown exception\n";
    code = 1;
  }

  // Flush observability outputs even when the command failed: a trace,
  // profile or metrics series of a failing run is precisely when you
  // want one.
  if (profiling) {
    obs::stop_profiling();
    try {
      obs::write_folded_file(profile_path);
      out << "wrote profile " << profile_path << " ("
          << obs::profile_sample_count() << " samples, "
          << obs::profile_dropped_samples() << " dropped)\n";
    } catch (const std::exception& error) {
      out << "error: " << error.what() << '\n';
      code = 1;
    }
  }
  if (obs::MetricsExporter::global().running()) {
    obs::MetricsExporter::global().stop();  // final flush inside
    out << "wrote metrics series " << jsonl_path << " and " << prom_path
        << " (" << obs::MetricsExporter::global().flush_count()
        << " flushes)\n";
  }
  if (!trace_path.empty()) {
    try {
      obs::write_chrome_trace_file(trace_path);
      out << "wrote trace " << trace_path << '\n';
    } catch (const std::exception& error) {
      out << "error: " << error.what() << '\n';
      code = 1;
    }
  }
  if (!metrics_path.empty()) {
    try {
      obs::metrics_json(obs::Registry::global().snapshot())
          .write_file(metrics_path);
      out << "wrote metrics " << metrics_path << '\n';
    } catch (const std::exception& error) {
      out << "error: " << error.what() << '\n';
      code = 1;
    }
  }
  return code;
}

}  // namespace hp::cli
