// mutate_100k: the write side of the peel layer. A MutableAnalysisContext
// over the 10^5-protein surrogate replays a seeded check::generate_trace
// script; each op is one mutation, apply(), then cores() -- the
// `hyperproteome mutate --batch 1` discipline of a read after every
// write. After the loop, a cold AnalysisContext over the final snapshot
// must give the same core decomposition.
#include "check/mutation.hpp"
#include "cli/commands.hpp"
#include "common.hpp"
#include "core/context/analysis_context.hpp"
#include "core/mutate/mutable_context.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"

namespace hp::perfbench {

namespace {

/// Script length: a 15 s run gets through ~150 ops at ~10 ops/s on a
/// 4-thread host; a faster program that exhausts the script just ends
/// its run early.
constexpr int kTraceOps = 4000;

/// Apply one scripted op. Throws InvalidInputError when the op is
/// invalid in the current state (dangling or dead ids).
void apply_op(hyper::MutableHypergraph& graph, const check::MutationOp& op) {
  using Kind = check::MutationOp::Kind;
  switch (op.kind) {
    case Kind::kAddVertex:
      graph.add_vertex();
      return;
    case Kind::kRemoveVertex:
      graph.remove_vertex(op.target);
      return;
    case Kind::kAddEdge:
      graph.add_hyperedge(op.members);
      return;
    case Kind::kRemoveEdge:
      graph.remove_hyperedge(op.target);
      return;
  }
}

/// The script minus the ops the program would reject: generate_trace
/// deliberately includes removals of dead ids, and a rejected op is
/// not a workload op.
std::vector<check::MutationOp> valid_ops(
    const hyper::Hypergraph& base, std::vector<check::MutationOp> script) {
  hyper::MutableHypergraph replay{base};
  std::vector<check::MutationOp> kept;
  for (check::MutationOp& op : script) {
    try {
      apply_op(replay, op);
    } catch (const InvalidInputError&) {
      continue;
    }
    kept.push_back(std::move(op));
  }
  return kept;
}

/// Compare the incremental cores with a cold decomposition of the same
/// snapshot; empty when identical.
std::string check_cores(hyper::MutableAnalysisContext& ctx) {
  const hyper::MutableHypergraph::Snapshot& snap = ctx.snapshot();
  const hyper::AnalysisContext cold{snap.hypergraph};
  const hyper::HyperCoreResult& want = cold.cores();
  const hyper::HyperCoreResult& got = ctx.cores();
  if (got.vertex_core != want.vertex_core) return "vertex cores differ";
  if (got.max_core != want.max_core ||
      got.level_vertices != want.level_vertices ||
      got.level_edges != want.level_edges) {
    return "core ladder differs";
  }
  for (std::size_t j = 0; j < snap.edge_to_stable.size(); ++j) {
    const index_t stable = snap.edge_to_stable[j];
    if (got.edge_core[stable] != want.edge_core[j] ||
        got.in_reduced[stable] != want.in_reduced[j]) {
      return "edge core differs at stable edge " + std::to_string(stable);
    }
  }
  return "";
}

PeelTotals peel_reading(const hyper::MutableAnalysisContext& ctx) {
  PeelTotals totals;
  totals.add(ctx.core_peel_stats());
  return totals;
}

}  // namespace

int run_mutate(const Options& options, const Args& args) {
  const double setup_start = now_s();
  const bio::ComplexDataset data = cli::load_dataset(args.get("input", ""));
  check::MutationTraceOptions trace_options;
  trace_options.num_ops = kTraceOps;
  const std::vector<check::MutationOp> ops = valid_ops(
      data.hypergraph,
      check::generate_trace(data.hypergraph, options.seed, trace_options));
  hyper::MutableAnalysisContext ctx{data.hypergraph};
  // Warm the cheap tier, as `hyperproteome mutate` does, so ops exercise
  // incremental maintenance rather than cold builds.
  ctx.vertex_degrees();
  ctx.vertex_degree_histogram();
  ctx.edge_size_histogram();
  ctx.components();
  ctx.cores();
  const double setup_s = now_s() - setup_start;

  std::size_t next = 0;
  const auto op = [&](std::size_t) -> std::string {
    HP_TRACE_SPAN("bench.op");
    {
      HP_TRACE_SPAN("bench.mutate.edit");
      apply_op(ctx.graph(), ops[next++]);
    }
    {
      HP_TRACE_SPAN("bench.mutate.apply");
      ctx.apply();
    }
    HP_TRACE_SPAN("bench.mutate.cores");
    ctx.cores();
    return "";
  };

  const double loop_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  Phase timed;
  run_phase(timed, loop_seconds, ops.size(), op);
  const double peak_rss_kb = proc_status(0, "VmHWM");

  Json results;
  results.number("setup_s", setup_s)
      .integer("script_ops", ops.size())
      .object("timed", phase_json(timed))
      .number("peak_rss_kb", peak_rss_kb);

  if (options.trace) {
    Phase traced;
    const PeelTotals peel_before = peel_reading(ctx);
    const PoolSample pool_before = PoolSample::take();
    obs::reset_tracing();
    obs::set_tracing_enabled(true);
    run_phase(traced, loop_seconds, ops.size() - next, op);
    obs::set_tracing_enabled(false);
    const PoolSample pool_after = PoolSample::take();
    const std::string trace_path = options.dir + "/trace.json";
    obs::write_chrome_trace_file(trace_path);
    Json layers;
    layers
        .object("peel",
                PeelTotals::between(peel_before, peel_reading(ctx)).json())
        .integer("context_bytes", ctx.stats().total_bytes())
        .object("pool", pool_json(pool_before, pool_after));
    results.object("traced", phase_json(traced))
        .object("layers", layers)
        .string("trace_file", trace_path);
  }

  // The answer check: one op that replays nothing and compares the
  // state every measured op built on with a cold rebuild.
  Phase final_check;
  run_phase(final_check, 0.0, 1,
            [&](std::size_t) { return check_cores(ctx); });
  results.object("final_check", phase_json(final_check));
  write_file(options.out, results.text());
  return 0;
}

}  // namespace hp::perfbench
