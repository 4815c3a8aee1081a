// report_10k, the one-shot workload: each op repeats what one
// `hyperproteome report` invocation does, in-process, with a fresh
// context every op: load a .hyper text file, fresh AnalysisContext,
// prefetch(), bio::analyze, bio::render_report.
//
// Each op's output is compared with the reference run.py made through
// the CLI binary on the .hps snapshot of the same instance.
#include <optional>

#include "bio/paper_report.hpp"
#include "cli/commands.hpp"
#include "common.hpp"
#include "core/snapshot/snapshot.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"
#include "probes.hpp"

namespace hp::perfbench {

namespace {

/// Report ops are few and slow; a cap only guards a future
/// program that gets thousands of times faster.
constexpr std::size_t kMaxOps = 100000;

/// One measured op plus the layer counters of the context it built.
struct OneShotResult {
  std::string failure;
  PeelTotals peel;
  std::size_t context_bytes = 0;
};

OneShotResult report_op(const std::string& input,
                        const std::string& reference) {
  HP_TRACE_SPAN("bench.op");
  bio::ComplexDataset data = [&] {
    HP_TRACE_SPAN("bench.load");
    return cli::load_dataset(input);
  }();
  const hyper::AnalysisContext context{std::move(data.hypergraph)};
  {
    HP_TRACE_SPAN("bench.context.prefetch");
    context.prefetch();
  }
  const bio::PaperReport report = [&] {
    HP_TRACE_SPAN("bench.bio.analyze");
    return bio::analyze(context);
  }();
  const std::string text = [&] {
    HP_TRACE_SPAN("bench.bio.render");
    return bio::render_report(report, bio::PaperReference::cellzome());
  }();
  OneShotResult result;
  const std::string got = mask_clock_lines(text);
  if (got != reference) result.failure = first_difference(got, reference);
  result.peel.add(context.core_peel_stats());
  result.context_bytes = context.stats().total_bytes();
  return result;
}

}  // namespace

/// An untimed warm-up op, the measured loop, and in a traced run a
/// second, traced loop whose layer counters are reported. Every op of
/// these runs at one lane: at all lanes the all-pairs paths keep every
/// hardware thread of a shared host busy, and the op's time followed the
/// neighbours' load rather than the program (see perfbench/README.md).
/// The traced run then adds ops at all lanes, the pool's scaling.
int run_report(const Options& options, const Args& args) {
  std::optional<par::LaneLimit> lane_limit{std::in_place, 1};
  const double setup_start = now_s();
  const std::string input = args.get("input", "");
  // The .hps form of the input, opened on its own after each traced op
  // as load.open.
  const std::string snapshot = args.get("snapshot", "");
  const std::string reference =
      mask_clock_lines(read_file(args.get("reference", "")));
  // First-touch costs (page cache, pool threads, allocator arenas) are
  // paid once per process by every user; keep them out of the samples.
  Phase warmup;
  run_phase(warmup, 0.0, 1, [&](std::size_t) {
    return report_op(input, reference).failure;
  });
  const double setup_s = now_s() - setup_start;

  const double loop_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  Phase timed;
  run_phase(timed, loop_seconds, kMaxOps, [&](std::size_t) {
    return report_op(input, reference).failure;
  });
  const double peak_rss_kb = proc_status(0, "VmHWM");

  Json results;
  results.number("setup_s", setup_s)
      .object("warmup", phase_json(warmup))
      .object("timed", phase_json(timed))
      .number("peak_rss_kb", peak_rss_kb);

  if (options.trace) {
    Phase traced;
    PeelTotals peel;
    std::size_t context_bytes = 0;
    std::vector<double> open_ms;
    const PoolSample pool_before = PoolSample::take();
    obs::reset_tracing();
    obs::set_tracing_enabled(true);
    run_phase(
        traced, loop_seconds, kMaxOps,
        [&](std::size_t) {
          const OneShotResult result = report_op(input, reference);
          peel.add(result.peel);
          context_bytes = result.context_bytes;
          return result.failure;
        },
        [&](std::size_t) {
          const double t0 = now_s();
          {
            HP_TRACE_SPAN("bench.load.open");
            const hyper::Hypergraph opened = hyper::snapshot::open(snapshot);
          }
          open_ms.push_back((now_s() - t0) * 1e3);
        });
    obs::set_tracing_enabled(false);
    const PoolSample pool_after = PoolSample::take();
    const std::string trace_path = options.dir + "/trace.json";
    obs::write_chrome_trace_file(trace_path);

    Json layers;
    layers.object("peel", peel.json())
        .integer("context_bytes", context_bytes)
        .object("pool", pool_json(pool_before, pool_after))
        .numbers("open_ms", open_ms);
    {
      // The same op at all lanes, traced on its own: the pool's layer
      // counters and its scaling come from it. An untimed op first wakes
      // the workers, which credit their idle time since the lane-limited
      // loops when they wake.
      lane_limit.reset();
      Phase all_lanes_warmup;
      run_phase(all_lanes_warmup, 0.0, 1, [&](std::size_t) {
        return report_op(input, reference).failure;
      });
      results.object("all_lanes_warmup", phase_json(all_lanes_warmup));
      Phase all_lanes;
      const PoolSample all_before = PoolSample::take();
      obs::reset_tracing();
      obs::set_tracing_enabled(true);
      run_phase(all_lanes, 0.0, 1, [&](std::size_t) {
        return report_op(input, reference).failure;
      });
      obs::set_tracing_enabled(false);
      const PoolSample all_after = PoolSample::take();
      const std::string all_trace_path = options.dir + "/trace_all_lanes.json";
      obs::write_chrome_trace_file(all_trace_path);
      results.object("all_lanes", phase_json(all_lanes))
          .object("all_lanes_pool", pool_json(all_before, all_after))
          .string("all_lanes_trace_file", all_trace_path);
    }
    results.object("traced", phase_json(traced))
        .object("layers", layers)
        .string("trace_file", trace_path);
  }
  write_file(options.out, results.text());
  return 0;
}

}  // namespace hp::perfbench
