// Microbenchmark for the observability layer (src/obs/).
//
// The contract being verified: a trace-span site in a hot path costs one
// relaxed atomic load and no allocation while tracing is disabled. We
// measure
//   * the per-site cost of a disabled span / counter (tight loop, loop
//     overhead subtracted via an empty baseline loop);
//   * the per-site cost of an enabled span (buffer append, both ends);
//   * the end-to-end core decomposition of the *scaled* Cellzome
//     surrogate (the calibrated 1361-protein instance peels in well
//     under a millisecond, too short to measure percent-level overhead
//     against scheduler noise) with tracing off, tracing on, and the
//     SIGPROF sampler running.
// From the disabled per-site cost and the number of span/counter sites
// an instrumented peel actually executes (counted by re-parsing a real
// trace of one decomposition), we derive an upper bound on the
// tracing-disabled overhead as a percentage of the peel time.
//
// Acceptance bars from the issue, both recorded in BENCH_obs.json and
// EXPERIMENTS.md and enforced by scripts/ci.sh:
//   * derived tracing-disabled overhead  <= 0.1%
//   * measured tracing-enabled overhead  <= 5%
// The profiler's overhead at its default ~1 kHz is recorded
// (profiler_overhead_percent, budget < 10%, see obs/profile.hpp) but
// not gated: on a 1-2 core CI box the measurement is noise-bound.
//
// Usage: bench_micro_obs [--seed N] [--proteins N] [--quick] [--json PATH]
#include <cstdio>
#include <sstream>
#include <string>

#include "bio/cellzome_synth.hpp"
#include "core/kcore.hpp"
#include "obs/json_check.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

volatile std::uint64_t g_sink = 0;

/// Per-iteration nanoseconds of `body` over `iters` runs.
template <typename Body>
double loop_ns(int iters, const Body& body) {
  hp::Timer timer;
  for (int i = 0; i < iters; ++i) body(i);
  return static_cast<double>(timer.nanoseconds()) / iters;
}

/// Best-of-reps seconds for one core decomposition of `h`.
double best_peel_seconds(const hp::hyper::Hypergraph& h, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    hp::Timer timer;
    g_sink = g_sink + hp::hyper::core_decomposition(h, nullptr).max_core;
    const double s = timer.seconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

struct PeelTiming {
  double seconds_off = 0.0;       // tracing disabled
  double seconds_on = 0.0;        // tracing enabled
  double seconds_profiled = 0.0;  // tracing off, SIGPROF sampler on
  std::size_t spans = 0;          // span sites executed per decomposition
  std::size_t counters = 0;       // counter sites executed per decomposition
  std::size_t profile_samples = 0;
};

PeelTiming time_peel(const hp::hyper::Hypergraph& h, int reps) {
  PeelTiming out;

  // Tracing off and on alternate within each rep, and the side that
  // goes first swaps every rep, so host drift over the run lands on
  // both sides alike instead of on their ratio.
  for (int r = 0; r < reps; ++r) {
    for (const bool tracing : {r % 2 == 1, r % 2 == 0}) {
      hp::obs::set_tracing_enabled(tracing);
      if (tracing) hp::obs::reset_tracing();  // off runs record nothing
      hp::Timer timer;
      g_sink = g_sink + hp::hyper::core_decomposition(h, nullptr).max_core;
      const double s = timer.seconds();
      double& best = tracing ? out.seconds_on : out.seconds_off;
      if (r == 0 || s < best) best = s;
    }
  }

  // Count the span/counter sites one decomposition actually executes by
  // re-parsing the trace the last tracing-on run left behind.
  std::ostringstream json;
  hp::obs::write_chrome_trace(json);
  const hp::obs::TraceSummary summary =
      hp::obs::summarize_trace(hp::obs::json::parse(json.str()));
  for (const hp::obs::TraceThreadSummary& thread : summary.threads) {
    out.spans += thread.begin_events;
    out.counters += thread.counter_events;
  }

  hp::obs::set_tracing_enabled(false);
  hp::obs::reset_tracing();

  // Same workload under the default ~1 kHz CPU sampler.
  hp::obs::start_profiling();
  out.seconds_profiled = best_peel_seconds(h, reps);
  hp::obs::stop_profiling();
  out.profile_samples = hp::obs::profile_sample_count();
  hp::obs::reset_profiling();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const hp::Args args{argc, argv};
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 20040426));
  const bool quick = args.get_bool("quick", false);
  const std::string json_path = args.get("json", "");

  const int site_iters = quick ? 2'000'000 : 20'000'000;
  const int peel_reps = quick ? 5 : 10;
  const hp::index_t proteins = static_cast<hp::index_t>(
      args.get_int("proteins", quick ? 20000 : 60000));

  std::puts("=== obs layer: span-site cost and peel overhead ablation ===");

  hp::obs::set_tracing_enabled(false);
  hp::obs::reset_tracing();

  const double baseline_ns = loop_ns(site_iters, [](int i) {
    g_sink = g_sink + static_cast<std::uint64_t>(i);
  });
  const double disabled_span_raw_ns = loop_ns(site_iters, [](int i) {
    HP_TRACE_SPAN("obs.bench.site");
    g_sink = g_sink + static_cast<std::uint64_t>(i);
  });
  const double disabled_counter_raw_ns = loop_ns(site_iters, [](int i) {
    hp::obs::trace_counter("obs.bench.counter", 1.0);
    g_sink = g_sink + static_cast<std::uint64_t>(i);
  });

  // Enabled spans append two events; keep the buffer bounded by
  // resetting between batches (outside the timed region is impossible
  // in one loop, so use modest iteration counts instead).
  const int enabled_iters = quick ? 200'000 : 1'000'000;
  hp::obs::set_tracing_enabled(true);
  hp::obs::reset_tracing();
  const double enabled_span_raw_ns = loop_ns(enabled_iters, [](int i) {
    HP_TRACE_SPAN("obs.bench.site");
    g_sink = g_sink + static_cast<std::uint64_t>(i);
  });
  hp::obs::set_tracing_enabled(false);
  hp::obs::reset_tracing();

  const double disabled_span_ns =
      disabled_span_raw_ns > baseline_ns ? disabled_span_raw_ns - baseline_ns
                                         : 0.0;
  const double disabled_counter_ns =
      disabled_counter_raw_ns > baseline_ns
          ? disabled_counter_raw_ns - baseline_ns
          : 0.0;
  const double enabled_span_ns = enabled_span_raw_ns > baseline_ns
                                     ? enabled_span_raw_ns - baseline_ns
                                     : 0.0;

  {
    hp::Table t{{"site", "cost per call"}};
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f ns", disabled_span_ns);
    t.row().cell("span, tracing off").cell(buf);
    std::snprintf(buf, sizeof buf, "%.2f ns", disabled_counter_ns);
    t.row().cell("counter, tracing off").cell(buf);
    std::snprintf(buf, sizeof buf, "%.2f ns", enabled_span_ns);
    t.row().cell("span, tracing on (B+E)").cell(buf);
    t.print();
  }

  hp::bio::CellzomeParams params = hp::bio::scaled_cellzome_params(proteins);
  params.seed = seed;
  const hp::bio::ComplexDataset data = hp::bio::cellzome_surrogate(params);
  const PeelTiming peel = time_peel(data.hypergraph, peel_reps);

  // Derived upper bound: every span/counter site the instrumented peel
  // executes costs its disabled per-call price when tracing is off.
  const double derived_overhead_ns =
      static_cast<double>(peel.spans) * disabled_span_ns +
      static_cast<double>(peel.counters) * disabled_counter_ns;
  const double derived_overhead_percent =
      peel.seconds_off > 0.0
          ? 100.0 * derived_overhead_ns / (peel.seconds_off * 1e9)
          : 0.0;
  const double enabled_overhead_percent =
      peel.seconds_off > 0.0
          ? 100.0 * (peel.seconds_on - peel.seconds_off) / peel.seconds_off
          : 0.0;
  const double profiler_overhead_percent =
      peel.seconds_off > 0.0
          ? 100.0 * (peel.seconds_profiled - peel.seconds_off) /
                peel.seconds_off
          : 0.0;

  std::printf(
      "\ncore decomposition (scaled surrogate, %lld proteins, best of %d):\n"
      "  tracing off:   %s\n"
      "  tracing on:    %s  (%zu spans, %zu counter samples per peel)\n"
      "  profiler on:   %s  (%zu stack samples at ~1 kHz)\n"
      "  measured enabled overhead:  %.2f%%  (budget <= 5%%)\n"
      "  derived disabled overhead:  %.5f%%  (span sites x disabled cost, "
      "budget <= 0.1%%)\n"
      "  profiler overhead:          %.2f%%  (recorded, not gated)\n",
      static_cast<long long>(proteins), peel_reps,
      hp::format_duration(peel.seconds_off).c_str(),
      hp::format_duration(peel.seconds_on).c_str(), peel.spans, peel.counters,
      hp::format_duration(peel.seconds_profiled).c_str(),
      peel.profile_samples, enabled_overhead_percent,
      derived_overhead_percent, profiler_overhead_percent);

  const bool disabled_ok = derived_overhead_percent <= 0.1;
  const bool enabled_ok = enabled_overhead_percent <= 5.0;
  std::printf("tracing-disabled overhead within 0.1%% budget: %s\n",
              disabled_ok ? "yes" : "NO");
  std::printf("tracing-enabled overhead within 5%% budget: %s\n",
              enabled_ok ? "yes" : "NO");

  if (!json_path.empty()) {
    hp::obs::json::Object{}
        .string("benchmark", "bench_micro_obs")
        .integer("surrogate_proteins", proteins)
        .number("baseline_loop_ns", baseline_ns)
        .number("disabled_span_ns", disabled_span_ns)
        .number("disabled_counter_ns", disabled_counter_ns)
        .number("enabled_span_ns", enabled_span_ns)
        .number("peel_seconds_tracing_off", peel.seconds_off)
        .number("peel_seconds_tracing_on", peel.seconds_on)
        .number("peel_seconds_profiled", peel.seconds_profiled)
        .integer("profiler_samples", peel.profile_samples)
        .integer("trace_spans_per_peel", peel.spans)
        .integer("trace_counters_per_peel", peel.counters)
        .number("derived_disabled_overhead_percent", derived_overhead_percent)
        .number("measured_enabled_overhead_percent", enabled_overhead_percent)
        .number("profiler_overhead_percent", profiler_overhead_percent)
        .boolean("disabled_within_0_1_percent", disabled_ok)
        .boolean("enabled_within_5_percent", enabled_ok)
        .write_file(json_path);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return disabled_ok && enabled_ok ? 0 : 1;
}
