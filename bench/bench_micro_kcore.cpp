// Microbenchmarks of the hypergraph k-core implementations.
//
//   * core_decomposition -- the paper's algorithm (Fig. 4) as the
//     bulk-synchronous frontier peel, the "parallel algorithm" its
//     section 3 calls for, at 1/2/4 lanes (par::LaneLimit)
//   * naive set-comparison reference (what the paper argues against)
//
// Size sweep over random hypergraphs and a Cellzome-scale instance.
// Substrate counters (containment probes, cascaded deletions, frontier
// rounds) are exported on the Cellzome run so the paper's O(|E|
// (Delta_2,F + Delta_V log Delta_2,F)) bound is empirically visible.
//
// Lane ablation mode (scripts/ci.sh): invoked with --quick/--json, the
// binary skips google-benchmark and instead times the peel at one lane
// and at all pool lanes on a scaled Cellzome surrogate (--proteins,
// >= 10^6 in CI). Before any timing it self-checks that the engine
// equals the naive reference exactly on the calibrated surrogate and
// that one lane equals all lanes at scale, and it writes
// BENCH_kcore.json.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bio/cellzome_synth.hpp"
#include "core/kcore.hpp"
#include "core/kcore_naive.hpp"
#include "obs/json_check.hpp"
#include "par/thread_pool.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

hp::hyper::Hypergraph random_hypergraph(std::uint64_t seed,
                                        hp::index_t num_vertices,
                                        hp::index_t num_edges,
                                        hp::index_t max_size) {
  hp::Rng rng{seed};
  hp::hyper::HypergraphBuilder builder{num_vertices};
  std::vector<hp::index_t> members;
  for (hp::index_t e = 0; e < num_edges; ++e) {
    const hp::index_t size = 2 + static_cast<hp::index_t>(
                                     rng.uniform(max_size - 1));
    members.clear();
    for (hp::index_t i = 0; i < size; ++i) {
      members.push_back(
          static_cast<hp::index_t>(rng.uniform(num_vertices)));
    }
    builder.add_edge(members);
  }
  return builder.build();
}

const hp::hyper::Hypergraph& cellzome() {
  static const hp::hyper::Hypergraph h =
      hp::bio::cellzome_surrogate().hypergraph;
  return h;
}

void BM_KCorePeel(benchmark::State& state) {
  const auto h = random_hypergraph(42, static_cast<hp::index_t>(state.range(0)),
                                   static_cast<hp::index_t>(state.range(0)),
                                   8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hp::hyper::core_decomposition(h));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_KCorePeel)->Range(64, 4096)->Complexity();

void BM_KCoreNaive(benchmark::State& state) {
  const auto h = random_hypergraph(42, static_cast<hp::index_t>(state.range(0)),
                                   static_cast<hp::index_t>(state.range(0)),
                                   8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hp::hyper::core_decomposition_naive(h));
  }
  state.SetComplexityN(state.range(0));
}
// The naive reference is quadratic-plus; cap the sweep so the binary
// still completes quickly.
BENCHMARK(BM_KCoreNaive)->Range(64, 1024)->Complexity();

void BM_KCoreLanes(benchmark::State& state) {
  const auto h = random_hypergraph(42, 2048, 2048, 8);
  const hp::par::LaneLimit limit{static_cast<int>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(hp::hyper::core_decomposition(h));
  }
}
BENCHMARK(BM_KCoreLanes)->Arg(1)->Arg(2)->Arg(4);

void BM_KCoreCellzomePeel(benchmark::State& state) {
  const auto& h = cellzome();
  hp::hyper::PeelStats stats;
  for (auto _ : state) {
    stats = {};
    benchmark::DoNotOptimize(hp::hyper::core_decomposition(h, &stats));
  }
  // Substrate counters for the last run: containment work (the peel
  // recounts overlaps per shrunken edge) plus peel shape.
  state.counters["containment_probes"] =
      static_cast<double>(stats.containment_probes);
  state.counters["cascaded_deletions"] =
      static_cast<double>(stats.cascaded_edge_deletions);
  state.counters["peel_rounds"] = static_cast<double>(stats.peel_rounds);
  state.counters["peak_queue"] =
      static_cast<double>(stats.peak_queue_length);
}
BENCHMARK(BM_KCoreCellzomePeel);

void BM_KCoreCellzomeNaive(benchmark::State& state) {
  const auto& h = cellzome();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hp::hyper::core_decomposition_naive(h));
  }
}
BENCHMARK(BM_KCoreCellzomeNaive);

// --- Lane ablation (scripts/ci.sh mode) ------------------------------

bool bit_identical(const hp::hyper::HyperCoreResult& a,
                   const hp::hyper::HyperCoreResult& b) {
  return a.max_core == b.max_core && a.vertex_core == b.vertex_core &&
         a.edge_core == b.edge_core && a.in_reduced == b.in_reduced &&
         a.level_vertices == b.level_vertices &&
         a.level_edges == b.level_edges;
}

template <typename Fn>
double best_seconds(int reps, const Fn& fn) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    hp::Timer timer;
    benchmark::DoNotOptimize(fn());
    const double s = timer.seconds();
    if (i == 0 || s < best) best = s;
  }
  return best;
}

hp::hyper::HyperCoreResult one_lane_peel(const hp::hyper::Hypergraph& h) {
  const hp::par::LaneLimit limit{1};
  return hp::hyper::core_decomposition(h);
}

int run_lane_ablation(const hp::Args& args) {
  const hp::index_t proteins =
      static_cast<hp::index_t>(args.get_int("proteins", 1000000));
  const bool quick = args.get_bool("quick", false);
  const std::string json_path = args.get("json", "");
  const int reps = quick ? 2 : 3;

  std::printf("=== k-core lane ablation: %d pool lanes, %d hardware ===\n",
              hp::par::ThreadPool::global().thread_count(),
              hp::par::hardware_threads());

  // Self-check 1 (paper scale): the engine equals the naive reference
  // in every field before any timing is trusted.
  if (!bit_identical(hp::hyper::core_decomposition(cellzome()),
                     hp::hyper::core_decomposition_naive(cellzome()))) {
    std::fprintf(stderr, "lane ablation: engine and naive reference "
                         "disagree on the Cellzome surrogate\n");
    return 1;
  }

  hp::bio::CellzomeParams params = hp::bio::scaled_cellzome_params(proteins);
  const hp::hyper::Hypergraph big =
      hp::bio::cellzome_surrogate(params).hypergraph;
  std::printf("scaled surrogate: |V| = %llu, |F| = %llu, |pins| = %llu\n",
              static_cast<unsigned long long>(big.num_vertices()),
              static_cast<unsigned long long>(big.num_edges()),
              static_cast<unsigned long long>(big.num_pins()));

  // Self-check 2 (scale): one lane and all lanes, compared bit for bit.
  hp::hyper::PeelStats stats;
  {
    const auto all_lanes = hp::hyper::core_decomposition(big, &stats);
    if (!bit_identical(all_lanes, one_lane_peel(big))) {
      std::fprintf(stderr, "lane ablation: one lane and all lanes disagree "
                           "on the scaled surrogate -- refusing to time\n");
      return 1;
    }
    std::printf("self-check ok: lane counts bit-identical (max_core = %u)\n",
                static_cast<unsigned>(all_lanes.max_core));
  }

  const double one_lane_seconds =
      best_seconds(reps, [&] { return one_lane_peel(big); });
  const double all_lanes_seconds = best_seconds(
      reps, [&] { return hp::hyper::core_decomposition(big); });
  const double speedup =
      all_lanes_seconds > 0.0 ? one_lane_seconds / all_lanes_seconds : 0.0;

  std::printf("one lane: %.3fs   all lanes: %.3fs   speedup: %.2fx\n",
              one_lane_seconds, all_lanes_seconds, speedup);
  std::printf("frontier pushes: %llu   wasted: %llu\n",
              static_cast<unsigned long long>(stats.frontier_pushes),
              static_cast<unsigned long long>(stats.frontier_wasted));

  if (!json_path.empty()) {
    hp::obs::json::Object{}
        .string("benchmark", "bench_micro_kcore")
        .integer("hardware_threads", hp::par::hardware_threads())
        .integer("pool_lanes", hp::par::ThreadPool::global().thread_count())
        .integer("proteins", proteins)
        .integer("num_vertices", big.num_vertices())
        .integer("num_edges", big.num_edges())
        .boolean("self_check", true)
        .number("one_lane_seconds", one_lane_seconds)
        .number("all_lanes_seconds", all_lanes_seconds)
        .number("lane_speedup", speedup)
        .integer("frontier_pushes", stats.frontier_pushes)
        .integer("frontier_wasted", stats.frontier_wasted)
        .write_file(json_path);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --quick/--json select the ablation mode used by scripts/ci.sh;
  // without them this is a normal google-benchmark binary.
  const hp::Args args{argc, argv};
  if (args.get_bool("quick", false) || !args.get("json", "").empty()) {
    return run_lane_ablation(args);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
