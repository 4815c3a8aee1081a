// Microbenchmarks of the traversal layer: hypergraph BFS, connected
// components, all-pairs path summaries, and overlap-table construction
// (the dominant setup cost of the k-core algorithm).
#include <benchmark/benchmark.h>

#include "bio/cellzome_synth.hpp"
#include "core/overlap.hpp"
#include "core/traversal.hpp"
#include "par/thread_pool.hpp"
#include "util/rng.hpp"

namespace {

hp::hyper::Hypergraph random_hypergraph(std::uint64_t seed,
                                        hp::index_t num_vertices,
                                        hp::index_t num_edges,
                                        hp::index_t max_size) {
  hp::Rng rng{seed};
  hp::hyper::HypergraphBuilder builder{num_vertices};
  std::vector<hp::index_t> members;
  for (hp::index_t e = 0; e < num_edges; ++e) {
    const hp::index_t size =
        2 + static_cast<hp::index_t>(rng.uniform(max_size - 1));
    members.clear();
    for (hp::index_t i = 0; i < size; ++i) {
      members.push_back(static_cast<hp::index_t>(rng.uniform(num_vertices)));
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

void BM_HyperBfs(benchmark::State& state) {
  const auto h = random_hypergraph(
      3, static_cast<hp::index_t>(state.range(0)),
      static_cast<hp::index_t>(state.range(0)), 8);
  hp::index_t source = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hp::hyper::bfs_distances(h, source));
    source = (source + 1) % h.num_vertices();
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HyperBfs)->Range(256, 16384)->Complexity();

void BM_Components(benchmark::State& state) {
  const auto h = random_hypergraph(
      5, static_cast<hp::index_t>(state.range(0)),
      static_cast<hp::index_t>(state.range(0)) / 2, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hp::hyper::connected_components(h));
  }
}
BENCHMARK(BM_Components)->Range(256, 16384);

void BM_OverlapTable(benchmark::State& state) {
  const auto h = random_hypergraph(
      9, static_cast<hp::index_t>(state.range(0)),
      static_cast<hp::index_t>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hp::hyper::OverlapTable{h});
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OverlapTable)->Range(256, 8192)->Complexity();

void BM_PathSummaryCellzome(benchmark::State& state) {
  const auto& h = cellzome();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hp::hyper::path_summary(h));
  }
}
BENCHMARK(BM_PathSummaryCellzome);

/// The seed-1 10^4 surrogate on one lane: the instance and layer that
/// dominate the one-shot report at that scale.
void BM_PathSummaryScaled10k(benchmark::State& state) {
  static const hp::hyper::Hypergraph h = [] {
    hp::bio::CellzomeParams params = hp::bio::scaled_cellzome_params(10000);
    params.seed = 1;
    return hp::bio::cellzome_surrogate(params).hypergraph;
  }();
  hp::par::LaneLimit one_lane{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(hp::hyper::path_summary(h));
  }
}
BENCHMARK(BM_PathSummaryScaled10k)->Unit(benchmark::kMillisecond);

void BM_BfsCellzome(benchmark::State& state) {
  const auto& h = cellzome();
  hp::index_t source = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hp::hyper::bfs_distances(h, source));
    source = (source + 1) % h.num_vertices();
  }
}
BENCHMARK(BM_BfsCellzome);

}  // namespace

BENCHMARK_MAIN();
