// Ablation B: microbenchmarks of the cover algorithms.
//
//   * greedy over the lazy-deletion queue (our implementation of Fig. 5:
//     a sorted run of the initial keys plus a heap of refreshed ones,
//     util/lazy_heap.hpp)
//   * greedy with a naive full rescan per selection (the O(|V| |F|)
//     baseline the lazy queue replaces)
//   * primal-dual cover (the alternative the paper leaves as "current
//     work"; we also compare solution quality in the counters)
//   * the greedy cover on the scaled surrogates (10^4 and 10^5 proteins,
//     seed 1) for the three runs the report and the server make: unit
//     weights, degree^2 weights, unit 2-multicover
#include <benchmark/benchmark.h>

#include <limits>
#include <map>

#include "bio/cellzome_synth.hpp"
#include "core/cover.hpp"
#include "core/cover_pd.hpp"
#include "core/multicover.hpp"
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

/// Reference greedy that rescans every vertex per selection -- the
/// baseline justifying the lazy heap.
std::vector<hp::index_t> greedy_cover_rescan(
    const hp::hyper::Hypergraph& h, const std::vector<double>& weights) {
  std::vector<bool> covered(h.num_edges(), false);
  std::vector<bool> chosen(h.num_vertices(), false);
  std::vector<hp::index_t> uncovered(h.num_vertices());
  for (hp::index_t v = 0; v < h.num_vertices(); ++v) {
    uncovered[v] = h.vertex_degree(v);
  }
  hp::index_t remaining = h.num_edges();
  std::vector<hp::index_t> cover;
  while (remaining > 0) {
    double best_cost = std::numeric_limits<double>::infinity();
    hp::index_t best = hp::kInvalidIndex;
    for (hp::index_t v = 0; v < h.num_vertices(); ++v) {
      if (chosen[v] || uncovered[v] == 0) continue;
      const double cost = weights[v] / static_cast<double>(uncovered[v]);
      if (cost < best_cost) {
        best_cost = cost;
        best = v;
      }
    }
    chosen[best] = true;
    cover.push_back(best);
    for (hp::index_t e : h.edges_of(best)) {
      if (covered[e]) continue;
      covered[e] = true;
      --remaining;
      for (hp::index_t w : h.vertices_of(e)) {
        if (!chosen[w] && uncovered[w] > 0) --uncovered[w];
      }
    }
  }
  return cover;
}

void BM_GreedyCoverLazyHeap(benchmark::State& state) {
  const auto h = random_hypergraph(
      7, static_cast<hp::index_t>(state.range(0)),
      static_cast<hp::index_t>(state.range(0)), 6);
  const auto w = hp::hyper::unit_weights(h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hp::hyper::greedy_vertex_cover(h, w));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GreedyCoverLazyHeap)->Range(128, 8192)->Complexity();

void BM_GreedyCoverRescan(benchmark::State& state) {
  const auto h = random_hypergraph(
      7, static_cast<hp::index_t>(state.range(0)),
      static_cast<hp::index_t>(state.range(0)), 6);
  const auto w = hp::hyper::unit_weights(h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy_cover_rescan(h, w));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GreedyCoverRescan)->Range(128, 4096)->Complexity();

void BM_PrimalDualCover(benchmark::State& state) {
  const auto h = random_hypergraph(
      7, static_cast<hp::index_t>(state.range(0)),
      static_cast<hp::index_t>(state.range(0)), 6);
  const auto w = hp::hyper::unit_weights(h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hp::hyper::primal_dual_cover(h, w));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PrimalDualCover)->Range(128, 8192)->Complexity();

/// Quality comparison on the Cellzome surrogate (reported as counters:
/// cover sizes and the dual lower bound).
void BM_CoverQualityCellzome(benchmark::State& state) {
  const hp::hyper::Hypergraph h = hp::bio::cellzome_surrogate().hypergraph;
  const auto w = hp::hyper::unit_weights(h);
  for (auto _ : state) {
    const auto greedy = hp::hyper::greedy_vertex_cover(h, w);
    const auto pd = hp::hyper::primal_dual_cover(h, w);
    state.counters["greedy_size"] =
        static_cast<double>(greedy.vertices.size());
    state.counters["primal_dual_size"] =
        static_cast<double>(pd.vertices.size());
    state.counters["dual_lower_bound"] = pd.dual_value;
  }
}
BENCHMARK(BM_CoverQualityCellzome);

void BM_MulticoverCellzome(benchmark::State& state) {
  const hp::hyper::Hypergraph h = hp::bio::cellzome_surrogate().hypergraph;
  const auto w = hp::hyper::degree_squared_weights(h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hp::hyper::greedy_multicover(h, w, 2));
  }
}
BENCHMARK(BM_MulticoverCellzome);

/// The seed-1 scaled surrogate with `proteins` proteins, built once.
const hp::hyper::Hypergraph& scaled_surrogate(hp::index_t proteins) {
  static std::map<hp::index_t, hp::hyper::Hypergraph> cache;
  auto it = cache.find(proteins);
  if (it == cache.end()) {
    hp::bio::CellzomeParams params = hp::bio::scaled_cellzome_params(proteins);
    params.seed = 1;
    it = cache.emplace(proteins, hp::bio::cellzome_surrogate(params).hypergraph)
             .first;
  }
  return it->second;
}

/// range(0): proteins; range(1): 0 = unit, 1 = degree^2, 2 = unit r = 2.
void BM_GreedyCoverScaled(benchmark::State& state) {
  const auto& h = scaled_surrogate(static_cast<hp::index_t>(state.range(0)));
  const auto w = state.range(1) == 1 ? hp::hyper::degree_squared_weights(h)
                                     : hp::hyper::unit_weights(h);
  const hp::index_t r = state.range(1) == 2 ? 2 : 1;
  std::size_t picks = 0;
  for (auto _ : state) {
    const auto cover = hp::hyper::greedy_multicover(h, w, r);
    picks = cover.vertices.size();
    benchmark::DoNotOptimize(cover);
  }
  state.counters["picks"] = static_cast<double>(picks);
}
BENCHMARK(BM_GreedyCoverScaled)
    ->ArgsProduct({{10000, 100000}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
