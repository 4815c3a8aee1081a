// Ablation: OverlapTable (CSR-of-rows) vs the legacy
// one-unordered_map-per-edge overlap rows it replaced.
//
// Two axes on the same random-hypergraph sweep bench_micro_kcore uses
// (the ablation generator sizes) plus the Cellzome surrogate:
//   * build time -- both are O(sum_v d(v)^2) pair generation, but the
//     flat build writes two contiguous arrays while the map build
//     allocates a node per pair;
//   * footprint -- reported via the "bytes" counter: exact
//     storage_bytes() for the flat layout, a node/bucket estimate for
//     the maps (the maps do not expose their heap usage).
// Results are recorded in EXPERIMENTS.md ("Peeling substrate" section).
#include <benchmark/benchmark.h>

#include <unordered_map>
#include <vector>

#include "bio/cellzome_synth.hpp"
#include "core/overlap.hpp"
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

using MapRows = std::vector<std::unordered_map<hp::index_t, hp::index_t>>;

/// The retired overlap construction: one hash map per edge row.
MapRows build_map_rows(const hp::hyper::Hypergraph& h) {
  MapRows rows(h.num_edges());
  for (hp::index_t v = 0; v < h.num_vertices(); ++v) {
    const auto edges = h.edges_of(v);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      for (std::size_t j = i + 1; j < edges.size(); ++j) {
        ++rows[edges[i]][edges[j]];
        ++rows[edges[j]][edges[i]];
      }
    }
  }
  return rows;
}

/// Heap estimate for the map layout: per-map header + bucket array +
/// one node (pair + hash link) per stored entry. Conservative -- real
/// allocator overhead is higher.
std::size_t map_rows_bytes(const MapRows& rows) {
  std::size_t total = rows.size() * sizeof(rows[0]);
  for (const auto& row : rows) {
    total += row.bucket_count() * sizeof(void*);
    total += row.size() *
             (sizeof(std::pair<hp::index_t, hp::index_t>) + 2 * sizeof(void*));
  }
  return total;
}

void BM_FlatOverlapBuild(benchmark::State& state) {
  const auto h = random_hypergraph(42, static_cast<hp::index_t>(state.range(0)),
                                   static_cast<hp::index_t>(state.range(0)),
                                   8);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const hp::hyper::OverlapTable table{h};
    benchmark::DoNotOptimize(&table);
    bytes = table.storage_bytes();
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FlatOverlapBuild)->Range(64, 4096)->Complexity();

void BM_MapOverlapBuild(benchmark::State& state) {
  const auto h = random_hypergraph(42, static_cast<hp::index_t>(state.range(0)),
                                   static_cast<hp::index_t>(state.range(0)),
                                   8);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const MapRows rows = build_map_rows(h);
    benchmark::DoNotOptimize(&rows);
    bytes = map_rows_bytes(rows);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MapOverlapBuild)->Range(64, 4096)->Complexity();

void BM_FlatOverlapBuildCellzome(benchmark::State& state) {
  const auto& h = cellzome();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const hp::hyper::OverlapTable table{h};
    benchmark::DoNotOptimize(&table);
    bytes = table.storage_bytes();
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_FlatOverlapBuildCellzome);

void BM_MapOverlapBuildCellzome(benchmark::State& state) {
  const auto& h = cellzome();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const MapRows rows = build_map_rows(h);
    benchmark::DoNotOptimize(&rows);
    bytes = map_rows_bytes(rows);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_MapOverlapBuildCellzome);

}  // namespace

BENCHMARK_MAIN();
