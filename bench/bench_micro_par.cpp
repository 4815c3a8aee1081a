// Serial-vs-pool ablation for the shared work-stealing runtime
// (src/par/, DESIGN.md section 11).
//
// Each workload runs twice on the same instance: once with the pool
// forced serial via LaneLimit{1} (the exact code path HP_THREADS=1
// takes) and once on the global pool's full lane count. The speedup
// column is serial / pool, best-of-reps on both sides. Workloads:
//
//   * all-sources BFS -- hyper::path_summary, the gate workload: CI
//     requires >= 3x on an 8-core machine (scripts/ci.sh enforces this
//     only when the host actually has >= 8 hardware threads);
//   * parallel k-core -- core_decomposition's bulk frontier rounds and
//     containment sweeps;
//   * context prefetch -- AnalysisContext::prefetch() fanning artifact
//     builds across the pool vs building the slots one by one.
//
// Results additionally verify the determinism contract: the serial and
// pool runs must agree exactly, or the binary exits nonzero.
//
// Usage: bench_micro_par [--seed N] [--quick] [--json PATH]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bio/cellzome_synth.hpp"
#include "core/context/analysis_context.hpp"
#include "core/kcore.hpp"
#include "core/traversal.hpp"
#include "mm/mm_synth.hpp"
#include "mm/mm_to_hypergraph.hpp"
#include "par/thread_pool.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using hp::hyper::Hypergraph;

volatile std::uint64_t g_sink = 0;

struct WorkloadTiming {
  std::string name;
  double serial_seconds = 0.0;  // LaneLimit{1}, best of reps
  double pool_seconds = 0.0;    // full lanes, best of reps
  double speedup = 0.0;         // serial / pool
  bool deterministic = true;    // serial and pool outputs agreed
};

struct InstanceTiming {
  std::string name;
  hp::count_t num_vertices = 0;
  hp::count_t num_edges = 0;
  std::vector<WorkloadTiming> workloads;
};

/// Best-of-reps wall time for `fn()`, returning fn's token for the
/// determinism cross-check.
template <typename Fn>
double best_of(int reps, std::uint64_t& token, const Fn& fn) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    hp::Timer timer;
    token = fn();
    const double s = timer.seconds();
    if (i == 0 || s < best) best = s;
  }
  g_sink = g_sink + token;
  return best;
}

template <typename Fn>
WorkloadTiming ablate(const char* name, int reps, const Fn& fn) {
  WorkloadTiming t;
  t.name = name;
  std::uint64_t serial_token = 0;
  {
    hp::par::LaneLimit serial{1};
    t.serial_seconds = best_of(reps, serial_token, fn);
  }
  std::uint64_t pool_token = 0;
  t.pool_seconds = best_of(reps, pool_token, fn);
  t.speedup =
      t.pool_seconds > 0.0 ? t.serial_seconds / t.pool_seconds : 0.0;
  t.deterministic = serial_token == pool_token;
  return t;
}

InstanceTiming run_instance(const std::string& name, const Hypergraph& h,
                            int reps) {
  InstanceTiming out;
  out.name = name;
  out.num_vertices = h.num_vertices();
  out.num_edges = h.num_edges();

  out.workloads.push_back(ablate("all-sources BFS", reps, [&] {
    const hp::hyper::HyperPathSummary s = hp::hyper::path_summary(h);
    return static_cast<std::uint64_t>(s.connected_pairs) * 131 +
           static_cast<std::uint64_t>(s.diameter);
  }));

  out.workloads.push_back(ablate("parallel k-core", reps, [&] {
    const hp::hyper::HyperCoreResult r = hp::hyper::core_decomposition(h);
    std::uint64_t token = r.max_core;
    for (hp::index_t core : r.vertex_core) token = token * 31 + core;
    for (hp::index_t core : r.edge_core) token = token * 31 + core;
    return token;
  }));

  out.workloads.push_back(ablate("context prefetch", reps, [&] {
    // Fresh context per rep: prefetch on a warm context is a no-op.
    const hp::hyper::AnalysisContext ctx{h};
    ctx.prefetch();
    return static_cast<std::uint64_t>(ctx.cores().max_core) * 131 +
           static_cast<std::uint64_t>(ctx.components().count);
  }));

  return out;
}

void print_instance(const InstanceTiming& inst) {
  std::printf("\n--- %s (|V| = %llu, |F| = %llu) ---\n", inst.name.c_str(),
              static_cast<unsigned long long>(inst.num_vertices),
              static_cast<unsigned long long>(inst.num_edges));
  hp::Table t{{"workload", "serial (1 lane)", "pool", "speedup",
               "deterministic"}};
  for (const WorkloadTiming& w : inst.workloads) {
    char speedup[32];
    std::snprintf(speedup, sizeof speedup, "%.2fx", w.speedup);
    t.row()
        .cell(w.name)
        .cell(hp::format_duration(w.serial_seconds))
        .cell(hp::format_duration(w.pool_seconds))
        .cell(speedup)
        .cell(w.deterministic ? "yes" : "NO");
  }
  t.print();
}

void write_json(const std::string& path,
                const std::vector<InstanceTiming>& instances,
                double bfs_speedup) {
  std::ofstream out{path};
  out << "{\n  \"benchmark\": \"bench_micro_par\",\n"
      << "  \"hardware_threads\": " << hp::par::hardware_threads() << ",\n"
      << "  \"pool_lanes\": "
      << hp::par::ThreadPool::global().thread_count() << ",\n"
      << "  \"bfs_speedup\": " << bfs_speedup << ",\n"
      << "  \"instances\": [\n";
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const InstanceTiming& inst = instances[i];
    out << "    {\n      \"name\": \"" << inst.name << "\",\n"
        << "      \"num_vertices\": " << inst.num_vertices << ",\n"
        << "      \"num_edges\": " << inst.num_edges << ",\n"
        << "      \"workloads\": [\n";
    for (std::size_t j = 0; j < inst.workloads.size(); ++j) {
      const WorkloadTiming& w = inst.workloads[j];
      out << "        {\"name\": \"" << w.name
          << "\", \"serial_seconds\": " << w.serial_seconds
          << ", \"pool_seconds\": " << w.pool_seconds
          << ", \"speedup\": " << w.speedup << ", \"deterministic\": "
          << (w.deterministic ? "true" : "false") << "}"
          << (j + 1 < inst.workloads.size() ? "," : "") << "\n";
    }
    out << "      ]\n    }" << (i + 1 < instances.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const hp::Args args{argc, argv};
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 20040426));
  const bool quick = args.get_bool("quick", false);
  const std::string json_path = args.get("json", "");
  const int reps = quick ? 2 : 4;

  std::printf(
      "=== src/par ablation: serial (LaneLimit 1) vs pool (%d lanes, %d "
      "hardware) ===\n",
      hp::par::ThreadPool::global().thread_count(),
      hp::par::hardware_threads());

  std::vector<InstanceTiming> instances;
  {
    hp::bio::CellzomeParams params;
    params.seed = seed;
    const hp::bio::ComplexDataset data = hp::bio::cellzome_surrogate(params);
    instances.push_back(
        run_instance("cellzome surrogate", data.hypergraph, reps));
  }
  {
    hp::Rng rng{seed ^ 0xC0DE1ULL};
    const Hypergraph h = hp::mm::row_net_hypergraph(
        hp::mm::synthesize_fem_blocks(1024, 10, 1600, rng));
    instances.push_back(run_instance("fem blocks 1k", h, reps));
  }
  if (!quick) {
    hp::Rng rng{seed ^ 0xC0DE2ULL};
    const Hypergraph h = hp::mm::row_net_hypergraph(
        hp::mm::synthesize_fem_blocks(4096, 12, 6400, rng));
    instances.push_back(run_instance("fem blocks 4k", h, reps));
  }

  for (const InstanceTiming& inst : instances) print_instance(inst);

  // The CI gate reads the best all-sources BFS speedup across instances
  // (the largest instance dominates on real hardware; on a 1-2 core
  // machine the number is ~1 and the gate is skipped by scripts/ci.sh).
  double bfs_speedup = 0.0;
  bool determinism_ok = true;
  for (const InstanceTiming& inst : instances) {
    for (const WorkloadTiming& w : inst.workloads) {
      if (w.name == "all-sources BFS") {
        bfs_speedup = std::max(bfs_speedup, w.speedup);
      }
      determinism_ok = determinism_ok && w.deterministic;
    }
  }
  std::printf("\nbest all-sources BFS serial/pool speedup: %.2fx\n",
              bfs_speedup);

  if (!json_path.empty()) {
    write_json(json_path, instances, bfs_speedup);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!determinism_ok) {
    std::fprintf(stderr,
                 "bench_micro_par: serial and pool runs disagreed -- "
                 "determinism contract violated\n");
    return 1;
  }
  return 0;
}
