// Incremental-vs-rebuild ablation for the mutable pipeline
// (src/core/mutate/, DESIGN.md section 12).
//
// Workloads, per instance (the calibrated 1,361-protein surrogate and a
// scaled one for the CI gate):
//
//   * single-edge insert / delete -- one hyperedge edit, then bring the
//     incrementally maintained artifact set (degrees, both histograms,
//     components) back up to date. This is the O(|dirty|) fast path a
//     streaming consumer pays per update.
//   * insert+cores -- the same edit but also refreshing the core
//     decomposition each op. Honest row: any window that touches a
//     hyperedge re-peels the whole decomposition at the next cores()
//     query (DESIGN.md section 12), so this row tracks the peel cost,
//     not the dirty-region size (see the re-peel count the run prints).
//   * batch-100 -- 100 single-edge updates with one coherence point
//     (all artifacts including cores); reported per update. This is the
//     amortization the batch API exists for.
//   * rebuild baseline -- what every update cost before the mutable
//     pipeline existed: throw the context away and rebuild the same
//     artifact set cold (snapshot copy + degrees + histograms +
//     components + cores).
//
// The CI gate (scripts/ci.sh) asserts that on the scaled surrogate the
// cheap-tier single-edge updates AND the amortized batch-100 updates
// are >= 20x faster than the rebuild baseline; the gate value is the
// minimum of those three speedups ("gate_speedup" in BENCH_mutate.json).
//
// The run self-checks: after each workload the structure is restored,
// and the final core ladder must equal the initial one bit-for-bit.
//
// Usage: bench_micro_mutate [--seed N] [--proteins N] [--quick] [--json PATH]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bio/cellzome_synth.hpp"
#include "core/context/analysis_context.hpp"
#include "core/mutate/mutable_context.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using hp::index_t;
using hp::hyper::AnalysisContext;
using hp::hyper::Hypergraph;
using hp::hyper::MutableAnalysisContext;

struct WorkloadTiming {
  std::string name;
  double per_update_seconds = 0.0;
  std::size_t updates = 0;
  double speedup = 0.0;  // rebuild baseline / per-update
};

struct InstanceTiming {
  std::string name;
  hp::count_t num_vertices = 0;
  hp::count_t num_edges = 0;
  double rebuild_seconds = 0.0;
  hp::count_t core_repeels = 0;
  std::vector<WorkloadTiming> workloads;
};

/// A random edge proposal over the (all-alive) base vertex ids.
std::vector<index_t> random_members(hp::Rng& rng, index_t num_vertices) {
  const index_t size = 2 + static_cast<index_t>(rng.uniform(4));
  std::vector<index_t> members;
  for (index_t i = 0; i < size; ++i) {
    members.push_back(static_cast<index_t>(rng.uniform(num_vertices)));
  }
  return members;  // duplicates are fine; add_hyperedge dedups
}

/// Refresh the artifacts maintained with true O(|dirty|)-per-op
/// semantics (plus the O(V) canonical component labeling).
void refresh_cheap(MutableAnalysisContext& ctx) {
  ctx.vertex_degrees();
  ctx.vertex_degree_histogram();
  ctx.edge_size_histogram();
  ctx.components();
}

InstanceTiming run_instance(const std::string& name, const Hypergraph& base,
                            std::uint64_t seed, bool quick) {
  const std::size_t cheap_ops = quick ? 50 : 200;
  const std::size_t core_ops = quick ? 3 : 6;
  const std::size_t batches = quick ? 2 : 3;
  const int rebuild_reps = quick ? 2 : 3;

  InstanceTiming out;
  out.name = name;
  out.num_vertices = base.num_vertices();
  out.num_edges = base.num_edges();

  MutableAnalysisContext ctx{base};
  refresh_cheap(ctx);
  const std::vector<index_t> initial_levels = ctx.cores().level_vertices;
  const std::vector<index_t> initial_edge_levels = ctx.cores().level_edges;

  // --- rebuild baseline: context teardown + cold rebuild of the same
  // --- artifact set, per update (the pre-mutable-pipeline cost). ------
  {
    double best = 0.0;
    for (int rep = 0; rep < rebuild_reps; ++rep) {
      hp::Timer timer;
      AnalysisContext rebuilt{ctx.snapshot().hypergraph};
      rebuilt.vertex_degree_histogram();
      rebuilt.edge_size_histogram();
      rebuilt.components();
      rebuilt.cores();
      const double s = timer.seconds();
      if (rep == 0 || s < best) best = s;
    }
    out.rebuild_seconds = best;
  }

  hp::Rng rng{seed};

  // --- single-edge insert / delete, cheap tier refreshed per op. ------
  {
    double insert_seconds = 0.0;
    double delete_seconds = 0.0;
    for (std::size_t i = 0; i < cheap_ops; ++i) {
      const std::vector<index_t> members =
          random_members(rng, base.num_vertices());
      hp::Timer insert_timer;
      const index_t e = ctx.graph().add_hyperedge(members);
      refresh_cheap(ctx);
      insert_seconds += insert_timer.seconds();

      hp::Timer delete_timer;
      ctx.graph().remove_hyperedge(e);
      refresh_cheap(ctx);
      delete_seconds += delete_timer.seconds();
    }
    out.workloads.push_back({"single-edge insert",
                             insert_seconds / static_cast<double>(cheap_ops),
                             cheap_ops, 0.0});
    out.workloads.push_back({"single-edge delete",
                             delete_seconds / static_cast<double>(cheap_ops),
                             cheap_ops, 0.0});
  }

  // --- the same, with the core decomposition refreshed every op. ------
  {
    double seconds = 0.0;
    ctx.cores();  // drain the seeds accumulated by the cheap workload
    for (std::size_t i = 0; i < core_ops; ++i) {
      const std::vector<index_t> members =
          random_members(rng, base.num_vertices());
      hp::Timer timer;
      const index_t e = ctx.graph().add_hyperedge(members);
      refresh_cheap(ctx);
      ctx.cores();
      ctx.graph().remove_hyperedge(e);
      refresh_cheap(ctx);
      ctx.cores();
      seconds += timer.seconds();
    }
    out.workloads.push_back({"insert+cores",
                             seconds / static_cast<double>(2 * core_ops),
                             2 * core_ops, 0.0});
  }

  // --- batch-100: one coherence point per 100 single-edge updates. ----
  {
    double seconds = 0.0;
    for (std::size_t b = 0; b < batches; ++b) {
      hp::Timer timer;
      std::vector<index_t> added;
      for (int i = 0; i < 50; ++i) {
        added.push_back(
            ctx.graph().add_hyperedge(random_members(rng, base.num_vertices())));
      }
      for (index_t e : added) ctx.graph().remove_hyperedge(e);
      refresh_cheap(ctx);
      ctx.cores();
      seconds += timer.seconds();
    }
    out.workloads.push_back(
        {"batch-100 (amortized)",
         seconds / static_cast<double>(batches * 100), batches * 100, 0.0});
  }

  for (WorkloadTiming& w : out.workloads) {
    w.speedup = w.per_update_seconds > 0.0
                    ? out.rebuild_seconds / w.per_update_seconds
                    : 0.0;
  }
  out.core_repeels = ctx.apply_stats().core_repeels;

  // Self-check: every workload restored the structure, so the final
  // core ladder must be the initial one.
  const hp::hyper::HyperCoreResult& final_cores = ctx.cores();
  if (final_cores.level_vertices != initial_levels ||
      final_cores.level_edges != initial_edge_levels) {
    std::fprintf(stderr,
                 "bench_micro_mutate: %s: core ladder changed after "
                 "restore -- incremental maintenance is broken\n",
                 name.c_str());
    std::exit(1);
  }
  return out;
}

void print_instance(const InstanceTiming& inst) {
  std::printf("\n--- %s (|V| = %llu, |F| = %llu; rebuild baseline %s; "
              "%llu core re-peels) ---\n",
              inst.name.c_str(),
              static_cast<unsigned long long>(inst.num_vertices),
              static_cast<unsigned long long>(inst.num_edges),
              hp::format_duration(inst.rebuild_seconds).c_str(),
              static_cast<unsigned long long>(inst.core_repeels));
  hp::Table t{{"workload", "per update", "updates", "vs rebuild"}};
  for (const WorkloadTiming& w : inst.workloads) {
    char speedup[32];
    std::snprintf(speedup, sizeof speedup, "%.1fx", w.speedup);
    t.row()
        .cell(w.name)
        .cell(hp::format_duration(w.per_update_seconds))
        .cell(std::to_string(w.updates))
        .cell(speedup);
  }
  t.print();
}

void write_json(const std::string& path,
                const std::vector<InstanceTiming>& instances,
                double gate_speedup) {
  std::ofstream out{path};
  out << "{\n  \"benchmark\": \"bench_micro_mutate\",\n"
      << "  \"gate_speedup\": " << gate_speedup << ",\n"
      << "  \"instances\": [\n";
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const InstanceTiming& inst = instances[i];
    out << "    {\n      \"name\": \"" << inst.name << "\",\n"
        << "      \"num_vertices\": " << inst.num_vertices << ",\n"
        << "      \"num_edges\": " << inst.num_edges << ",\n"
        << "      \"rebuild_seconds\": " << inst.rebuild_seconds << ",\n"
        << "      \"core_repeels\": " << inst.core_repeels
        << ",\n      \"workloads\": [\n";
    for (std::size_t j = 0; j < inst.workloads.size(); ++j) {
      const WorkloadTiming& w = inst.workloads[j];
      out << "        {\"name\": \"" << w.name
          << "\", \"per_update_seconds\": " << w.per_update_seconds
          << ", \"updates\": " << w.updates << ", \"speedup\": " << w.speedup
          << "}" << (j + 1 < inst.workloads.size() ? "," : "") << "\n";
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
  const index_t scaled_target = static_cast<index_t>(
      args.get_int("proteins", quick ? 20000 : 100000));

  std::printf("=== mutable pipeline: incremental update vs full context "
              "rebuild ===\n");

  std::vector<InstanceTiming> instances;
  {
    hp::bio::CellzomeParams params;
    params.seed = seed;
    const hp::bio::ComplexDataset data = hp::bio::cellzome_surrogate(params);
    instances.push_back(
        run_instance("cellzome calibrated", data.hypergraph, seed, quick));
  }
  {
    hp::bio::CellzomeParams params =
        hp::bio::scaled_cellzome_params(scaled_target);
    params.seed = seed;
    const hp::bio::ComplexDataset data = hp::bio::cellzome_surrogate(params);
    instances.push_back(
        run_instance("cellzome scaled", data.hypergraph, seed, quick));
  }

  for (const InstanceTiming& inst : instances) print_instance(inst);

  // Gate value: the scaled instance's worst speedup among the workloads
  // with incremental/amortized semantics (the insert+cores row is
  // reported but not gated; see the header comment).
  double gate_speedup = 0.0;
  for (const WorkloadTiming& w : instances.back().workloads) {
    if (w.name == "insert+cores") continue;
    gate_speedup =
        gate_speedup == 0.0 ? w.speedup : std::min(gate_speedup, w.speedup);
  }
  std::printf("\nscaled-surrogate gate speedup (min over gated workloads): "
              "%.1fx\n",
              gate_speedup);

  if (!json_path.empty()) {
    write_json(json_path, instances, gate_speedup);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
