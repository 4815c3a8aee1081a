// Microbenchmark for the AnalysisContext memoization layer.
//
// For each derived artifact and each instance we measure three regimes:
//   * cold    -- first access on a fresh context (build + cache fill);
//   * cached  -- repeated access on a warm context (the memoized path);
//   * rebuild -- the ablation with memoization off: calling the
//               underlying module directly on every access.
// The speedup column is rebuild / cached; the acceptance bar for this
// layer is >= 10x on every artifact (in practice it is orders of
// magnitude, since a cached access is an atomic ready-flag load and a
// relaxed hit-counter increment).
//
// Instances: the Cellzome surrogate plus synthetic row-net hypergraphs
// at two scales; the larger scale is skipped with --quick.
//
// Usage: bench_micro_context [--seed N] [--quick] [--json PATH]
#include <cstdio>
#include <string>
#include <vector>

#include "bio/cellzome_synth.hpp"
#include "core/context/analysis_context.hpp"
#include "core/kcore.hpp"
#include "core/matching.hpp"
#include "core/multicover.hpp"
#include "core/overlap.hpp"
#include "core/stats.hpp"
#include "core/traversal.hpp"
#include "mm/mm_synth.hpp"
#include "mm/mm_to_hypergraph.hpp"
#include "obs/json_check.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

// Sink defeating dead-code elimination of the rebuild baselines.
volatile std::uint64_t g_sink = 0;

using hp::hyper::AnalysisContext;
using hp::hyper::Hypergraph;
using hp::obs::json::Object;

struct ArtifactCase {
  const char* name;
  // Touch the artifact through the context (cached path); returns a
  // token folded into g_sink.
  std::uint64_t (*access)(const AnalysisContext&);
  // Recompute the artifact directly (memoization ablated).
  std::uint64_t (*rebuild)(const Hypergraph&);
};

const ArtifactCase kCases[] = {
    {"components",
     [](const AnalysisContext& c) {
       return static_cast<std::uint64_t>(c.components().count);
     },
     [](const Hypergraph& h) {
       return static_cast<std::uint64_t>(
           hp::hyper::connected_components(h).count);
     }},
    {"vertex degree histogram",
     [](const AnalysisContext& c) {
       return static_cast<std::uint64_t>(
           c.vertex_degree_histogram().frequencies().size());
     },
     [](const Hypergraph& h) {
       return static_cast<std::uint64_t>(
           hp::hyper::vertex_degree_histogram(h).frequencies().size());
     }},
    {"edge size histogram",
     [](const AnalysisContext& c) {
       return static_cast<std::uint64_t>(
           c.edge_size_histogram().frequencies().size());
     },
     [](const Hypergraph& h) {
       return static_cast<std::uint64_t>(
           hp::hyper::edge_size_histogram(h).frequencies().size());
     }},
    {"overlap table",
     [](const AnalysisContext& c) {
       return static_cast<std::uint64_t>(c.overlaps().num_edges());
     },
     [](const Hypergraph& h) {
       return static_cast<std::uint64_t>(
           hp::hyper::OverlapTable{h}.num_edges());
     }},
    {"core decomposition",
     [](const AnalysisContext& c) {
       return static_cast<std::uint64_t>(c.cores().max_core);
     },
     [](const Hypergraph& h) {
       return static_cast<std::uint64_t>(
           hp::hyper::core_decomposition(h, nullptr).max_core);
     }},
    {"summary",
     [](const AnalysisContext& c) {
       return static_cast<std::uint64_t>(c.summary().num_components);
     },
     [](const Hypergraph& h) {
       return static_cast<std::uint64_t>(
           hp::hyper::summarize(h).num_components);
     }},
    {"path summary",
     [](const AnalysisContext& c) {
       return static_cast<std::uint64_t>(c.paths().diameter);
     },
     [](const Hypergraph& h) {
       return static_cast<std::uint64_t>(hp::hyper::path_summary(h).diameter);
     }},
    // Cached reads of a keyed slot also take the short map lock.
    {"cover (deg2, r=2)",
     [](const AnalysisContext& c) {
       return static_cast<std::uint64_t>(
           c.cover(hp::hyper::CoverWeights::kDegreeSquared, 2)
               .vertices.size());
     },
     [](const Hypergraph& h) {
       return static_cast<std::uint64_t>(
           hp::hyper::greedy_multicover(
               h, hp::hyper::degree_squared_weights(h), 2)
               .vertices.size());
     }},
    {"matching",
     [](const AnalysisContext& c) {
       return static_cast<std::uint64_t>(c.matching().edges.size());
     },
     [](const Hypergraph& h) {
       return static_cast<std::uint64_t>(
           hp::hyper::greedy_matching(h).edges.size());
     }},
};

struct ArtifactTiming {
  std::string name;
  double cold_seconds = 0.0;
  double cached_seconds = 0.0;   // per access, warm context
  double rebuild_seconds = 0.0;  // per access, memoization off
  double speedup = 0.0;          // rebuild / cached
};

struct InstanceTiming {
  std::string name;
  hp::count_t num_vertices = 0;
  hp::count_t num_edges = 0;
  std::vector<ArtifactTiming> artifacts;
};

InstanceTiming run_instance(const std::string& name, const Hypergraph& h,
                            int rebuild_reps, int cached_reps) {
  InstanceTiming out;
  out.name = name;
  out.num_vertices = h.num_vertices();
  out.num_edges = h.num_edges();

  const AnalysisContext ctx{h};
  for (const ArtifactCase& item : kCases) {
    ArtifactTiming t;
    t.name = item.name;

    {
      hp::Timer timer;
      g_sink = g_sink + item.access(ctx);  // first touch: builds the artifact
      t.cold_seconds = timer.seconds();
    }
    {
      hp::Timer timer;
      for (int i = 0; i < cached_reps; ++i) g_sink = g_sink + item.access(ctx);
      t.cached_seconds = timer.seconds() / cached_reps;
    }
    {
      hp::Timer timer;
      for (int i = 0; i < rebuild_reps; ++i) g_sink = g_sink + item.rebuild(h);
      t.rebuild_seconds = timer.seconds() / rebuild_reps;
    }
    t.speedup = t.cached_seconds > 0.0 ? t.rebuild_seconds / t.cached_seconds
                                       : 0.0;
    out.artifacts.push_back(std::move(t));
  }
  return out;
}

void print_instance(const InstanceTiming& inst) {
  std::printf("\n--- %s (|V| = %llu, |F| = %llu) ---\n", inst.name.c_str(),
              static_cast<unsigned long long>(inst.num_vertices),
              static_cast<unsigned long long>(inst.num_edges));
  hp::Table t{{"artifact", "cold build", "cached access", "rebuild (ablated)",
               "speedup"}};
  for (const ArtifactTiming& a : inst.artifacts) {
    char speedup[32];
    std::snprintf(speedup, sizeof speedup, "%.0fx", a.speedup);
    t.row()
        .cell(a.name)
        .cell(hp::format_duration(a.cold_seconds))
        .cell(hp::format_duration(a.cached_seconds))
        .cell(hp::format_duration(a.rebuild_seconds))
        .cell(speedup);
  }
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  const hp::Args args{argc, argv};
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 20040426));
  const bool quick = args.get_bool("quick", false);
  const std::string json_path = args.get("json", "");

  // Cheap artifacts need many repetitions for a stable per-access time;
  // expensive rebuilds (all-pairs paths) need few.
  const int rebuild_reps = quick ? 2 : 5;
  const int cached_reps = quick ? 10000 : 100000;

  std::puts(
      "=== AnalysisContext: cold build vs cached access vs rebuild ===");

  std::vector<InstanceTiming> instances;
  {
    hp::bio::CellzomeParams params;
    params.seed = seed;
    const hp::bio::ComplexDataset data = hp::bio::cellzome_surrogate(params);
    instances.push_back(run_instance("cellzome surrogate", data.hypergraph,
                                     rebuild_reps, cached_reps));
  }
  {
    hp::Rng rng{seed ^ 0xC0DE1ULL};
    const Hypergraph h = hp::mm::row_net_hypergraph(
        hp::mm::synthesize_fem_blocks(1024, 10, 1600, rng));
    instances.push_back(
        run_instance("fem blocks 1k", h, rebuild_reps, cached_reps));
  }
  if (!quick) {
    hp::Rng rng{seed ^ 0xC0DE2ULL};
    const Hypergraph h = hp::mm::row_net_hypergraph(
        hp::mm::synthesize_fem_blocks(4096, 12, 6400, rng));
    instances.push_back(
        run_instance("fem blocks 4k", h, rebuild_reps, cached_reps));
  }

  for (const InstanceTiming& inst : instances) print_instance(inst);

  double worst = 0.0;
  bool first = true;
  for (const InstanceTiming& inst : instances) {
    for (const ArtifactTiming& a : inst.artifacts) {
      if (first || a.speedup < worst) worst = a.speedup;
      first = false;
    }
  }
  std::printf(
      "\nworst cached-vs-rebuild speedup across all artifacts: %.0fx\n",
      worst);

  if (!json_path.empty()) {
    std::vector<Object> rows;
    for (const InstanceTiming& inst : instances) {
      std::vector<Object> artifacts;
      for (const ArtifactTiming& a : inst.artifacts) {
        artifacts.emplace_back()
            .string("name", a.name)
            .number("cold_seconds", a.cold_seconds)
            .number("cached_seconds", a.cached_seconds)
            .number("rebuild_seconds", a.rebuild_seconds)
            .number("speedup", a.speedup);
      }
      rows.emplace_back()
          .string("name", inst.name)
          .integer("num_vertices", inst.num_vertices)
          .integer("num_edges", inst.num_edges)
          .objects("artifacts", artifacts);
    }
    Object{}
        .string("benchmark", "bench_micro_context")
        .objects("instances", rows)
        .write_file(json_path);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
