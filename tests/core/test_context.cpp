// AnalysisContext: every memoized artifact must be structurally equal
// to the direct module computation, each slot must build exactly once,
// and concurrent first accesses must be safe.
#include "core/context/analysis_context.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/dual.hpp"
#include "core/kcore.hpp"
#include "core/overlap.hpp"
#include "core/projection.hpp"
#include "core/reduce.hpp"
#include "core/stats.hpp"
#include "core/traversal.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace hp::hyper {
namespace {

std::vector<std::vector<index_t>> edge_lists(const Hypergraph& h) {
  std::vector<std::vector<index_t>> out;
  for (index_t e = 0; e < h.num_edges(); ++e) {
    const auto members = h.vertices_of(e);
    out.emplace_back(members.begin(), members.end());
  }
  return out;
}

void expect_same_hypergraph(const Hypergraph& a, const Hypergraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(edge_lists(a), edge_lists(b));
}

void expect_same_graph(const graph::Graph& a, const graph::Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (index_t v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "neighbor lists differ at vertex " << v;
  }
}

std::vector<std::vector<std::pair<index_t, index_t>>> overlap_rows(
    const OverlapTable& t) {
  std::vector<std::vector<std::pair<index_t, index_t>>> rows;
  for (index_t f = 0; f < t.num_edges(); ++f) {
    std::vector<std::pair<index_t, index_t>> row;
    const auto neighbors = t.neighbors(f);
    const auto counts = t.counts(f);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      row.emplace_back(neighbors[i], counts[i]);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(ContextTest, ArtifactsMatchDirectComputationAcrossSeeds) {
  Rng seeder{20040426};
  for (int trial = 0; trial < 25; ++trial) {
    const index_t nv = 20 + static_cast<index_t>(seeder.uniform(40));
    const index_t ne = 10 + static_cast<index_t>(seeder.uniform(30));
    const index_t max_size = 2 + static_cast<index_t>(seeder.uniform(6));
    Rng rng{seeder()};
    const Hypergraph h = testing::random_hypergraph(rng, nv, ne, max_size);
    const AnalysisContext ctx{h};
    SCOPED_TRACE("trial " + std::to_string(trial));

    expect_same_hypergraph(ctx.hypergraph(), h);
    expect_same_hypergraph(ctx.dual(), dual(h));
    expect_same_graph(ctx.clique_projection(), clique_expansion(h));
    EXPECT_EQ(ctx.star_baits(), default_baits(h));
    expect_same_graph(ctx.star_projection(),
                      star_expansion(h, default_baits(h)));
    expect_same_graph(ctx.intersection_projection(),
                      intersection_graph(h, nullptr));

    const HyperComponents direct_components = connected_components(h);
    EXPECT_EQ(ctx.components().count, direct_components.count);
    EXPECT_EQ(ctx.components().vertex_label, direct_components.vertex_label);
    EXPECT_EQ(ctx.components().edge_label, direct_components.edge_label);

    EXPECT_EQ(ctx.vertex_degree_histogram().frequencies(),
              vertex_degree_histogram(h).frequencies());
    EXPECT_EQ(ctx.edge_size_histogram().frequencies(),
              edge_size_histogram(h).frequencies());

    const OverlapTable direct_overlaps{h};
    EXPECT_EQ(ctx.overlaps().max_degree2(), direct_overlaps.max_degree2());
    EXPECT_EQ(overlap_rows(ctx.overlaps()), overlap_rows(direct_overlaps));

    const SubHypergraph direct_reduced = reduce(h);
    expect_same_hypergraph(ctx.reduced().hypergraph,
                           direct_reduced.hypergraph);
    EXPECT_EQ(ctx.reduced().vertex_to_parent,
              direct_reduced.vertex_to_parent);
    EXPECT_EQ(ctx.reduced().edge_to_parent, direct_reduced.edge_to_parent);

    const HyperCoreResult direct_cores = core_decomposition(h, nullptr);
    EXPECT_EQ(ctx.cores().max_core, direct_cores.max_core);
    EXPECT_EQ(ctx.cores().vertex_core, direct_cores.vertex_core);
    EXPECT_EQ(ctx.cores().edge_core, direct_cores.edge_core);
    EXPECT_EQ(ctx.cores().level_vertices, direct_cores.level_vertices);
    EXPECT_EQ(ctx.cores().level_edges, direct_cores.level_edges);

    EXPECT_EQ(to_string(ctx.summary()), to_string(summarize(h)));

    const HyperPathSummary direct_paths = path_summary(h);
    EXPECT_EQ(ctx.paths().diameter, direct_paths.diameter);
    EXPECT_DOUBLE_EQ(ctx.paths().average_length,
                     direct_paths.average_length);
    EXPECT_EQ(ctx.paths().connected_pairs, direct_paths.connected_pairs);

    const RepresentationCosts direct_costs = representation_costs(h);
    const RepresentationCosts ctx_costs = ctx.representation_costs();
    EXPECT_EQ(ctx_costs.hypergraph_pins, direct_costs.hypergraph_pins);
    EXPECT_EQ(ctx_costs.hypergraph_bytes, direct_costs.hypergraph_bytes);
    EXPECT_EQ(ctx_costs.clique_edges, direct_costs.clique_edges);
    EXPECT_EQ(ctx_costs.clique_bytes, direct_costs.clique_bytes);
    EXPECT_EQ(ctx_costs.star_edges, direct_costs.star_edges);
    EXPECT_EQ(ctx_costs.star_bytes, direct_costs.star_bytes);
    EXPECT_EQ(ctx_costs.intersection_edges, direct_costs.intersection_edges);
    EXPECT_EQ(ctx_costs.intersection_bytes, direct_costs.intersection_bytes);
  }
}

TEST(ContextTest, EachArtifactBuildsExactlyOnce) {
  const AnalysisContext ctx{testing::toy_hypergraph()};

  // Touch everything twice; composite artifacts (summary, costs) also
  // touch their dependencies internally.
  for (int round = 0; round < 2; ++round) {
    ctx.dual();
    ctx.clique_projection();
    ctx.star_baits();
    ctx.star_projection();
    ctx.intersection_projection();
    ctx.components();
    ctx.vertex_degree_histogram();
    ctx.edge_size_histogram();
    ctx.overlaps();
    ctx.reduced();
    ctx.cores();
    ctx.summary();
    ctx.paths();
    ctx.representation_costs();
  }

  const ContextStats stats = ctx.stats();
  ASSERT_FALSE(stats.artifacts.empty());
  for (const ArtifactStats& a : stats.artifacts) {
    EXPECT_EQ(a.builds, 1u) << a.name;
    EXPECT_GE(a.hits, 1u) << a.name;
    EXPECT_GT(a.bytes, 0u) << a.name;
  }
  EXPECT_EQ(stats.total_builds(), stats.artifacts.size());
}

TEST(ContextTest, UntouchedSlotsReportZeroBuilds) {
  const AnalysisContext ctx{testing::toy_hypergraph()};
  ctx.components();
  const ContextStats stats = ctx.stats();
  for (const ArtifactStats& a : stats.artifacts) {
    if (a.name == "components") {
      EXPECT_EQ(a.builds, 1u);
    } else {
      EXPECT_EQ(a.builds, 0u) << a.name;
      EXPECT_EQ(a.hits, 0u) << a.name;
    }
  }
}

TEST(ContextTest, PeelStatsComeFromTheCachedDecomposition) {
  const Hypergraph h = testing::toy_hypergraph();
  const AnalysisContext ctx{h};
  PeelStats direct;
  core_decomposition(h, &direct);
  EXPECT_EQ(ctx.core_peel_stats().overlap_decrements,
            direct.overlap_decrements);
  EXPECT_EQ(ctx.core_peel_stats().peel_rounds, direct.peel_rounds);
  // Asking for the stats must not rebuild the decomposition.
  for (const ArtifactStats& a : ctx.stats().artifacts) {
    if (a.name == "core decomposition") EXPECT_EQ(a.builds, 1u);
  }
}

TEST(ContextTest, ConcurrentFirstAccessBuildsOnce) {
  Rng rng{7};
  const Hypergraph h = testing::random_hypergraph(rng, 60, 40, 5);
  const AnalysisContext ctx{h};

  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&ctx] {
      for (int i = 0; i < 50; ++i) {
        ctx.summary();
        ctx.cores();
        ctx.overlaps();
        ctx.clique_projection();
        ctx.components();
      }
    });
  }
  for (std::thread& w : workers) w.join();

  for (const ArtifactStats& a : ctx.stats().artifacts) {
    if (a.builds > 0) EXPECT_EQ(a.builds, 1u) << a.name;
  }
  // 8 threads x 50 rounds x 5 artifacts minus the 5 builds.
  EXPECT_EQ(ctx.stats().total_hits() + ctx.stats().total_builds(),
            8u * 50u * 5u + /* summary's internal deps */ 2u * 1u);
}

}  // namespace
}  // namespace hp::hyper
