// AnalysisContext: every memoized artifact must equal the direct module
// computation, each slot must build exactly once, and concurrent first
// accesses must be safe.
#include "core/context/analysis_context.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bio/cellzome_synth.hpp"
#include "bio/paper_report.hpp"
#include "core/kcore.hpp"
#include "core/matching.hpp"
#include "core/multicover.hpp"
#include "core/overlap.hpp"
#include "core/projection.hpp"
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

    for (const CoverKey key : kPaperCovers) {
      const MulticoverResult direct = greedy_multicover(
          h, key.weights == CoverWeights::kUnit ? unit_weights(h)
                                                : degree_squared_weights(h),
          key.r);
      const MulticoverResult& cached = ctx.cover(key.weights, key.r);
      EXPECT_EQ(cached.vertices, direct.vertices);
      EXPECT_EQ(cached.clamped_edges, direct.clamped_edges);
      EXPECT_EQ(cached.total_weight, direct.total_weight);
      EXPECT_EQ(cached.average_degree, direct.average_degree);
    }
    EXPECT_EQ(ctx.matching().edges, greedy_matching(h).edges);
  }
}

/// The "covers" row of a stats snapshot.
ArtifactStats covers_row(const AnalysisContext& ctx) {
  for (const ArtifactStats& a : ctx.stats().artifacts) {
    if (a.name == "covers") return a;
  }
  ADD_FAILURE() << "no covers row";
  return {};
}

TEST(ContextTest, CoverRequirementsAboveTheLargestEdgeShareOneKey) {
  const Hypergraph h = testing::toy_hypergraph();
  const AnalysisContext ctx{h};
  const index_t limit = h.max_edge_size() + 1;
  const MulticoverResult& clamped = ctx.cover(CoverWeights::kUnit, limit);
  // Every edge is smaller than any r >= limit: one cover, every edge
  // clamped, whatever the r.
  EXPECT_EQ(&ctx.cover(CoverWeights::kUnit, limit + 5), &clamped);
  EXPECT_EQ(&ctx.cover(CoverWeights::kUnit, 4294967295u), &clamped);
  EXPECT_EQ(clamped.clamped_edges.size(), h.num_edges());
  const MulticoverResult cold =
      greedy_multicover(h, unit_weights(h), limit + 5);
  EXPECT_EQ(clamped.vertices, cold.vertices);
  EXPECT_EQ(clamped.clamped_edges, cold.clamped_edges);
  EXPECT_EQ(covers_row(ctx).builds, 1u);

  // r = max edge size is its own key: the largest edges are not clamped.
  const MulticoverResult& largest = ctx.cover(CoverWeights::kUnit, limit - 1);
  EXPECT_NE(&largest, &clamped);
  EXPECT_LT(largest.clamped_edges.size(), h.num_edges());
  // So is the other weighting at the same r.
  EXPECT_NE(&ctx.cover(CoverWeights::kDegreeSquared, limit), &clamped);
  EXPECT_EQ(covers_row(ctx).builds, 3u);
}

TEST(ContextTest, SecondCoverReadIsAHitNotABuild) {
  const AnalysisContext ctx{testing::toy_hypergraph()};
  const MulticoverResult& first = ctx.cover(CoverWeights::kDegreeSquared, 2);
  const ArtifactStats after_first = covers_row(ctx);
  EXPECT_EQ(after_first.builds, 1u);
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_GT(after_first.bytes, 0u);
  EXPECT_EQ(&ctx.cover(CoverWeights::kDegreeSquared, 2), &first);
  const ArtifactStats after_second = covers_row(ctx);
  EXPECT_EQ(after_second.builds, 1u);
  EXPECT_EQ(after_second.hits, 1u);
  EXPECT_EQ(after_second.bytes, after_first.bytes);
}

TEST(ContextTest, CoverRejectsAZeroRequirement) {
  const AnalysisContext ctx{testing::toy_hypergraph()};
  EXPECT_ANY_THROW(ctx.cover(CoverWeights::kUnit, 0));
  EXPECT_EQ(covers_row(ctx).builds, 0u);
}

TEST(ContextTest, EachArtifactBuildsExactlyOnce) {
  const AnalysisContext ctx{testing::toy_hypergraph()};

  // Touch everything twice; summary also touches its dependencies
  // internally.
  for (int round = 0; round < 2; ++round) {
    ctx.components();
    ctx.vertex_degree_histogram();
    ctx.edge_size_histogram();
    ctx.overlaps();
    ctx.cores();
    ctx.summary();
    ctx.paths();
    ctx.cover(CoverWeights::kUnit, 1);
    ctx.matching();
  }

  const ContextStats stats = ctx.stats();
  ASSERT_EQ(stats.artifacts.size(), 9u);
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

TEST(ContextTest, PrefetchBuildsExactlyWhatAnalyzeReads) {
  // Every row with its build count after prefetch(): each slot the
  // report reads once, the three paper covers as three keys, and the
  // matching, which the report does not read, cold.
  const std::map<std::string, count_t> expected = {
      {"components", 1},         {"vertex degree histogram", 1},
      {"edge size histogram", 1}, {"overlap table", 1},
      {"core decomposition", 1}, {"path summary", 1},
      {"summary", 1},            {"covers", 3},
      {"matching", 0}};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    bio::CellzomeParams params;
    params.seed = seed;
    const AnalysisContext ctx{bio::cellzome_surrogate(params).hypergraph};
    ctx.prefetch();
    const ContextStats after_prefetch = ctx.stats();
    std::map<std::string, count_t> built;
    for (const ArtifactStats& a : after_prefetch.artifacts) {
      built[a.name] = a.builds;
    }
    EXPECT_EQ(built, expected);
    EXPECT_EQ(after_prefetch.artifacts.size(), expected.size());

    // Builds only grow, so an equal total means no slot built again.
    bio::analyze(ctx);
    const ContextStats after_analyze = ctx.stats();
    EXPECT_EQ(after_analyze.total_builds(), after_prefetch.total_builds());
    EXPECT_GT(after_analyze.total_hits(), after_prefetch.total_hits());
    EXPECT_EQ(covers_row(ctx).hits, 3u);
  }
}

TEST(ContextTest, RepresentationCostsLeaveTheProjectionsCold) {
  // The storage comparison counts the projections without building
  // them, and without building any context slot either.
  const AnalysisContext ctx{testing::toy_hypergraph()};
  const RepresentationCosts costs = representation_costs(ctx.hypergraph());
  EXPECT_EQ(costs.clique_edges, clique_expansion(ctx.hypergraph()).num_edges());
  EXPECT_EQ(ctx.stats().total_builds(), 0u);
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
        ctx.paths();
        ctx.components();
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // The five touched slots built once each; the histograms stayed cold.
  EXPECT_EQ(ctx.stats().total_builds(), 5u);
  // 8 threads x 50 rounds x 5 artifacts minus the 5 builds.
  EXPECT_EQ(ctx.stats().total_hits() + ctx.stats().total_builds(),
            8u * 50u * 5u + /* summary's internal deps */ 2u * 1u);
}

TEST(ContextTest, ConcurrentFirstCoverReadsBuildEachKeyOnce) {
  Rng rng{11};
  const Hypergraph h = testing::random_hypergraph(rng, 80, 50, 6);
  const AnalysisContext ctx{h};

  // Every thread starts on the same cold key, then walks the others, so
  // first reads of one key race as well as builds of different keys.
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  std::vector<const MulticoverResult*> first(kThreads, nullptr);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ctx, &first, t] {
      first[t] = &ctx.cover(CoverWeights::kDegreeSquared, 2);
      for (int i = 0; i < kRounds; ++i) {
        for (const CoverKey key : kPaperCovers) ctx.cover(key.weights, key.r);
        ctx.matching();
      }
    });
  }
  for (std::thread& w : workers) w.join();

  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(first[t], first[0]);
  const ArtifactStats covers = covers_row(ctx);
  EXPECT_EQ(covers.builds, 3u);
  EXPECT_EQ(covers.hits + covers.builds,
            static_cast<count_t>(kThreads) * (1 + 3 * kRounds));
  EXPECT_EQ(ctx.stats().total_builds(), 4u);  // three covers + matching
}

}  // namespace
}  // namespace hp::hyper
