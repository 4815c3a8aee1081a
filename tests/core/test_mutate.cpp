// MutableHypergraph / MutableAnalysisContext: stable-id edit semantics
// and the incremental-vs-rebuild equivalence contract. The fuzzing
// oracle (check/mutation.hpp) sweeps random traces; these tests pin the
// named edge cases and the artifact-cache bookkeeping.
#include "core/mutate/mutable_context.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "check/mutation.hpp"
#include "core/context/analysis_context.hpp"
#include "core/kcore.hpp"
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

/// Compare every cheap-tier artifact against a from-scratch computation
/// on the materialized snapshot (the equivalence the design promises).
void expect_matches_rebuild(MutableAnalysisContext& ctx) {
  const Hypergraph& snap = ctx.snapshot().hypergraph;
  const std::vector<index_t>& edge_to_stable = ctx.snapshot().edge_to_stable;

  // Degrees: stable vertex ids are preserved verbatim in the snapshot.
  const std::vector<index_t>& degrees = ctx.vertex_degrees();
  ASSERT_EQ(degrees.size(), snap.num_vertices());
  for (index_t v = 0; v < snap.num_vertices(); ++v) {
    EXPECT_EQ(degrees[v], snap.vertex_degree(v)) << "vertex " << v;
  }

  EXPECT_EQ(ctx.vertex_degree_histogram().frequencies(),
            vertex_degree_histogram(snap).frequencies());
  EXPECT_EQ(ctx.vertex_degree_histogram().total(),
            vertex_degree_histogram(snap).total());
  EXPECT_EQ(ctx.edge_size_histogram().frequencies(),
            edge_size_histogram(snap).frequencies());

  const HyperComponents expected_comp = connected_components(snap);
  const HyperComponents& comp = ctx.components();
  EXPECT_EQ(comp.vertex_label, expected_comp.vertex_label);
  EXPECT_EQ(comp.edge_label, expected_comp.edge_label);
  EXPECT_EQ(comp.vertex_counts, expected_comp.vertex_counts);
  EXPECT_EQ(comp.edge_counts, expected_comp.edge_counts);
  EXPECT_EQ(comp.count, expected_comp.count);

  const HyperCoreResult expected_cores = core_decomposition(snap);
  const HyperCoreResult& cores = ctx.cores();
  EXPECT_EQ(cores.vertex_core, expected_cores.vertex_core);
  EXPECT_EQ(cores.max_core, expected_cores.max_core);
  EXPECT_EQ(cores.level_vertices, expected_cores.level_vertices);
  EXPECT_EQ(cores.level_edges, expected_cores.level_edges);
  // Edge artifacts live in stable slot space; map through the snapshot.
  for (index_t compact = 0; compact < snap.num_edges(); ++compact) {
    const index_t stable = edge_to_stable[compact];
    EXPECT_EQ(cores.edge_core[stable], expected_cores.edge_core[compact])
        << "edge slot " << stable;
    EXPECT_EQ(cores.in_reduced[stable] != 0,
              expected_cores.in_reduced[compact] != 0)
        << "edge slot " << stable;
  }
}

TEST(MutateHypergraphTest, RemoveLastEdgeOfVertexLeavesVertexAlive) {
  HypergraphBuilder b{3};
  b.add_edge({0, 1});
  b.add_edge({1, 2});
  MutableHypergraph g{b.build()};

  ASSERT_TRUE(g.remove_hyperedge(0));
  EXPECT_TRUE(g.vertex_alive(0));
  EXPECT_EQ(g.vertex_degree(0), 0u);
  EXPECT_EQ(g.live_edges(), 1u);

  // The degree-0 vertex must still occupy its snapshot slot.
  const Hypergraph& snap = g.snapshot().hypergraph;
  EXPECT_EQ(snap.num_vertices(), 3u);
  EXPECT_EQ(snap.vertex_degree(0), 0u);
  EXPECT_EQ(edge_lists(snap), (std::vector<std::vector<index_t>>{{1, 2}}));

  // Removing the already-dead slot is a no-op, not an error.
  EXPECT_FALSE(g.remove_hyperedge(0));
}

TEST(MutateHypergraphTest, RemoveVertexKillsEdgesThatBecomeEmpty) {
  HypergraphBuilder b{3};
  b.add_edge({0});
  b.add_edge({0, 1});
  MutableHypergraph g{b.build()};

  ASSERT_TRUE(g.remove_vertex(0));
  EXPECT_FALSE(g.vertex_alive(0));
  EXPECT_FALSE(g.edge_alive(0));  // {0} became empty and died
  EXPECT_TRUE(g.edge_alive(1));   // {0,1} shrank to {1}
  EXPECT_EQ(edge_lists(g.snapshot().hypergraph),
            (std::vector<std::vector<index_t>>{{1}}));
  EXPECT_FALSE(g.remove_vertex(0));  // tombstones are idempotent
}

TEST(MutateHypergraphTest, DuplicateEdgeInsertIsAllowedAndDistinct) {
  HypergraphBuilder b{3};
  b.add_edge({0, 1, 2});
  MutableHypergraph g{b.build()};

  const index_t dup = g.add_hyperedge({2, 1, 0, 1});  // dedup + sort
  EXPECT_EQ(dup, 1u);
  EXPECT_EQ(g.live_edges(), 2u);
  EXPECT_EQ(edge_lists(g.snapshot().hypergraph),
            (std::vector<std::vector<index_t>>{{0, 1, 2}, {0, 1, 2}}));
  // The copies are independent: removing one leaves the other.
  ASSERT_TRUE(g.remove_hyperedge(0));
  EXPECT_EQ(edge_lists(g.snapshot().hypergraph),
            (std::vector<std::vector<index_t>>{{0, 1, 2}}));
  EXPECT_EQ(g.snapshot().edge_to_stable, std::vector<index_t>{1});
}

TEST(MutateHypergraphTest, RejectsEmptyAndDeadMemberInserts) {
  MutableHypergraph g{testing::toy_hypergraph()};
  EXPECT_THROW(g.add_hyperedge(std::initializer_list<index_t>{}),
               InvalidInputError);
  EXPECT_THROW(g.add_hyperedge({0, 99}), InvalidInputError);
  ASSERT_TRUE(g.remove_vertex(6));
  EXPECT_THROW(g.add_hyperedge({6}), InvalidInputError);
}

TEST(MutateContextTest, EmptyHypergraphMutations) {
  MutableAnalysisContext ctx{Hypergraph{}};
  expect_matches_rebuild(ctx);

  // Grow from nothing: vertices first, then edges over them.
  const index_t v0 = ctx.graph().add_vertex();
  const index_t v1 = ctx.graph().add_vertex();
  const index_t v2 = ctx.graph().add_vertex();
  expect_matches_rebuild(ctx);
  ctx.graph().add_hyperedge({v0, v1});
  ctx.graph().add_hyperedge({v1, v2});
  expect_matches_rebuild(ctx);
  EXPECT_EQ(ctx.components().count, 1u);

  // And shrink back to empty.
  ctx.graph().remove_vertex(v0);
  ctx.graph().remove_vertex(v1);
  ctx.graph().remove_vertex(v2);
  expect_matches_rebuild(ctx);
  EXPECT_EQ(ctx.graph().live_edges(), 0u);
  EXPECT_EQ(ctx.edge_size_histogram().total(), 0u);
}

TEST(MutateContextTest, IncrementalMatchesRebuildAcrossSeeds) {
  Rng seeder{20040426};
  for (int trial = 0; trial < 50; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const index_t nv = 8 + static_cast<index_t>(seeder.uniform(40));
    const index_t ne = 4 + static_cast<index_t>(seeder.uniform(30));
    const index_t max_size = 2 + static_cast<index_t>(seeder.uniform(6));
    Rng rng{seeder()};
    const Hypergraph base = testing::random_hypergraph(rng, nv, ne, max_size);

    check::MutationTraceOptions options;
    options.num_ops = 24;
    const std::vector<check::MutationOp> trace =
        check::generate_trace(base, seeder(), options);

    MutableAnalysisContext ctx{base};
    expect_matches_rebuild(ctx);  // warm every artifact on the base
    for (const check::MutationOp& op : trace) {
      using Kind = check::MutationOp::Kind;
      try {
        switch (op.kind) {
          case Kind::kAddVertex:
            ctx.graph().add_vertex();
            break;
          case Kind::kRemoveVertex:
            ctx.graph().remove_vertex(op.target);
            break;
          case Kind::kAddEdge:
            ctx.graph().add_hyperedge(op.members);
            break;
          case Kind::kRemoveEdge:
            ctx.graph().remove_hyperedge(op.target);
            break;
        }
      } catch (const InvalidInputError&) {
        // Traces generated against the evolving structure can still
        // contain deliberately invalid ops; skipping matches the oracle.
      }
    }
    expect_matches_rebuild(ctx);
    EXPECT_GT(ctx.apply_stats().mutations, 0u);
  }
}

TEST(MutateContextTest, ApplyStatsCountRepairsAndInvalidations) {
  MutableAnalysisContext ctx{testing::toy_hypergraph()};
  ctx.cores();
  ctx.components();
  AnalysisContext& inner = ctx.analysis();
  inner.cores();  // build a rebuild-tier slot so rebase has work

  ctx.graph().add_hyperedge({0, 4});
  ctx.cores();
  const auto& stats = ctx.apply_stats();
  EXPECT_EQ(stats.applies, 1u);
  EXPECT_EQ(stats.mutations, 1u);
  EXPECT_EQ(stats.core_repeels, 1u);

  // The rebuild tier resets only built slots, and only on next access.
  ctx.analysis();
  EXPECT_GE(stats.slot_invalidations, 1u);
}

TEST(MutateContextTest, IsolatedVertexAddsNeedNoRepeel) {
  MutableAnalysisContext ctx{testing::toy_hypergraph()};
  ctx.cores();
  const count_t deletions_before = ctx.core_peel_stats().vertex_deletions;
  ctx.graph().add_vertex();
  ctx.graph().add_vertex();
  ctx.apply();
  ctx.graph().add_vertex();
  expect_matches_rebuild(ctx);
  EXPECT_EQ(ctx.apply_stats().core_repeels, 0u);
  EXPECT_EQ(ctx.core_peel_stats().vertex_deletions, deletions_before);
  EXPECT_EQ(ctx.cores().level_vertices[0], ctx.graph().num_vertices());
}

TEST(MutateContextTest, AddVertexWindowWithAnEdgeCostsOneRepeel) {
  MutableAnalysisContext ctx{testing::toy_hypergraph()};
  ctx.cores();
  const index_t a = ctx.graph().add_vertex();
  const index_t b = ctx.graph().add_vertex();
  ctx.graph().add_hyperedge({a, b, 0});
  expect_matches_rebuild(ctx);
  EXPECT_EQ(ctx.apply_stats().core_repeels, 1u);
  EXPECT_EQ(ctx.core_peel_stats().repair_fallbacks, 1u);
  EXPECT_EQ(ctx.core_peel_stats().repairs, 0u);
}

/// Two dense blocks {0..5} and {6..9} joined by the bridge {5, 6},
/// plus the isolated vertex 10.
Hypergraph bridged_blocks() {
  HypergraphBuilder b{11};
  b.add_edge({0, 1, 2});
  b.add_edge({1, 2, 3});
  b.add_edge({2, 3, 4, 5});
  b.add_edge({0, 5});
  b.add_edge({5, 6});  // edge 4: the bridge
  b.add_edge({6, 7, 8});
  b.add_edge({7, 8, 9});
  return b.build();
}

TEST(MutateContextTest, BridgeDeleteSplitsWithoutRebuild) {
  MutableAnalysisContext ctx{bridged_blocks()};
  EXPECT_EQ(ctx.components().count, 2u);
  ctx.graph().remove_hyperedge(4);
  expect_matches_rebuild(ctx);
  EXPECT_EQ(ctx.components().count, 3u);
  // A redundant edge leaves the component whole.
  ctx.graph().remove_hyperedge(1);
  expect_matches_rebuild(ctx);
  EXPECT_EQ(ctx.components().count, 3u);
  EXPECT_EQ(ctx.apply_stats().component_rebuilds, 0u);
}

TEST(MutateContextTest, BridgeTraceSplitsAtEveryStep) {
  const Hypergraph base = bridged_blocks();
  const std::vector<check::MutationOp> trace = check::bridge_trace(base, 7);
  ASSERT_EQ(trace.size(), 4u);
  MutableAnalysisContext ctx{base};
  index_t count = ctx.components().count;
  for (const check::MutationOp& op : trace) {
    ASSERT_TRUE(ctx.graph().remove_hyperedge(op.target));
    expect_matches_rebuild(ctx);
    EXPECT_GT(ctx.components().count, count) << check::to_string(op);
    count = ctx.components().count;
  }
  EXPECT_EQ(ctx.apply_stats().component_rebuilds, 0u);
}

TEST(MutateContextTest, ArticulationVertexRemovalSplitsIntoPieces) {
  // Vertex 0 holds three branches together; removing it leaves them
  // and its own tombstone as four components next to the other block.
  HypergraphBuilder b{8};
  b.add_edge({0, 1, 2});
  b.add_edge({0, 3, 4});
  b.add_edge({0, 5});
  b.add_edge({6, 7});
  MutableAnalysisContext ctx{b.build()};
  EXPECT_EQ(ctx.components().count, 2u);
  ctx.graph().remove_vertex(0);
  expect_matches_rebuild(ctx);
  EXPECT_EQ(ctx.components().count, 5u);
  EXPECT_EQ(ctx.apply_stats().component_rebuilds, 0u);
}

TEST(MutateContextTest, MixedWindowSplitsThenMerges) {
  // One unqueried window that splits, re-joins across the old cut,
  // adds vertices and kills a just-added edge, then an insert-only
  // window behind it: removals are resolved on the old edges first,
  // then the new edges are united.
  MutableAnalysisContext ctx{bridged_blocks()};
  ctx.components();
  ctx.graph().remove_hyperedge(4);
  const index_t fresh = ctx.graph().add_vertex();
  ctx.graph().add_hyperedge({9, 10, fresh});
  const index_t doomed = ctx.graph().add_hyperedge({0, 9});
  ctx.graph().remove_vertex(2);
  ctx.graph().remove_hyperedge(doomed);
  ctx.apply();
  ctx.graph().add_hyperedge({4, 10});
  expect_matches_rebuild(ctx);
  EXPECT_EQ(ctx.apply_stats().component_rebuilds, 0u);
}

TEST(MutateContextTest, UnqueriedRemovalWindowsRelabelOnce) {
  // A writer that applies removal after removal without reading the
  // components holds no seeds: the next query relabels once.
  MutableAnalysisContext ctx{bridged_blocks()};
  ctx.components();
  for (index_t e = 0; e < 7; ++e) {
    ctx.graph().remove_hyperedge(e);
    ctx.apply();
  }
  expect_matches_rebuild(ctx);
  EXPECT_EQ(ctx.components().count, 11u);
  EXPECT_EQ(ctx.apply_stats().component_rebuilds, 1u);
}

TEST(MutateContextTest, ContextBytesShrinkWhenSlotsReset) {
  AnalysisContext ctx{testing::toy_hypergraph()};
  ctx.cores();
  ctx.dual();
  const ContextStats before = ctx.stats();
  EXPECT_GT(before.total_bytes(), 0u);

  // Rebase to the same structure: every built slot resets, and the
  // byte accounting must reflect the teardown immediately.
  const index_t reset = ctx.rebase(testing::toy_hypergraph());
  EXPECT_EQ(reset, 2u);
  const ContextStats after = ctx.stats();
  EXPECT_LT(after.total_bytes(), before.total_bytes());
  EXPECT_EQ(after.total_invalidations(), 2u);

  // Artifacts come back on demand and byte accounting grows again.
  ctx.cores();
  EXPECT_GT(ctx.stats().total_bytes(), after.total_bytes());
}

TEST(MutateContextTest, TraceShrinkerFindsMinimalFailingSubsequence) {
  // Synthetic predicate: "fails" iff the trace still contains both the
  // add of edge slot 9 and the removal of vertex 3. ddmin must reduce
  // the 12-op trace to exactly those two ops, preserving order.
  std::vector<check::MutationOp> trace;
  for (int i = 0; i < 12; ++i) {
    check::MutationOp op;
    if (i == 4) {
      op.kind = check::MutationOp::Kind::kAddEdge;
      op.members = {9};
    } else if (i == 8) {
      op.kind = check::MutationOp::Kind::kRemoveVertex;
      op.target = 3;
    } else {
      op.kind = check::MutationOp::Kind::kAddVertex;
    }
    trace.push_back(op);
  }
  const auto still_fails = [](const std::vector<check::MutationOp>& t) {
    bool has_add = false;
    bool has_remove = false;
    for (const auto& op : t) {
      has_add |= op.kind == check::MutationOp::Kind::kAddEdge;
      has_remove |= op.kind == check::MutationOp::Kind::kRemoveVertex;
    }
    return has_add && has_remove;
  };
  const std::vector<check::MutationOp> minimal =
      check::shrink_trace(trace, still_fails);
  ASSERT_EQ(minimal.size(), 2u);
  EXPECT_EQ(minimal[0].kind, check::MutationOp::Kind::kAddEdge);
  EXPECT_EQ(minimal[1].kind, check::MutationOp::Kind::kRemoveVertex);
  EXPECT_EQ(check::to_string(minimal[0]), "add-edge 9");
  EXPECT_EQ(check::to_string(minimal[1]), "remove-vertex 3");
}

TEST(MutateContextTest, MutationOracleCleanOnToyAndRandomInstances) {
  std::vector<check::CheckFailure> failures;
  check::check_mutations(testing::toy_hypergraph(), 32, failures);
  Rng rng{7};
  const Hypergraph random = testing::random_hypergraph(rng, 30, 20, 5);
  check::check_mutations(random, 32, failures);
  for (const auto& f : failures) {
    ADD_FAILURE() << f.oracle << ": " << f.detail;
  }
}

}  // namespace
}  // namespace hp::hyper
