#include "check/oracles.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "core/binary_io.hpp"
#include "core/context/analysis_context.hpp"
#include "core/cover.hpp"
#include "core/dual.hpp"
#include "core/generalized_core.hpp"
#include "core/hypergraph_io.hpp"
#include "core/kcore.hpp"
#include "core/kcore_naive.hpp"
#include "core/matching.hpp"
#include "core/multicover.hpp"
#include "core/overlap.hpp"
#include "core/pajek.hpp"
#include "core/projection.hpp"
#include "core/reduce.hpp"
#include "core/snapshot/snapshot.hpp"
#include "core/stats.hpp"
#include "core/traversal.hpp"
#include "check/generator.hpp"
#include "check/mutation.hpp"
#include "check/protocol_fuzz.hpp"
#include "graph/graph_kcore.hpp"
#include "mm/matrix_market.hpp"
#include "mm/mm_to_hypergraph.hpp"
#include "par/thread_pool.hpp"

namespace hp::check {

using hyper::Hypergraph;

namespace {

void fail(std::vector<CheckFailure>& failures, const char* oracle,
          std::string detail) {
  failures.push_back(CheckFailure{oracle, std::move(detail)});
}

/// Compare two core decompositions on every field: the lowest-id rule
/// for identical residual edges (kcore.hpp) makes the result a function
/// of the input, so edge cores and reduction masks must match too.
void diff_cores_exact(const hyper::HyperCoreResult& a,
                      const hyper::HyperCoreResult& b, const char* label,
                      std::vector<CheckFailure>& failures) {
  if (a.max_core != b.max_core) {
    fail(failures, "core_agreement",
         std::string{label} + ": max_core " + std::to_string(a.max_core) +
             " vs " + std::to_string(b.max_core));
  }
  if (a.vertex_core != b.vertex_core) {
    fail(failures, "core_agreement",
         std::string{label} + ": vertex core numbers differ");
  }
  if (a.level_vertices != b.level_vertices) {
    fail(failures, "core_agreement",
         std::string{label} + ": per-level vertex counts differ");
  }
  if (a.level_edges != b.level_edges) {
    fail(failures, "core_agreement",
         std::string{label} + ": per-level edge counts differ");
  }
  if (a.edge_core != b.edge_core) {
    fail(failures, "core_agreement",
         std::string{label} + ": edge core numbers differ");
  }
  if (a.in_reduced != b.in_reduced) {
    fail(failures, "core_agreement",
         std::string{label} + ": reduction masks differ");
  }
}

}  // namespace

bool same_structure(const Hypergraph& a, const Hypergraph& b) {
  if (a.num_vertices() != b.num_vertices()) return false;
  if (a.num_edges() != b.num_edges()) return false;
  if (a.num_pins() != b.num_pins()) return false;
  for (index_t e = 0; e < a.num_edges(); ++e) {
    const auto ma = a.vertices_of(e);
    const auto mb = b.vertices_of(e);
    if (!std::equal(ma.begin(), ma.end(), mb.begin(), mb.end())) return false;
  }
  return true;
}

std::string describe(const Hypergraph& h) {
  std::ostringstream out;
  out << "|V|=" << h.num_vertices() << " |F|=" << h.num_edges()
      << " |E|=" << h.num_pins();
  return out.str();
}

void check_core_agreement(const Hypergraph& h, bool with_naive,
                          std::vector<CheckFailure>& failures) {
  const hyper::HyperCoreResult fast = hyper::core_decomposition(h);
  if (with_naive) {
    diff_cores_exact(fast, hyper::core_decomposition_naive(h), "naive",
                     failures);
  }
  // The lane count must not change a single field.
  {
    par::LaneLimit one_lane{1};
    diff_cores_exact(fast, hyper::core_decomposition(h), "one-lane",
                     failures);
  }

  // Level counts must match the per-vertex representation, and cores
  // are nested, so the counts are non-increasing in k.
  for (index_t k = 0; k <= fast.max_core; ++k) {
    if (k < fast.level_vertices.size() &&
        fast.level_vertices[k] != fast.core_vertices(k).size()) {
      fail(failures, "core_agreement",
           "level_vertices[" + std::to_string(k) +
               "] != |core_vertices(k)|");
    }
    if (k > 0 && k < fast.level_vertices.size() &&
        fast.level_vertices[k] > fast.level_vertices[k - 1]) {
      fail(failures, "core_agreement",
           "level_vertices increases at k=" + std::to_string(k));
    }
  }

  // Every extracted core must satisfy the paper's definition: reduced,
  // and minimum degree >= k.
  for (index_t k = 1; k <= fast.max_core; ++k) {
    const hyper::SubHypergraph core = hyper::extract_core(h, fast, k);
    if (!hyper::satisfies_core_conditions(core.hypergraph, k)) {
      fail(failures, "core_agreement",
           "extracted " + std::to_string(k) +
               "-core violates the core conditions");
    }
  }
}

void check_generalized_core(const Hypergraph& h,
                            std::vector<CheckFailure>& failures) {
  // The kNeighborhood measure (distinct live co-members) is exactly the
  // residual degree in the clique expansion, and the min-first peel is
  // exactly the Batagelj-Zaversnik graph core algorithm -- so the two
  // decompositions must agree vertex-by-vertex.
  const hyper::GeneralizedCoreResult gc =
      hyper::generalized_core(h, hyper::CoreMeasure::kNeighborhood);
  const graph::CoreDecomposition graph_cores =
      graph::core_decomposition(hyper::clique_expansion(h));
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    if (gc.value[v] != static_cast<double>(graph_cores.core[v])) {
      fail(failures, "generalized_core",
           "kNeighborhood core of v" + std::to_string(v) + " = " +
               std::to_string(gc.value[v]) + " but clique-graph core = " +
               std::to_string(graph_cores.core[v]));
      break;
    }
  }

  // kDegree core values can never exceed the intact vertex degree (the
  // measure is monotone under deletions and starts below it).
  const hyper::GeneralizedCoreResult gd =
      hyper::generalized_core(h, hyper::CoreMeasure::kDegree);
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    if (gd.value[v] > static_cast<double>(h.vertex_degree(v))) {
      fail(failures, "generalized_core",
           "kDegree core of v" + std::to_string(v) +
               " exceeds its intact degree");
      break;
    }
  }
}

void check_reduce(const Hypergraph& h, std::vector<CheckFailure>& failures) {
  const hyper::SubHypergraph reduced = hyper::reduce(h);
  if (!hyper::is_reduced(reduced.hypergraph)) {
    fail(failures, "reduce", "reduce() output is not reduced");
  }
  // Idempotence: reducing a reduced hypergraph removes nothing.
  if (hyper::find_non_maximal(reduced.hypergraph).num_removed != 0) {
    fail(failures, "reduce", "reduce() is not idempotent");
  }
  // The level-0 residual of the decomposition is exactly the reduction.
  const hyper::ReduceResult r = hyper::find_non_maximal(h);
  const hyper::HyperCoreResult cores = hyper::core_decomposition(h);
  if (!cores.level_edges.empty() &&
      cores.level_edges[0] != h.num_edges() - r.num_removed) {
    fail(failures, "reduce",
         "level-0 edge count " + std::to_string(cores.level_edges[0]) +
             " != surviving edges " +
             std::to_string(h.num_edges() - r.num_removed));
  }
  if (reduced.hypergraph.num_edges() != h.num_edges() - r.num_removed) {
    fail(failures, "reduce", "reduce() kept a different edge count than "
                             "find_non_maximal() reported");
  }
}

void check_dual(const Hypergraph& h, std::vector<CheckFailure>& failures) {
  const Hypergraph d = hyper::dual(h);
  if (d.num_pins() != h.num_pins()) {
    fail(failures, "dual", "dual changed the pin count");
  }
  // Involution up to isolated vertices: dual(dual(H)) must equal H with
  // degree-0 vertices dropped (ids compacted in order).
  std::vector<bool> keep_vertex(h.num_vertices());
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    keep_vertex[v] = h.vertex_degree(v) > 0;
  }
  const std::vector<bool> keep_edge(h.num_edges(), true);
  const Hypergraph expected =
      hyper::induce(h, keep_vertex, keep_edge).hypergraph;
  if (!same_structure(hyper::dual(d), expected)) {
    fail(failures, "dual",
         "dual(dual(H)) differs from H minus isolated vertices");
  }
}

void check_projections(const Hypergraph& h,
                       std::vector<CheckFailure>& failures) {
  const graph::Graph clique = hyper::clique_expansion(h);
  const graph::Graph star =
      hyper::star_expansion(h, hyper::default_baits(h));
  const graph::Graph bipartite = hyper::bipartite_graph(h);
  std::vector<index_t> weights;
  const graph::Graph intersection = hyper::intersection_graph(h, &weights);

  // Every within-edge pair is a clique edge.
  for (index_t e = 0; e < h.num_edges(); ++e) {
    const auto members = h.vertices_of(e);
    for (std::size_t i = 0; i + 1 < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        if (!clique.has_edge(members[i], members[j])) {
          fail(failures, "projections",
               "clique expansion misses a within-edge pair");
          return;
        }
      }
    }
  }
  // Star edges are a subset of clique edges.
  for (index_t v = 0; v < star.num_vertices(); ++v) {
    for (index_t w : star.neighbors(v)) {
      if (!clique.has_edge(v, w)) {
        fail(failures, "projections",
             "star expansion contains a non-clique edge");
        return;
      }
    }
  }
  // The bipartite incidence graph has one edge per pin, and degrees
  // mirror vertex degrees / edge sizes.
  if (bipartite.num_vertices() !=
      h.num_vertices() + h.num_edges()) {
    fail(failures, "projections", "bipartite graph vertex count wrong");
  } else {
    if (bipartite.num_edges() != h.num_pins()) {
      fail(failures, "projections",
           "bipartite edge count != pin count");
    }
    for (index_t v = 0; v < h.num_vertices(); ++v) {
      if (bipartite.degree(v) != h.vertex_degree(v)) {
        fail(failures, "projections",
             "bipartite degree mismatch on a protein node");
        break;
      }
    }
    for (index_t e = 0; e < h.num_edges(); ++e) {
      if (bipartite.degree(h.num_vertices() + e) != h.edge_size(e)) {
        fail(failures, "projections",
             "bipartite degree mismatch on a complex node");
        break;
      }
    }
  }
  // The intersection graph agrees with the overlap table: f ~ g exactly
  // when |f ∩ g| >= 1.
  const hyper::OverlapTable overlaps{h};
  // Its weights, in (u, v)-sorted order, are the overlap sizes.
  std::vector<index_t> upper_counts;
  for (index_t f = 0; f < h.num_edges(); ++f) {
    const auto row = overlaps.neighbors(f);
    const auto counts = overlaps.counts(f);
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i] > f) upper_counts.push_back(counts[i]);
    }
  }
  if (upper_counts != weights) {
    fail(failures, "projections",
         "intersection weights differ from the overlap sizes");
    return;
  }
  for (index_t f = 0; f < h.num_edges(); ++f) {
    if (overlaps.degree2(f) != intersection.degree(f)) {
      fail(failures, "projections",
           "intersection-graph degree of f" + std::to_string(f) +
               " != overlap-table degree2");
      return;
    }
    const auto row = overlaps.neighbors(f);
    const auto counts = overlaps.counts(f);
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (counts[i] == 0 || !intersection.has_edge(f, row[i])) {
        fail(failures, "projections",
             "overlap table and intersection graph disagree");
        return;
      }
    }
  }
}

void check_components_and_paths(const Hypergraph& h, bool with_paths,
                                std::vector<CheckFailure>& failures) {
  const hyper::HyperComponents comps = hyper::connected_components(h);
  count_t vertex_sum = 0, edge_sum = 0;
  for (index_t c = 0; c < comps.count; ++c) {
    vertex_sum += comps.vertex_counts[c];
    edge_sum += comps.edge_counts[c];
  }
  if (vertex_sum != h.num_vertices() || edge_sum != h.num_edges()) {
    fail(failures, "components", "component counts do not partition the "
                                 "vertex/edge sets");
  }
  // Incidence never crosses components.
  for (index_t e = 0; e < h.num_edges(); ++e) {
    for (index_t v : h.vertices_of(e)) {
      if (comps.vertex_label[v] != comps.edge_label[e]) {
        fail(failures, "components",
             "a pin connects two different components");
        return;
      }
    }
  }

  if (!with_paths) return;
  // Recompute the exact path summary one BFS at a time and require
  // bit-identical agreement with the (bit-parallel, pooled)
  // path_summary: both sides divide the same two integers. BFS
  // reachability must also match the component labelling.
  const hyper::HyperPathSummary summary = hyper::path_summary(h);
  index_t diameter = 0;
  count_t pairs = 0;
  count_t total_length = 0;
  for (index_t source = 0; source < h.num_vertices(); ++source) {
    const std::vector<index_t> dist = hyper::bfs_distances(h, source);
    for (index_t v = 0; v < h.num_vertices(); ++v) {
      const bool reachable = dist[v] != kInvalidIndex;
      if (reachable !=
          (comps.vertex_label[v] == comps.vertex_label[source])) {
        fail(failures, "paths", "BFS reachability disagrees with "
                                "component labels");
        return;
      }
      if (v == source || !reachable) continue;
      diameter = std::max(diameter, dist[v]);
      ++pairs;
      total_length += dist[v];
    }
  }
  if (summary.diameter != diameter) {
    fail(failures, "paths",
         "diameter " + std::to_string(summary.diameter) +
             " != BFS recomputation " + std::to_string(diameter));
  }
  if (summary.connected_pairs != pairs) {
    fail(failures, "paths", "connected pair counts differ");
  }
  const double average = pairs > 0 ? static_cast<double>(total_length) /
                                         static_cast<double>(pairs)
                                   : 0.0;
  if (summary.average_length != average) {
    fail(failures, "paths", "average path lengths differ");
  }
}

namespace {

/// Fig. 5 by plain rescan: each step scans every vertex for the smallest
/// w(v) / (edges of v still demanding coverage), lowest id on ties, and
/// keeps no queue at all -- the reference greedy_multicover's lazy
/// queue must reproduce pick for pick.
hyper::MulticoverResult rescan_multicover(const Hypergraph& h,
                                          const std::vector<double>& weights,
                                          index_t r) {
  std::vector<index_t> demand(h.num_edges());
  std::vector<index_t> useful(h.num_vertices(), 0);
  index_t unmet = 0;
  for (index_t e = 0; e < h.num_edges(); ++e) {
    demand[e] = std::min(r, h.edge_size(e));
    if (demand[e] == 0) continue;
    ++unmet;
    for (index_t v : h.vertices_of(e)) ++useful[v];
  }
  std::vector<bool> chosen(h.num_vertices(), false);
  hyper::MulticoverResult result;
  while (unmet > 0) {
    index_t best = kInvalidIndex;
    double best_key = 0.0;
    for (index_t v = 0; v < h.num_vertices(); ++v) {
      if (chosen[v] || useful[v] == 0) continue;
      const double key = weights[v] / static_cast<double>(useful[v]);
      if (best == kInvalidIndex || key < best_key) {
        best = v;
        best_key = key;
      }
    }
    chosen[best] = true;
    result.vertices.push_back(best);
    result.total_weight += weights[best];
    for (index_t e : h.edges_of(best)) {
      if (demand[e] == 0 || --demand[e] > 0) continue;
      --unmet;
      for (index_t v : h.vertices_of(e)) --useful[v];
    }
  }
  result.average_degree = hyper::average_degree(h, result.vertices);
  return result;
}

}  // namespace

void check_covers(const Hypergraph& h, std::vector<CheckFailure>& failures) {
  const std::vector<double> unit = hyper::unit_weights(h);
  const hyper::CoverResult cover = hyper::greedy_vertex_cover(h, unit);
  if (!hyper::is_vertex_cover(h, cover.vertices)) {
    fail(failures, "covers", "greedy vertex cover is not a cover");
  }
  const std::vector<double> deg2 = hyper::degree_squared_weights(h);
  for (const auto& [name, weights] :
       {std::pair{"unit", &unit}, std::pair{"deg2", &deg2}}) {
    for (index_t r : {index_t{1}, index_t{2}}) {
      const std::string label =
          std::string{name} + " r=" + std::to_string(r) + ": ";
      const hyper::MulticoverResult mc =
          hyper::greedy_multicover(h, *weights, r);
      if (!hyper::is_multicover(h, mc.vertices,
                                std::vector<index_t>(h.num_edges(), r))) {
        fail(failures, "covers", label + "greedy result is not a multicover");
      }
      const hyper::MulticoverResult ref = rescan_multicover(h, *weights, r);
      if (mc.vertices != ref.vertices) {
        fail(failures, "covers", label + "picks differ from the rescan");
      }
      if (mc.total_weight != ref.total_weight ||
          mc.average_degree != ref.average_degree) {
        fail(failures, "covers",
             label + "total weight or average degree differs from the "
                     "rescan");
      }
    }
  }
}

void check_context(const Hypergraph& h, std::vector<CheckFailure>& failures) {
  hyper::AnalysisContext context{h};

  // Every cached artifact must equal a cold computation on the same
  // input.
  const hyper::HyperComponents cold_components =
      hyper::connected_components(h);
  if (context.components().count != cold_components.count ||
      context.components().vertex_label != cold_components.vertex_label ||
      context.components().edge_label != cold_components.edge_label) {
    fail(failures, "context", "cached components != cold labels");
  }
  if (context.vertex_degree_histogram().frequencies() !=
          hyper::vertex_degree_histogram(h).frequencies() ||
      context.edge_size_histogram().frequencies() !=
          hyper::edge_size_histogram(h).frequencies()) {
    fail(failures, "context", "cached histograms != cold histograms");
  }
  const hyper::OverlapTable& overlaps = context.overlaps();
  const hyper::OverlapTable cold_overlaps{h};
  bool same_overlaps = overlaps.num_edges() == cold_overlaps.num_edges() &&
                       overlaps.max_degree2() == cold_overlaps.max_degree2();
  for (index_t f = 0; same_overlaps && f < overlaps.num_edges(); ++f) {
    same_overlaps = std::ranges::equal(overlaps.neighbors(f),
                                       cold_overlaps.neighbors(f)) &&
                    std::ranges::equal(overlaps.counts(f),
                                       cold_overlaps.counts(f));
  }
  if (!same_overlaps) {
    fail(failures, "context", "cached overlap table != cold table");
  }
  const hyper::HyperCoreResult cold = hyper::core_decomposition(h);
  diff_cores_exact(context.cores(), cold, "context-vs-cold", failures);

  const hyper::HypergraphSummary cached = context.summary();
  const hyper::HypergraphSummary cold_summary = hyper::summarize(h);
  if (cached.num_vertices != cold_summary.num_vertices ||
      cached.num_edges != cold_summary.num_edges ||
      cached.num_pins != cold_summary.num_pins ||
      cached.num_components != cold_summary.num_components ||
      cached.max_degree2 != cold_summary.max_degree2 ||
      cached.degree_one_vertices != cold_summary.degree_one_vertices ||
      cached.isolated_vertices != cold_summary.isolated_vertices) {
    fail(failures, "context", "cached summary != cold summarize()");
  }
  const hyper::HyperPathSummary cold_paths = hyper::path_summary(h);
  if (context.paths().diameter != cold_paths.diameter ||
      context.paths().connected_pairs != cold_paths.connected_pairs ||
      context.paths().average_length != cold_paths.average_length) {
    fail(failures, "context", "cached paths != cold path_summary()");
  }

  // Covers: each key against a cold greedy run on its own weights.
  const auto same_cover = [](const hyper::MulticoverResult& a,
                             const hyper::MulticoverResult& b) {
    return a.vertices == b.vertices && a.clamped_edges == b.clamped_edges &&
           a.total_weight == b.total_weight &&
           a.average_degree == b.average_degree;
  };
  for (const hyper::CoverWeights weights :
       {hyper::CoverWeights::kUnit, hyper::CoverWeights::kDegreeSquared}) {
    const std::vector<double> w = hyper::cover_weights(h, weights);
    const std::string name =
        weights == hyper::CoverWeights::kUnit ? "unit" : "deg2";
    for (index_t r : {index_t{1}, index_t{2}}) {
      if (!same_cover(context.cover(weights, r),
                      hyper::greedy_multicover(h, w, r))) {
        fail(failures, "context",
             "cached " + name + " r=" + std::to_string(r) +
                 " cover != cold greedy_multicover");
      }
    }
    // Above the largest edge every r is one key: one object, and the
    // cold cover at the larger r.
    const index_t limit = h.max_edge_size() + 1;
    const hyper::MulticoverResult& clamped = context.cover(weights, limit);
    if (&context.cover(weights, limit + 4) != &clamped ||
        !same_cover(clamped, hyper::greedy_multicover(h, w, limit + 4))) {
      fail(failures, "context",
           name + " cover at r=max edge size+1 is not the one clamped key");
    }
  }
  if (context.matching().edges != hyper::greedy_matching(h).edges) {
    fail(failures, "context", "cached matching != cold greedy_matching");
  }

  // Repeated access must serve the identical object (memoization, not
  // recomputation), and count as a hit, not a build.
  const hyper::ContextStats before = context.stats();
  if (&context.cores() != &context.cores() ||
      &context.paths() != &context.paths() ||
      &context.cover(hyper::CoverWeights::kUnit, 1) !=
          &context.cover(hyper::CoverWeights::kUnit, 1) ||
      &context.matching() != &context.matching()) {
    fail(failures, "context", "repeated access rebuilt an artifact");
  }
  const hyper::ContextStats after = context.stats();
  if (after.total_builds() != before.total_builds() ||
      after.total_hits() != before.total_hits() + 8) {
    fail(failures, "context",
         "repeated reads built again or were not counted as hits");
  }
}

void check_representation_costs(const Hypergraph& h,
                                std::vector<CheckFailure>& failures) {
  const hyper::RepresentationCosts costs = hyper::representation_costs(h);
  const auto expect = [&](const char* model, const graph::Graph& g,
                          count_t edges, std::size_t bytes) {
    if (edges != g.num_edges() || bytes != g.storage_bytes()) {
      fail(failures, "representation_costs",
           std::string{model} + ": counted " + std::to_string(edges) +
               " edges / " + std::to_string(bytes) +
               " bytes, materialized " + std::to_string(g.num_edges()) +
               " / " + std::to_string(g.storage_bytes()));
    }
  };
  expect("clique", hyper::clique_expansion(h), costs.clique_edges,
         costs.clique_bytes);
  expect("star", hyper::star_expansion(h, hyper::default_baits(h)),
         costs.star_edges, costs.star_bytes);
  expect("intersection", hyper::intersection_graph(h),
         costs.intersection_edges, costs.intersection_bytes);
  if (costs.hypergraph_pins != h.num_pins() ||
      costs.hypergraph_bytes != h.storage_bytes()) {
    fail(failures, "representation_costs", "hypergraph pins/bytes differ");
  }
}

void check_roundtrips(const Hypergraph& h,
                      std::vector<CheckFailure>& failures) {
  try {
    if (!same_structure(hyper::from_text(hyper::to_text(h)), h)) {
      fail(failures, "roundtrip", "text round-trip changed the hypergraph");
    }
    if (!same_structure(hyper::from_hmetis(hyper::to_hmetis(h)), h)) {
      fail(failures, "roundtrip",
           "hMETIS round-trip changed the hypergraph");
    }
    if (!same_structure(hyper::from_binary(hyper::to_binary(h)), h)) {
      fail(failures, "roundtrip",
           "binary round-trip changed the hypergraph");
    }
    // Snapshot bytes, both codecs, differentially against the text
    // loader: to_text/from_text is the independent reference.
    const Hypergraph via_text = hyper::from_text(hyper::to_text(h));
    if (!same_structure(hyper::snapshot::from_bytes(
                            hyper::snapshot::to_bytes(h)),
                        via_text)) {
      fail(failures, "roundtrip",
           "snapshot (raw) round-trip disagrees with the text loader");
    }
    hyper::snapshot::SaveOptions varint;
    varint.codec = hyper::snapshot::Codec::kVarint;
    if (!same_structure(hyper::snapshot::from_bytes(
                            hyper::snapshot::to_bytes(h, varint)),
                        via_text)) {
      fail(failures, "roundtrip",
           "snapshot (varint) round-trip disagrees with the text loader");
    }
  } catch (const std::exception& e) {
    fail(failures, "roundtrip",
         std::string{"serializing a valid hypergraph threw: "} + e.what());
    return;
  }

  // MatrixMarket: incidence matrix (rows = hyperedges) through the
  // row-net model must reproduce the instance exactly.
  try {
    mm::CooMatrix m;
    m.num_rows = h.num_edges();
    m.num_cols = h.num_vertices();
    m.field = mm::Field::kPattern;
    m.symmetry = mm::Symmetry::kGeneral;
    for (index_t e = 0; e < h.num_edges(); ++e) {
      for (index_t v : h.vertices_of(e)) {
        m.entries.push_back(mm::Entry{e, v, 1.0});
      }
    }
    const mm::CooMatrix parsed =
        mm::parse_matrix_market(mm::format_matrix_market(m));
    if (!same_structure(mm::row_net_hypergraph(parsed), h)) {
      fail(failures, "roundtrip",
           "MatrixMarket row-net round-trip changed the hypergraph");
    }
  } catch (const std::exception& e) {
    fail(failures, "roundtrip",
         std::string{"MatrixMarket round-trip threw: "} + e.what());
  }

  // Pajek is export-only; verify the declared line structure: header +
  // one line per node + "*Edges" + one line per pin.
  const std::string pajek = hyper::to_pajek_bipartite(h);
  const std::size_t lines =
      static_cast<std::size_t>(std::count(pajek.begin(), pajek.end(), '\n'));
  const std::size_t expected = 1 + h.num_vertices() + h.num_edges() + 1 +
                               static_cast<std::size_t>(h.num_pins());
  if (lines != expected) {
    fail(failures, "roundtrip",
         "Pajek export has " + std::to_string(lines) + " lines, expected " +
             std::to_string(expected));
  }
}

std::vector<CheckFailure> check_mutated_loads(const Hypergraph& h, Rng& rng,
                                              int trials) {
  std::vector<CheckFailure> failures;

  struct Format {
    const char* name;
    bool binary;
    std::string serialized;
    Hypergraph (*parse)(const std::string&);
  };
  mm::CooMatrix incidence;
  incidence.num_rows = h.num_edges();
  incidence.num_cols = h.num_vertices();
  incidence.field = mm::Field::kPattern;
  for (index_t e = 0; e < h.num_edges(); ++e) {
    for (index_t v : h.vertices_of(e)) {
      incidence.entries.push_back(mm::Entry{e, v, 1.0});
    }
  }
  hyper::snapshot::SaveOptions varint_options;
  varint_options.codec = hyper::snapshot::Codec::kVarint;
  const Format formats[] = {
      {"text", false, hyper::to_text(h),
       [](const std::string& s) { return hyper::from_text(s); }},
      {"hmetis", false, hyper::to_hmetis(h),
       [](const std::string& s) { return hyper::from_hmetis(s); }},
      {"binary", true, hyper::to_binary(h),
       [](const std::string& s) { return hyper::from_binary(s); }},
      {"matrix_market", false, mm::format_matrix_market(incidence),
       [](const std::string& s) {
         return mm::row_net_hypergraph(mm::parse_matrix_market(s));
       }},
      // Snapshot corruption oracle: byte-flips across header, offset
      // tables and adjacency sections must either be detected
      // (ParseError from the checksum/bounds checks) or yield a graph
      // that still passes validate() -- never UB or a crash.
      {"snapshot", true, hyper::snapshot::to_bytes(h),
       [](const std::string& s) { return hyper::snapshot::from_bytes(s); }},
      {"snapshot_varint", true, hyper::snapshot::to_bytes(h, varint_options),
       [](const std::string& s) { return hyper::snapshot::from_bytes(s); }},
  };

  for (const Format& format : formats) {
    for (int trial = 0; trial < trials; ++trial) {
      const int edits = 1 + static_cast<int>(rng.uniform(8));
      const std::string corrupted =
          format.binary ? mutate_bytes(rng, format.serialized, edits)
                        : mutate_text(rng, format.serialized, edits);
      std::optional<Hypergraph> parsed;
      try {
        parsed = format.parse(corrupted);
      } catch (const ParseError&) {
        continue;  // the contract: reject with a structured error
      } catch (const InvalidInputError&) {
        continue;
      } catch (const std::exception& e) {
        fail(failures, "mutated_load",
             std::string{format.name} + ": unexpected exception type: " +
                 e.what());
        continue;
      }
      // Accepting a corrupted file is fine only if the result is a
      // structurally valid hypergraph.
      try {
        hyper::validate(*parsed);
      } catch (const std::exception& e) {
        fail(failures, "mutated_load",
             std::string{format.name} +
                 ": accepted a structurally invalid hypergraph: " + e.what());
      }
    }
  }
  return failures;
}

std::vector<CheckFailure> run_all_oracles(const Hypergraph& h,
                                          const CheckOptions& options) {
  std::vector<CheckFailure> failures;
  check_core_agreement(h, options.with_naive, failures);
  check_generalized_core(h, failures);
  check_reduce(h, failures);
  check_dual(h, failures);
  check_projections(h, failures);
  check_components_and_paths(
      h, options.with_paths && h.num_pins() <= options.max_pins_for_paths,
      failures);
  check_covers(h, failures);
  if (options.with_context) check_context(h, failures);
  check_representation_costs(h, failures);
  if (options.with_mutations) check_mutations(h, options.mutation_ops, failures);
  if (options.with_loaders) check_roundtrips(h, failures);
  if (options.with_protocol) {
    // Same seeding discipline as the mutation differential: the trace
    // is a pure function of the instance, so a CI failure replays from
    // the seed alone.
    Rng rng{structural_hash(h) ^ 0x70726f746fULL};  // "proto"
    std::vector<CheckFailure> protocol =
        check_protocol(rng, options.protocol_trials);
    failures.insert(failures.end(), protocol.begin(), protocol.end());
  }
  return failures;
}

}  // namespace hp::check
