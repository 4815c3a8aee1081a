#include "core/context/analysis_context.hpp"

#include "core/dual.hpp"
#include "core/reduce.hpp"
#include "par/thread_pool.hpp"

namespace hp::hyper {

namespace {

std::size_t vector_bytes(const std::vector<index_t>& v) {
  return v.size() * sizeof(index_t);
}

std::size_t components_bytes(const HyperComponents& c) {
  return vector_bytes(c.vertex_label) + vector_bytes(c.edge_label) +
         vector_bytes(c.vertex_counts) + vector_bytes(c.edge_counts);
}

std::size_t histogram_bytes(const Histogram& h) {
  return h.frequencies().size() * sizeof(std::size_t);
}

std::size_t cores_bytes(const HyperCoreResult& c) {
  return vector_bytes(c.vertex_core) + vector_bytes(c.edge_core) +
         vector_bytes(c.level_vertices) + vector_bytes(c.level_edges);
}

std::size_t sub_bytes(const SubHypergraph& s) {
  return s.hypergraph.storage_bytes() + vector_bytes(s.vertex_to_parent) +
         vector_bytes(s.edge_to_parent);
}

}  // namespace

const Hypergraph& AnalysisContext::dual() const {
  return dual_.get("context.build.dual",
                   [&] { return ::hp::hyper::dual(hypergraph_); });
}

const graph::Graph& AnalysisContext::clique_projection() const {
  return clique_.get("context.build.clique_projection",
                     [&] { return clique_expansion(hypergraph_); });
}

const std::vector<index_t>& AnalysisContext::star_baits() const {
  return star_baits_.get("context.build.star_baits",
                         [&] { return default_baits(hypergraph_); });
}

const graph::Graph& AnalysisContext::star_projection() const {
  return star_.get("context.build.star_projection", [&] {
    return star_expansion(hypergraph_, star_baits());
  });
}

const graph::Graph& AnalysisContext::intersection_projection() const {
  return intersection_.get("context.build.intersection_projection", [&] {
    return intersection_graph(hypergraph_, nullptr);
  });
}

const HyperComponents& AnalysisContext::components() const {
  return components_.get("context.build.components", [&] {
    return connected_components(hypergraph_);
  });
}

const Histogram& AnalysisContext::vertex_degree_histogram() const {
  return vertex_degree_histogram_.get(
      "context.build.vertex_degree_histogram",
      [&] { return ::hp::hyper::vertex_degree_histogram(hypergraph_); });
}

const Histogram& AnalysisContext::edge_size_histogram() const {
  return edge_size_histogram_.get(
      "context.build.edge_size_histogram",
      [&] { return ::hp::hyper::edge_size_histogram(hypergraph_); });
}

const OverlapTable& AnalysisContext::overlaps() const {
  return overlaps_.get("context.build.overlap_table",
                       [&] { return OverlapTable{hypergraph_}; });
}

const SubHypergraph& AnalysisContext::reduced() const {
  return reduced_.get("context.build.reduced_hypergraph",
                      [&] { return reduce(hypergraph_); });
}

const HyperCoreResult& AnalysisContext::cores() const {
  return cores_.get("context.build.core_decomposition", [&] {
    return core_decomposition(hypergraph_, &peel_stats_);
  });
}

const PeelStats& AnalysisContext::core_peel_stats() const {
  cores();  // ensure the decomposition (and its counters) exist
  return peel_stats_;
}

const HypergraphSummary& AnalysisContext::summary() const {
  return summary_.get("context.build.summary", [&] {
    return summarize(hypergraph_, components(), overlaps().max_degree2());
  });
}

const HyperPathSummary& AnalysisContext::paths() const {
  return paths_.get("context.build.path_summary",
                    [&] { return path_summary(hypergraph_); });
}

void AnalysisContext::prefetch() const {
  HP_TRACE_SPAN("context.prefetch");
  // Exactly the slots bio::analyze reads. The dual, the projections and
  // the reduced hypergraph stay lazy: the report never reads them, and
  // the projections are the O(n^2) graphs the paper argues against.
  // Independent roots fan out; a task blocking on a sibling's slot only
  // ever waits on a build that is actively running, and the slot
  // dependency graph is acyclic, so the group cannot deadlock.
  par::TaskGroup group;
  group.run([this] { components(); });
  group.run([this] { vertex_degree_histogram(); });
  group.run([this] { edge_size_histogram(); });
  group.run([this] { overlaps(); });
  group.run([this] { cores(); });
  group.run([this] { paths(); });  // internally parallel; shares the pool
  group.wait();
  summary();  // components() and overlaps() are warm now
}

index_t AnalysisContext::rebase(Hypergraph h) {
  HP_TRACE_SPAN("context.apply.rebase");
  hypergraph_ = std::move(h);
  index_t reset_count = 0;
  reset_count += dual_.reset() ? 1 : 0;
  reset_count += clique_.reset() ? 1 : 0;
  reset_count += star_baits_.reset() ? 1 : 0;
  reset_count += star_.reset() ? 1 : 0;
  reset_count += intersection_.reset() ? 1 : 0;
  reset_count += components_.reset() ? 1 : 0;
  reset_count += vertex_degree_histogram_.reset() ? 1 : 0;
  reset_count += edge_size_histogram_.reset() ? 1 : 0;
  reset_count += overlaps_.reset() ? 1 : 0;
  reset_count += reduced_.reset() ? 1 : 0;
  if (cores_.reset()) {
    ++reset_count;
    peel_stats_ = PeelStats{};
  }
  reset_count += summary_.reset() ? 1 : 0;
  reset_count += paths_.reset() ? 1 : 0;
  return reset_count;
}

RepresentationCosts AnalysisContext::representation_costs() const {
  return ::hp::hyper::representation_costs(hypergraph_);
}

ContextStats AnalysisContext::stats() const {
  const auto graph_bytes = [](const graph::Graph& g) {
    return g.storage_bytes();
  };
  ContextStats out;
  out.artifacts.push_back(dual_.stats(
      "dual", [](const Hypergraph& d) { return d.storage_bytes(); }));
  out.artifacts.push_back(clique_.stats("clique projection", graph_bytes));
  out.artifacts.push_back(star_baits_.stats("star baits", vector_bytes));
  out.artifacts.push_back(star_.stats("star projection", graph_bytes));
  out.artifacts.push_back(
      intersection_.stats("intersection projection", graph_bytes));
  out.artifacts.push_back(components_.stats("components", components_bytes));
  out.artifacts.push_back(
      vertex_degree_histogram_.stats("vertex degree histogram",
                                     histogram_bytes));
  out.artifacts.push_back(
      edge_size_histogram_.stats("edge size histogram", histogram_bytes));
  out.artifacts.push_back(overlaps_.stats(
      "overlap table", [](const OverlapTable& t) { return t.storage_bytes(); }));
  out.artifacts.push_back(reduced_.stats("reduced hypergraph", sub_bytes));
  out.artifacts.push_back(cores_.stats("core decomposition", cores_bytes));
  out.artifacts.push_back(summary_.stats(
      "summary", [](const HypergraphSummary&) { return sizeof(HypergraphSummary); }));
  out.artifacts.push_back(paths_.stats(
      "path summary", [](const HyperPathSummary&) { return sizeof(HyperPathSummary); }));
  out.hypergraph_owned_bytes = hypergraph_.owned_bytes();
  out.hypergraph_mapped_bytes = hypergraph_.mapped_bytes();
  return out;
}

}  // namespace hp::hyper
