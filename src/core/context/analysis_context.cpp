#include "core/context/analysis_context.hpp"

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

}  // namespace

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

const HyperCoreResult& AnalysisContext::cores() const {
  return cores_.get("context.build.core_decomposition", [&] {
    return core_decomposition(hypergraph_, &peel_stats_);
  });
}

const PeelStats& AnalysisContext::core_peel_stats() const {
  cores();  // ensure the decomposition (and its counters) exist
  return peel_stats_;
}

double AnalysisContext::core_build_seconds() const {
  return cores_.build_seconds();
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

ContextStats AnalysisContext::stats() const {
  ContextStats out;
  out.artifacts.push_back(components_.stats("components", components_bytes));
  out.artifacts.push_back(
      vertex_degree_histogram_.stats("vertex degree histogram",
                                     histogram_bytes));
  out.artifacts.push_back(
      edge_size_histogram_.stats("edge size histogram", histogram_bytes));
  out.artifacts.push_back(overlaps_.stats(
      "overlap table", [](const OverlapTable& t) { return t.storage_bytes(); }));
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
