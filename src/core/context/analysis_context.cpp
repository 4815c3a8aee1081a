#include "core/context/analysis_context.hpp"

#include <algorithm>

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

std::size_t cover_bytes(const MulticoverResult& c) {
  return vector_bytes(c.vertices) + vector_bytes(c.clamped_edges);
}

std::size_t matching_bytes(const MatchingResult& m) {
  return vector_bytes(m.edges);
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

const MulticoverResult& AnalysisContext::cover(CoverWeights weights,
                                               index_t r) const {
  HP_REQUIRE(r >= 1, "AnalysisContext::cover: r must be >= 1");
  CoverKey key;
  const detail::ArtifactSlot<MulticoverResult>* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(covers_mutex_);
    if (cover_r_limit_ == 0) cover_r_limit_ = hypergraph_.max_edge_size() + 1;
    key = {weights, std::min(r, cover_r_limit_)};
    slot = &covers_[key];
  }
  return slot->get("context.build.cover", [&] {
    return greedy_multicover(
        hypergraph_, cover_weights(hypergraph_, key.weights), key.r);
  });
}

const MatchingResult& AnalysisContext::matching() const {
  return matching_.get("context.build.matching",
                       [&] { return greedy_matching(hypergraph_); });
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
  // The covers last, in the order bio::analyze reads them, so one lane
  // builds everything in the order the report once did.
  par::TaskGroup covers;
  for (const CoverKey& key : kPaperCovers) {
    covers.run([this, key] { cover(key.weights, key.r); });
  }
  covers.wait();
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
  // One row for every cover key: builds counts the keys built. The
  // slot pointers are copied out so no build holds up the map lock.
  std::vector<const detail::ArtifactSlot<MulticoverResult>*> cover_slots;
  {
    std::lock_guard<std::mutex> lock(covers_mutex_);
    for (const auto& [key, slot] : covers_) cover_slots.push_back(&slot);
  }
  ArtifactStats covers;
  covers.name = "covers";
  for (const auto* slot : cover_slots) {
    const ArtifactStats one = slot->stats("covers", cover_bytes);
    covers.builds += one.builds;
    covers.hits += one.hits;
    covers.build_seconds += one.build_seconds;
    covers.bytes += one.bytes;
  }
  out.artifacts.push_back(std::move(covers));
  out.artifacts.push_back(matching_.stats("matching", matching_bytes));
  out.hypergraph_owned_bytes = hypergraph_.owned_bytes();
  out.hypergraph_mapped_bytes = hypergraph_.mapped_bytes();
  return out;
}

}  // namespace hp::hyper
