#include "core/traversal.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "obs/trace.hpp"
#include "par/thread_pool.hpp"

namespace hp::hyper {

std::vector<index_t> bfs_distances(const Hypergraph& h, index_t source) {
  HP_REQUIRE(source < h.num_vertices(), "bfs_distances: source out of range");
  std::vector<index_t> dist(h.num_vertices(), kInvalidIndex);
  std::vector<bool> edge_seen(h.num_edges(), false);
  std::vector<index_t> frontier{source};
  std::vector<index_t> next;
  dist[source] = 0;
  index_t level = 0;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (index_t u : frontier) {
      for (index_t e : h.edges_of(u)) {
        if (edge_seen[e]) continue;
        edge_seen[e] = true;
        for (index_t v : h.vertices_of(e)) {
          if (dist[v] == kInvalidIndex) {
            dist[v] = level;
            next.push_back(v);
          }
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

index_t HyperComponents::largest() const {
  HP_REQUIRE(count > 0, "HyperComponents::largest: no components");
  return static_cast<index_t>(
      std::max_element(vertex_counts.begin(), vertex_counts.end()) -
      vertex_counts.begin());
}

HyperComponents connected_components(const Hypergraph& h) {
  HP_TRACE_SPAN("traversal.connected_components");
  HyperComponents comp;
  comp.vertex_label.assign(h.num_vertices(), kInvalidIndex);
  comp.edge_label.assign(h.num_edges(), kInvalidIndex);
  std::vector<index_t> stack;
  for (index_t start = 0; start < h.num_vertices(); ++start) {
    if (comp.vertex_label[start] != kInvalidIndex) continue;
    const index_t id = comp.count++;
    comp.vertex_counts.push_back(0);
    comp.edge_counts.push_back(0);
    stack.push_back(start);
    comp.vertex_label[start] = id;
    while (!stack.empty()) {
      const index_t u = stack.back();
      stack.pop_back();
      ++comp.vertex_counts[id];
      for (index_t e : h.edges_of(u)) {
        if (comp.edge_label[e] != kInvalidIndex) continue;
        comp.edge_label[e] = id;
        ++comp.edge_counts[id];
        for (index_t v : h.vertices_of(e)) {
          if (comp.vertex_label[v] == kInvalidIndex) {
            comp.vertex_label[v] = id;
            stack.push_back(v);
          }
        }
      }
    }
  }
  return comp;
}

namespace {

/// Sources per batch: one bit of a machine word each.
constexpr index_t kBatchWidth = 64;

/// Per-lane workspace and exact integer partials. Bit i of a word
/// stands for source `base + i` of the batch the lane is running.
struct LanePartial {
  std::vector<std::uint64_t> seen;      ///< per vertex: sources reaching it
  std::vector<std::uint64_t> frontier;  ///< per vertex: reached this level
  std::vector<std::uint64_t> edge;      ///< per hyperedge: frontier sources
  count_t total = 0;
  count_t pairs = 0;
  index_t diameter = 0;
};

/// Hyperpath BFS from the sources [base, base + 64) at once (Then et
/// al., "The More the Merrier", VLDB 2014). A level is one pull pass
/// over the hyperedges and one over the vertices, each ORing words, so
/// a batch costs 2 * pins word operations per level whatever its width.
void accumulate_batch(const Hypergraph& h, index_t base, LanePartial& p) {
  const index_t n = h.num_vertices();
  const index_t m = h.num_edges();
  p.seen.assign(n, 0);
  p.frontier.assign(n, 0);
  p.edge.resize(m);
  const index_t width = std::min(kBatchWidth, n - base);
  for (index_t i = 0; i < width; ++i) {
    p.seen[base + i] = p.frontier[base + i] = std::uint64_t{1} << i;
  }
  for (index_t level = 1;; ++level) {
    for (index_t e = 0; e < m; ++e) {
      std::uint64_t bits = 0;
      for (index_t v : h.vertices_of(e)) bits |= p.frontier[v];
      p.edge[e] = bits;
    }
    count_t found = 0;
    for (index_t v = 0; v < n; ++v) {
      std::uint64_t bits = 0;
      for (index_t e : h.edges_of(v)) bits |= p.edge[e];
      bits &= ~p.seen[v];
      p.seen[v] |= bits;
      p.frontier[v] = bits;
      found += static_cast<count_t>(std::popcount(bits));
    }
    if (found == 0) return;
    p.total += level * found;
    p.pairs += found;
    p.diameter = std::max(p.diameter, level);
  }
}

}  // namespace

HyperPathSummary path_summary(const Hypergraph& h) {
  HP_TRACE_SPAN("traversal.path_summary");
  HyperPathSummary summary;
  const index_t n = h.num_vertices();
  const index_t batches = (n + kBatchWidth - 1) / kBatchWidth;

  // Batches of 64 sources on the shared pool: each lane owns one
  // workspace plus exact integer partials, merged lane-by-lane
  // afterwards -- schedule-independent, so HP_THREADS=1 and =16 agree
  // bit-for-bit.
  std::vector<LanePartial> lanes(
      static_cast<std::size_t>(par::ThreadPool::global().thread_count()));
  par::parallel_for(0, batches, /*grain=*/1, [&](index_t begin, index_t end,
                                                 int lane) {
    LanePartial& p = lanes[static_cast<std::size_t>(lane)];
    for (index_t b = begin; b < end; ++b) {
      accumulate_batch(h, b * kBatchWidth, p);
    }
  });

  count_t total = 0;
  count_t pairs = 0;
  index_t diameter = 0;
  for (const LanePartial& p : lanes) {
    total += p.total;
    pairs += p.pairs;
    diameter = std::max(diameter, p.diameter);
  }
  summary.diameter = diameter;
  summary.connected_pairs = pairs;
  summary.average_length =
      pairs > 0 ? static_cast<double>(total) / static_cast<double>(pairs)
                : 0.0;
  return summary;
}

}  // namespace hp::hyper
