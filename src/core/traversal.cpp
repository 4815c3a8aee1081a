#include "core/traversal.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>

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

/// The twin quotient of a hypergraph: one class per distinct non-empty
/// incidence set, numbered in order of its lowest member id, with the
/// number of members as its weight. Isolated vertices belong to no
/// class. Both directions are CSR: a class's hyperedges are its
/// members' common incidence list, a hyperedge's classes are the
/// distinct classes of its members.
struct TwinQuotient {
  std::vector<index_t> weight;
  std::vector<Hypergraph::offset_t> class_offsets{0};
  std::vector<index_t> class_edges;
  std::vector<Hypergraph::offset_t> edge_offsets{0};
  std::vector<index_t> edge_classes;

  index_t num_classes() const { return static_cast<index_t>(weight.size()); }
  index_t num_edges() const {
    return static_cast<index_t>(edge_offsets.size() - 1);
  }
  std::span<const index_t> edges_of(index_t c) const {
    return {class_edges.data() + class_offsets[c],
            class_edges.data() + class_offsets[c + 1]};
  }
  std::span<const index_t> classes_of(index_t e) const {
    return {edge_classes.data() + edge_offsets[e],
            edge_classes.data() + edge_offsets[e + 1]};
  }
};

std::uint64_t hash_ids(std::span<const index_t> ids) {
  std::uint64_t x = ids.size();
  for (index_t id : ids) x = (x ^ id) * 0x9e3779b97f4a7c15ULL;
  x ^= x >> 31;  // splitmix64 finalizer: the table uses the low bits
  x *= 0xbf58476d1ce4e5b9ULL;
  return x ^ (x >> 29);
}

/// Classes come from an open-addressing table keyed by a hash of the
/// sorted incidence list; every hash match is confirmed by comparing
/// the lists, so a collision can never merge two classes.
TwinQuotient twin_quotient(const Hypergraph& h) {
  const index_t n = h.num_vertices();
  const index_t m = h.num_edges();
  TwinQuotient q;
  std::vector<index_t> class_of(n, kInvalidIndex);
  std::vector<std::uint64_t> key;  // per class: hash of its incidence
  const std::size_t mask =
      std::bit_ceil(2 * static_cast<std::size_t>(n) + 2) - 1;
  std::vector<index_t> table(mask + 1, kInvalidIndex);
  for (index_t v = 0; v < n; ++v) {
    const std::span<const index_t> incidence = h.edges_of(v);
    if (incidence.empty()) continue;
    const std::uint64_t hash = hash_ids(incidence);
    std::size_t slot = hash & mask;
    index_t c = table[slot];
    while (c != kInvalidIndex &&
           !(key[c] == hash &&
             std::ranges::equal(q.edges_of(c), incidence))) {
      slot = (slot + 1) & mask;
      c = table[slot];
    }
    if (c == kInvalidIndex) {
      c = q.num_classes();
      table[slot] = c;
      key.push_back(hash);
      q.weight.push_back(0);
      q.class_edges.insert(q.class_edges.end(), incidence.begin(),
                           incidence.end());
      q.class_offsets.push_back(q.class_edges.size());
    }
    class_of[v] = c;
    ++q.weight[c];
  }
  std::vector<index_t> last_edge(q.num_classes(), kInvalidIndex);
  q.edge_offsets.reserve(static_cast<std::size_t>(m) + 1);
  for (index_t e = 0; e < m; ++e) {
    for (index_t v : h.vertices_of(e)) {
      const index_t c = class_of[v];
      if (last_edge[c] == e) continue;
      last_edge[c] = e;
      q.edge_classes.push_back(c);
    }
    q.edge_offsets.push_back(q.edge_classes.size());
  }
  return q;
}

/// Per-lane workspace and exact integer partials. Bit i of a word
/// stands for source class `base + i` of the batch the lane is running.
struct LanePartial {
  std::vector<std::uint64_t> seen;      ///< per class: sources reaching it
  std::vector<std::uint64_t> frontier;  ///< per class: reached this level
  std::vector<std::uint64_t> edge;      ///< per hyperedge: frontier sources
  count_t total = 0;
  count_t pairs = 0;
  index_t diameter = 0;
};

/// Hyperpath BFS from the source classes [base, base + 64) at once
/// (Then et al., "The More the Merrier", VLDB 2014). A level is one
/// pull pass over the hyperedges and one over the classes, each ORing
/// words, so a batch costs 2 * quotient pins word operations per level
/// whatever its width. A class reached by the source bits `x` stands
/// for weight * (sum over the sources in x of their weights) vertex
/// pairs; the inner sum is taken exactly over the bit-planes of the
/// batch's source weights.
void accumulate_batch(const TwinQuotient& q, index_t base, LanePartial& p) {
  const index_t n = q.num_classes();
  const index_t m = q.num_edges();
  p.seen.assign(n, 0);
  p.frontier.assign(n, 0);
  p.edge.resize(m);
  const index_t width = std::min(kBatchWidth, n - base);
  std::array<std::uint64_t, 32> plane{};  ///< bit j of each source weight
  int planes = 0;
  for (index_t i = 0; i < width; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << i;
    const index_t w = q.weight[base + i];
    p.seen[base + i] = p.frontier[base + i] = bit;
    const int bits = static_cast<int>(std::bit_width(w));
    planes = std::max(planes, bits);
    for (int j = 0; j < bits; ++j) {
      if ((w >> j) & 1) plane[static_cast<std::size_t>(j)] |= bit;
    }
  }
  for (index_t level = 1;; ++level) {
    for (index_t e = 0; e < m; ++e) {
      std::uint64_t bits = 0;
      for (index_t c : q.classes_of(e)) bits |= p.frontier[c];
      p.edge[e] = bits;
    }
    count_t found = 0;
    for (index_t c = 0; c < n; ++c) {
      std::uint64_t bits = 0;
      for (index_t e : q.edges_of(c)) bits |= p.edge[e];
      bits &= ~p.seen[c];
      p.seen[c] |= bits;
      p.frontier[c] = bits;
      if (bits == 0) continue;
      count_t sources = 0;
      for (int j = 0; j < planes; ++j) {
        sources += static_cast<count_t>(
                       std::popcount(bits & plane[static_cast<std::size_t>(j)]))
                   << j;
      }
      found += q.weight[c] * sources;
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
  // Twins -- vertices with the same incidence set -- are at the same
  // distance from every other vertex, so the sweep runs on one vertex
  // per class and weights the pairs it finds (DESIGN.md section 17).
  const TwinQuotient q = twin_quotient(h);
  const index_t batches = (q.num_classes() + kBatchWidth - 1) / kBatchWidth;

  // Batches of 64 source classes on the shared pool: each lane owns one
  // workspace plus exact integer partials, merged lane-by-lane
  // afterwards -- schedule-independent, so HP_THREADS=1 and =16 agree
  // bit-for-bit.
  std::vector<LanePartial> lanes(
      static_cast<std::size_t>(par::ThreadPool::global().thread_count()));
  par::parallel_for(0, batches, /*grain=*/1, [&](index_t begin, index_t end,
                                                 int lane) {
    LanePartial& p = lanes[static_cast<std::size_t>(lane)];
    for (index_t b = begin; b < end; ++b) {
      accumulate_batch(q, b * kBatchWidth, p);
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
  // Twins share a hyperedge: w * (w - 1) ordered pairs at distance 1.
  for (index_t w : q.weight) {
    if (w < 2) continue;
    const count_t inside = count_t{w} * (w - 1);
    total += inside;
    pairs += inside;
    diameter = std::max<index_t>(diameter, 1);
  }
  summary.diameter = diameter;
  summary.connected_pairs = pairs;
  summary.average_length =
      pairs > 0 ? static_cast<double>(total) / static_cast<double>(pairs)
                : 0.0;
  return summary;
}

}  // namespace hp::hyper
