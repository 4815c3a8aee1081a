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

/// Machine words per class in a batch.
constexpr std::size_t kWords = 4;
/// Sources per batch: one bit of `kWords` machine words each.
constexpr index_t kBatchWidth = 64 * kWords;

/// One bit per source class of a batch: source `base + i` is bit
/// `i % 64` of word `i / 64`.
using BatchBits = std::array<std::uint64_t, kWords>;

/// The twin quotient of a hypergraph: one class per distinct non-empty
/// incidence set, numbered in order of its lowest member id, with the
/// number of members as its weight. Isolated vertices belong to no
/// class. A class's hyperedges, its members' common incidence list, are
/// held as CSR; the hyperedges keep the ids of `h`.
struct TwinQuotient {
  index_t num_edges = 0;
  std::vector<index_t> weight;
  std::vector<Hypergraph::offset_t> class_offsets{0};
  std::vector<index_t> class_edges;

  index_t num_classes() const { return static_cast<index_t>(weight.size()); }
  std::span<const index_t> edges_of(index_t c) const {
    return {class_edges.data() + class_offsets[c],
            class_edges.data() + class_offsets[c + 1]};
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
  TwinQuotient q;
  q.num_edges = h.num_edges();
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
    ++q.weight[c];
  }
  return q;
}

/// Per-lane workspace and exact integer partials.
struct LanePartial {
  std::vector<BatchBits> seen;  ///< per class: sources reaching it
  std::vector<BatchBits> edge;  ///< per hyperedge: sources it carries now
  std::vector<BatchBits> next;  ///< per hyperedge: sources it carries next
  count_t total = 0;
  count_t pairs = 0;
  index_t diameter = 0;
};

/// Hyperpath BFS from the source classes [base, base + kBatchWidth) at
/// once (Then et al., "The More the Merrier", VLDB 2014). `edge[e]`
/// holds the sources that reached a class of `e` at the previous level.
/// A level is one pull pass over the classes; a class that gains bits
/// pushes them into `next` for its hyperedges, and the two edge arrays
/// swap. A class reached by the source bits `x` stands for
/// weight * (sum over the sources in x of their weights) vertex pairs;
/// the inner sum is taken exactly over the bit-planes of the batch's
/// source weights. Always inlined, so each caller below compiles it for
/// its own target.
[[gnu::always_inline]] inline void accumulate_batch_body(
    const TwinQuotient& q, index_t base, LanePartial& p) {
  const index_t n = q.num_classes();
  p.seen.assign(n, BatchBits{});
  p.edge.assign(q.num_edges, BatchBits{});
  p.next.assign(q.num_edges, BatchBits{});
  const index_t width = std::min(kBatchWidth, n - base);
  std::array<BatchBits, 32> plane{};  ///< bit j of each source weight
  int planes = 0;
  for (index_t i = 0; i < width; ++i) {
    const std::size_t word = i / 64;
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    const index_t w = q.weight[base + i];
    p.seen[base + i][word] = bit;
    for (index_t e : q.edges_of(base + i)) p.edge[e][word] |= bit;
    const int bits = static_cast<int>(std::bit_width(w));
    planes = std::max(planes, bits);
    for (int j = 0; j < bits; ++j) {
      if ((w >> j) & 1) plane[static_cast<std::size_t>(j)][word] |= bit;
    }
  }
  for (index_t level = 1;; ++level) {
    count_t found = 0;
    for (index_t c = 0; c < n; ++c) {
      const std::span<const index_t> edges = q.edges_of(c);
      BatchBits bits{};
      for (index_t e : edges) {
        for (std::size_t k = 0; k < kWords; ++k) bits[k] |= p.edge[e][k];
      }
      std::uint64_t any = 0;
      for (std::size_t k = 0; k < kWords; ++k) {
        bits[k] &= ~p.seen[c][k];
        p.seen[c][k] |= bits[k];
        any |= bits[k];
      }
      if (any == 0) continue;
      for (index_t e : edges) {
        for (std::size_t k = 0; k < kWords; ++k) p.next[e][k] |= bits[k];
      }
      count_t sources = 0;
      for (int j = 0; j < planes; ++j) {
        const BatchBits& pj = plane[static_cast<std::size_t>(j)];
        int ones = 0;
        for (std::size_t k = 0; k < kWords; ++k) {
          ones += std::popcount(bits[k] & pj[k]);
        }
        sources += static_cast<count_t>(ones) << j;
      }
      found += q.weight[c] * sources;
    }
    if (found == 0) return;
    p.total += level * found;
    p.pairs += found;
    p.diameter = std::max(p.diameter, level);
    p.edge.swap(p.next);
    std::fill(p.next.begin(), p.next.end(), BatchBits{});
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
// Baseline x86-64 has no POPCNT instruction, so a plain build turns each
// popcount into a library call. The kernel is compiled once with the
// instruction and once without, and the first call picks by the CPU.
[[gnu::target("popcnt")]] void accumulate_batch_popcnt(const TwinQuotient& q,
                                                       index_t base,
                                                       LanePartial& p) {
  accumulate_batch_body(q, base, p);
}

void accumulate_batch_plain(const TwinQuotient& q, index_t base,
                            LanePartial& p) {
  accumulate_batch_body(q, base, p);
}

void accumulate_batch(const TwinQuotient& q, index_t base, LanePartial& p) {
  static const bool has_popcnt = __builtin_cpu_supports("popcnt");
  if (has_popcnt) {
    accumulate_batch_popcnt(q, base, p);
  } else {
    accumulate_batch_plain(q, base, p);
  }
}
#else
void accumulate_batch(const TwinQuotient& q, index_t base, LanePartial& p) {
  accumulate_batch_body(q, base, p);
}
#endif

}  // namespace

HyperPathSummary path_summary(const Hypergraph& h) {
  HP_TRACE_SPAN("traversal.path_summary");
  HyperPathSummary summary;
  // Twins -- vertices with the same incidence set -- are at the same
  // distance from every other vertex, so the sweep runs on one vertex
  // per class and weights the pairs it finds (DESIGN.md section 17).
  const TwinQuotient q = twin_quotient(h);
  const index_t batches = (q.num_classes() + kBatchWidth - 1) / kBatchWidth;

  // Batches of 256 source classes on the shared pool: each lane owns one
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
