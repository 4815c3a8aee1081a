// Frontier maintenance for the k-core peel (core/kcore.cpp).
//
// Rescanning all |V| vertices for the sub-threshold frontier at every
// peel level and cascade round is fine at the paper's 1,361 proteins
// and ruinous at the 10^6-10^7-vertex surrogates the benchmarks drive.
// This module keeps the frontier work-proportional instead (the
// decrement-and-filter shape of Blaze's k-core EdgeMap/VertexMap,
// SNIPPETS.md section 2):
//
//   * FrontierBuckets -- a lazy bucket queue keyed by residual degree.
//     Every degree drop pushes a (vertex, new-degree) entry into
//     bucket[new-degree]; entering level k drains buckets 0..k-1 and
//     filters stale entries (dead vertices, duplicates from multiple
//     drops). Degrees only decrease, so an entry in a bucket below the
//     current level is never missed and never early: the drained set is
//     exactly {v live : degree(v) < k}, i.e. what the scan found, at
//     O(drops) total cost instead of O(levels * |V|).
//
//   * LaneDropBags -- per-pool-lane bags of degree-drop records for the
//     bulk-synchronous peel. Lanes append race-free to their own bag
//     while edge deletions decrement degrees atomically; the peel loop
//     drains all bags between rounds, splitting drops into the in-level
//     frontier (new degree < k) and FrontierBuckets (future levels).
//
//   * EpochStamps -- |F|-sized claim marks for deduplicating the
//     touched-edge set a parallel round produces. Bumping the epoch
//     invalidates all stamps in O(1), so rounds never clear the array.
//
// The buckets and the bags report into PeelStats (frontier_pushes /
// frontier_wasted), so the engine's work-proportionality is
// observable: pushes are bounded by |pins| + |V| per decomposition, and
// wasted counts exactly the lazy slack.
//
// The shared initial-reduction fixpoint (erase_non_maximal) also lives
// here: it re-seeds containment candidates from the just-doomed edges'
// overlap neighborhoods instead of rescanning every live edge, which
// keeps adversarial duplicate-chain inputs (hp_fuzz kDuplicateChain)
// linear instead of quadratic.
#pragma once

#include <vector>

#include "core/peel/peel_stats.hpp"
#include "core/peel/residual.hpp"

namespace hp::hyper {

/// Lazy bucket queue over vertices keyed by residual degree.
///
/// Entries are append-only hints, not exact positions: a vertex may sit
/// in several buckets at once (one per degree it has passed through) and
/// is validated against the live residual state at drain time. Compared
/// to the exact flat bins of the graph k-core (graph/graph_kcore.cpp)
/// this trades a bounded amount of slack (counted as frontier_wasted)
/// for push paths that are branch-free and, in the parallel driver,
/// mergeable from per-lane bags without locks.
class FrontierBuckets {
 public:
  /// Buckets 0..max_degree. Stats are optional.
  FrontierBuckets(index_t max_degree, PeelStats* stats)
      : buckets_(static_cast<std::size_t>(max_degree) + 1), stats_(stats) {}

  /// Lazy entry: v currently has residual degree d. O(1) amortized.
  void push(index_t v, index_t d) {
    buckets_[d].push_back(v);
    if (stats_ != nullptr) ++stats_->frontier_pushes;
  }

  /// Drain every bucket strictly below `level`, appending entries that
  /// pass `valid(v)` to `out`; entries that fail it (stale) count as
  /// frontier_wasted. A vertex pushed at several degrees below `level`
  /// appears once per push, so the caller deduplicates `out`.
  /// Degrees never grow, so an entry in bucket d < level whose vertex is
  /// still alive is genuinely sub-threshold; buckets >= level are left
  /// untouched for later levels.
  template <typename ValidFn>
  void drain_below(index_t level, ValidFn&& valid,
                   std::vector<index_t>& out) {
    const index_t top =
        std::min<index_t>(level, static_cast<index_t>(buckets_.size()));
    for (index_t d = 0; d < top; ++d) {
      for (index_t v : buckets_[d]) {
        if (valid(v)) {
          out.push_back(v);
        } else if (stats_ != nullptr) {
          ++stats_->frontier_wasted;
        }
      }
      buckets_[d].clear();
    }
  }

 private:
  std::vector<std::vector<index_t>> buckets_;
  PeelStats* stats_;
};

/// One degree-drop record produced while deleting edges: `vertex` fell
/// to residual degree `degree` (each atomic decrement observes a unique
/// value, so records are naturally distinct per vertex).
struct DegreeDrop {
  index_t vertex;
  index_t degree;
};

/// Per-lane append bags for degree drops. Lanes write race-free to
/// their own bag during a parallel region; the driver drains everything
/// between rounds. Capacity is the pool's lane count.
class LaneDropBags {
 public:
  explicit LaneDropBags(int lanes)
      : bags_(static_cast<std::size_t>(lanes)) {}

  void record(int lane, index_t vertex, index_t degree) {
    bags_[static_cast<std::size_t>(lane)].push_back({vertex, degree});
  }

  /// Invoke fn(vertex, degree) for every record, then clear all bags.
  template <typename Fn>
  void drain(Fn&& fn) {
    for (std::vector<DegreeDrop>& bag : bags_) {
      for (const DegreeDrop& drop : bag) fn(drop.vertex, drop.degree);
      bag.clear();
    }
  }

 private:
  std::vector<std::vector<DegreeDrop>> bags_;
};

/// Epoch-stamped claim marks over `size` items. claim(i) is true for
/// exactly one caller per epoch (atomic exchange), so concurrent lanes
/// can deduplicate the touched-edge set without clearing scratch
/// between rounds: next_epoch() invalidates every stamp in O(1).
class EpochStamps {
 public:
  explicit EpochStamps(index_t size);

  void next_epoch() { ++epoch_; }

  /// True exactly once per item per epoch, under any interleaving.
  bool claim(index_t item);

 private:
  std::vector<std::uint64_t> stamps_;  // accessed via std::atomic_ref
  std::uint64_t epoch_ = 0;
};

/// Shared initial-reduction fixpoint: delete every non-maximal edge of
/// `residual` (which must be freshly constructed or at least
/// vertex-complete) using the bulk containment sweep, re-seeding
/// follow-up candidates from the overlap neighborhoods of the edges
/// just doomed instead of rescanning all live edges. Returns the number
/// of edges erased. Deleting edges cannot create new containments
/// (residual vertex sets are untouched), so the re-seeded second sweep
/// is a bounded self-check that terminates the fixpoint after work
/// proportional to the doomed edges' neighborhoods -- adversarial
/// duplicate chains stay linear where the full-rescan loop went
/// quadratic.
index_t erase_non_maximal(ResidualHypergraph& residual, PeelStats* stats);

}  // namespace hp::hyper
