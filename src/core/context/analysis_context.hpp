// AnalysisContext: the memoized derived-artifact layer.
//
// Every analysis the report prints (§2 properties, §3 cores, §4 covers)
// is computed from the same handful of derived structures -- connected
// components, the degree and size histograms, the pairwise overlap
// table, the full core decomposition, the structural summary, the
// all-pairs path statistics, the greedy bait covers and the maximal
// matching. An AnalysisContext owns one immutable Hypergraph and
// builds each of those at most once, on first access, behind a single
// API, so the CLI, bio::analyze, hp_serve and the bench drivers stop
// rebuilding them independently. It holds exactly the artifacts those
// callers read: the graph projections and the dual are computed
// directly (core/projection.hpp, core/dual.hpp) where a bench needs
// them, not cached here.
//
// Concurrency: each slot is guarded by its own mutex with an atomic
// ready flag fast path, so concurrent readers racing on a cold slot
// build it exactly once and everyone blocks until the value is ready.
// Covers are keyed: a short map lock finds (or inserts) the key's slot,
// and the build runs under that slot alone, so different keys build
// concurrently and no key builds twice. Slots may depend on one another
// (summary pulls components and overlaps); the dependency graph is
// acyclic, so nested builds cannot deadlock. Counter updates are
// relaxed atomics -- ContextStats snapshots are advisory, the cached
// references are what carry the synchronization.
//
// The context is build-once: nothing is ever reset or rebuilt. To
// analyse a changed hypergraph, construct a new context over it. It is
// neither copyable nor movable (the slot mutexes pin it); construct it
// where it will live, e.g. once per CLI invocation or per bench table
// row.
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <optional>

#include "core/context/context_stats.hpp"
#include "core/hypergraph.hpp"
#include "core/kcore.hpp"
#include "core/matching.hpp"
#include "core/multicover.hpp"
#include "core/overlap.hpp"
#include "core/peel/peel_stats.hpp"
#include "core/stats.hpp"
#include "core/traversal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/histogram.hpp"
#include "util/timer.hpp"

namespace hp::hyper {

namespace detail {

/// One memoized artifact: built on first access, exactly once, then
/// served by const reference. The first access counts as the build;
/// every later access counts as a hit. The build runs under a trace
/// span named `trace_name` (a literal, e.g.
/// "context.build.components") and records its latency into the
/// "context.build_ns" histogram, so every artifact construction is
/// visible on the obs timeline.
template <typename T>
class ArtifactSlot {
 public:
  template <typename Build>
  const T& get(const char* trace_name, const Build& build) const {
    if (ready_.load(std::memory_order_acquire)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *value_;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!ready_.load(std::memory_order_relaxed)) {
      obs::TraceSpan span{trace_name};
      Timer timer;
      value_.emplace(build());
      const std::uint64_t elapsed_ns = timer.nanoseconds();
      build_seconds_ = static_cast<double>(elapsed_ns) / 1e9;
      obs::latency("context.build_ns").record_ns(elapsed_ns);
      ready_.store(true, std::memory_order_release);
    } else {
      // Lost the race to a concurrent builder: the value is ready.
      hits_.fetch_add(1, std::memory_order_relaxed);
    }
    return *value_;
  }

  /// Wall-clock seconds the build took; 0 while the slot is cold. Like
  /// the get() fast path, the acquire load orders the read after the
  /// build that wrote it, and nothing writes it again.
  double build_seconds() const {
    return ready_.load(std::memory_order_acquire) ? build_seconds_ : 0.0;
  }

  /// Counter snapshot; `bytes_of` is only invoked on a built value.
  template <typename BytesOf>
  ArtifactStats stats(const char* name, const BytesOf& bytes_of) const {
    ArtifactStats s;
    s.name = name;
    s.hits = hits_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (ready_.load(std::memory_order_relaxed)) {
      s.builds = 1;
      s.build_seconds = build_seconds_;
      s.bytes = bytes_of(*value_);
    }
    return s;
  }

 private:
  mutable std::mutex mu_;
  mutable std::atomic<bool> ready_{false};
  mutable std::optional<T> value_;
  mutable double build_seconds_ = 0.0;
  mutable std::atomic<count_t> hits_{0};
};

}  // namespace detail

class AnalysisContext {
 public:
  /// Take ownership of the (immutable) hypergraph under analysis.
  explicit AnalysisContext(Hypergraph h) : hypergraph_(std::move(h)) {}

  AnalysisContext(const AnalysisContext&) = delete;
  AnalysisContext& operator=(const AnalysisContext&) = delete;

  const Hypergraph& hypergraph() const { return hypergraph_; }

  /// Connected components of the bipartite incidence structure.
  const HyperComponents& components() const;

  /// Histogram of vertex degrees (Fig. 1 input).
  const Histogram& vertex_degree_histogram() const;

  /// Histogram of hyperedge cardinalities.
  const Histogram& edge_size_histogram() const;

  /// Pairwise hyperedge overlap table (Delta_2,F and friends).
  const OverlapTable& overlaps() const;

  /// Full k-core decomposition (the frontier peel, core/peel/).
  const HyperCoreResult& cores() const;

  /// Substrate counters captured while cores() was built; forces the
  /// core decomposition if it has not run yet.
  const PeelStats& core_peel_stats() const;

  /// Seconds the core decomposition took when it was built (0 until
  /// cores() has run). After prefetch() this is still the build time,
  /// not the time of a cached read.
  double core_build_seconds() const;

  /// Table-1 style structural summary; shares components() and
  /// overlaps() instead of rebuilding them.
  const HypergraphSummary& summary() const;

  /// Exact all-pairs path statistics (diameter, average length).
  const HyperPathSummary& paths() const;

  /// Greedy multicover (core/multicover.hpp) with `weights` and the
  /// uniform requirement r >= 1. One slot per (weights, min(r, max edge
  /// size + 1)): above the largest edge every edge is clamped to its
  /// cardinality, so every such r gives the same cover and the same
  /// clamped_edges, and at most 2 * (max edge size + 1) keys exist. The
  /// weight vector is built only inside the slot's build.
  const MulticoverResult& cover(CoverWeights weights, index_t r) const;

  /// Greedy maximal matching (core/matching.hpp).
  const MatchingResult& matching() const;

  /// Build every artifact bio::analyze reads -- components, both
  /// histograms, overlaps, cores and paths, fanned out across the shared
  /// pool (src/par/) via a TaskGroup, then summary, whose inputs
  /// (components + overlaps) are warm by then, then the three
  /// kPaperCovers, fanned out again. The matching stays cold. Safe to
  /// call concurrently with readers: the slots still guarantee
  /// exactly-once construction. At HP_THREADS=1 this runs every build
  /// inline, in the order listed.
  void prefetch() const;

  /// Snapshot of every slot's build/hit counters.
  ContextStats stats() const;

 private:
  Hypergraph hypergraph_;

  detail::ArtifactSlot<HyperComponents> components_;
  detail::ArtifactSlot<Histogram> vertex_degree_histogram_;
  detail::ArtifactSlot<Histogram> edge_size_histogram_;
  detail::ArtifactSlot<OverlapTable> overlaps_;
  detail::ArtifactSlot<HyperCoreResult> cores_;
  detail::ArtifactSlot<HypergraphSummary> summary_;
  detail::ArtifactSlot<HyperPathSummary> paths_;
  detail::ArtifactSlot<MatchingResult> matching_;

  /// Guards the map (lookups and inserts) and cover_r_limit_, never a
  /// build. Nodes are never erased, so a slot's address stays valid
  /// after the lock is dropped.
  mutable std::mutex covers_mutex_;
  mutable std::map<CoverKey, detail::ArtifactSlot<MulticoverResult>> covers_;
  /// max edge size + 1, the largest distinct cover requirement; 0 until
  /// the first cover() call computes it.
  mutable index_t cover_r_limit_ = 0;

  /// Written exactly once, inside the cores_ build (under its mutex),
  /// read only after cores() returned.
  mutable PeelStats peel_stats_;
};

}  // namespace hp::hyper
