// Instrumentation for the AnalysisContext derived-artifact cache.
//
// Mirrors PeelStats in spirit: every number the memoization layer could
// hide (what was built, how long it took, what it weighs, how often the
// cache was hit) is surfaced as a counter, so "the context builds each
// artifact exactly once" is an observable (hp_cli --context-stats,
// bench_micro_context) rather than a comment.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/common.hpp"

namespace hp::hyper {

/// Counters for one memoized artifact slot.
struct ArtifactStats {
  std::string name;
  /// Accesses that had to build the artifact: 0 (never requested) or 1
  /// (built). A keyed row (covers) sums its keys: the keys built.
  count_t builds = 0;
  /// Accesses served from the cache after a build.
  count_t hits = 0;
  /// In-place incremental updates applied to a built value instead of a
  /// rebuild (MutableAnalysisContext rows only).
  count_t incremental_updates = 0;
  /// Wall-clock seconds spent building.
  double build_seconds = 0.0;
  /// Bytes held by the cached artifact (0 until built).
  std::size_t bytes = 0;
};

/// Snapshot of every slot of an AnalysisContext, in declaration order.
struct ContextStats {
  std::vector<ArtifactStats> artifacts;

  /// Base hypergraph storage, split by ownership: heap-owned CSR
  /// buffers versus pages borrowed from an mmap'd snapshot. A context
  /// opened from a .hps snapshot reports its CSR arrays under
  /// `mapped`, not `owned` -- mapped pages are shared, evictable file
  /// cache, so counting them as heap usage would misstate the
  /// process's real footprint.
  std::size_t hypergraph_owned_bytes = 0;
  std::size_t hypergraph_mapped_bytes = 0;

  count_t total_builds() const;
  count_t total_hits() const;
  count_t total_incremental_updates() const;
  double total_build_seconds() const;
  std::size_t total_bytes() const;
};

/// Flat "context.<slot>.*" metric samples (builds/hits counters,
/// build_seconds/bytes gauges) plus "context.total.*" aggregates, for
/// the shared obs exporters. Slot names are slugged (spaces -> '_').
obs::MetricsSnapshot to_metrics(const ContextStats& stats);

/// Publish the snapshot into the global obs registry with absolute
/// (set) semantics; the CLI calls this before a --metrics export.
void publish_metrics(const ContextStats& stats);

/// Multi-line human-readable rendering (CLI --context-stats, benches);
/// formats through obs::render_table, the shared metrics table
/// exporter.
std::string to_string(const ContextStats& stats);

}  // namespace hp::hyper
