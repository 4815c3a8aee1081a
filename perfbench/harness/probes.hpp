// Layer counters the traced run reports next to the span self times:
// peel-substrate totals and work-stealing pool deltas.
#pragma once

#include <cstdint>

#include "common.hpp"
#include "core/peel/peel_stats.hpp"

namespace hp::perfbench {

/// Sum of the PeelStats counters the benchmark reports, over a phase.
struct PeelTotals {
  std::uint64_t rounds = 0;
  std::uint64_t vertex_deletions = 0;
  std::uint64_t edge_deletions = 0;
  std::uint64_t overlap_decrements = 0;
  std::uint64_t containment_probes = 0;
  std::uint64_t frontier_pushes = 0;
  std::uint64_t frontier_wasted = 0;
  std::uint64_t repairs = 0;
  std::uint64_t repair_fallbacks = 0;

  void add(const hyper::PeelStats& stats);
  void add(const PeelTotals& other);
  /// Counters accumulated between two cumulative readings.
  static PeelTotals between(const PeelTotals& before,
                            const PeelTotals& after);
  Json json() const;
};

/// The global pool's counters at one instant.
struct PoolSample {
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;
  std::uint64_t idle_ns = 0;
  int workers = 0;

  static PoolSample take();
};

/// Pool work between two samples: task and steal counts and worker idle
/// time (the pool credits a parked worker's idle time when it wakes).
Json pool_json(const PoolSample& before, const PoolSample& after);

}  // namespace hp::perfbench
