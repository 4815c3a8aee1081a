// Pairwise hyperedge overlap table (CSR-of-rows).
//
// overlap(f, g) = |f ∩ g| is the quantity the paper's k-core algorithm
// reasons about: an edge f is contained in g exactly when its current
// cardinality equals its current overlap with g. The table also yields
// degree-2 statistics: d2(f) = number of hyperedges sharing at least
// one vertex with f (Delta_2,F = max over f), and d2(v) = number of
// distinct other vertices co-occurring with v, both of which appear in
// the paper's complexity bounds and in Table 1.
//
// Read-only after construction. Every row lives in two contiguous
// arrays addressed by per-row offsets:
//
//   offsets_:   |F|+1 row starts
//   neighbors_: row f = sorted ids of edges overlapping f
//   counts_:    counts_[s] = |f ∩ neighbors_[s]| (always >= 1)
//
// so point lookups are binary searches and row sweeps are contiguous.
// Consumers: Table-1 statistics, the s-overlap census, the analysis
// context and its byte accounting.
#pragma once

#include <span>
#include <vector>

#include "core/hypergraph.hpp"

namespace hp::hyper {

class OverlapTable {
 public:
  /// Build from incidence lists in O(sum_f sum_{v in f} d(v)) time.
  explicit OverlapTable(const Hypergraph& h);

  index_t num_edges() const {
    return static_cast<index_t>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }

  /// Sorted ids of the edges (other than f) that overlap f.
  std::span<const index_t> neighbors(index_t f) const {
    return {neighbors_.data() + offsets_[f],
            neighbors_.data() + offsets_[f + 1]};
  }

  /// Overlap sizes, parallel to neighbors(f).
  std::span<const index_t> counts(index_t f) const {
    return {counts_.data() + offsets_[f], counts_.data() + offsets_[f + 1]};
  }

  /// |f ∩ g|; zero when disjoint or f == g.
  index_t overlap(index_t f, index_t g) const;

  /// d2(f): number of hyperedges overlapping f.
  index_t degree2(index_t f) const {
    return static_cast<index_t>(offsets_[f + 1] - offsets_[f]);
  }

  /// Delta_2,F: max degree2 over all hyperedges (0 if no edges).
  index_t max_degree2() const;

  /// Bytes held by the CSR arrays (footprint reporting / benches).
  std::size_t storage_bytes() const {
    return offsets_.size() * sizeof(offsets_[0]) +
           neighbors_.size() * sizeof(neighbors_[0]) +
           counts_.size() * sizeof(counts_[0]);
  }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<index_t> neighbors_;
  std::vector<index_t> counts_;
};

/// d2(v): number of distinct vertices other than v sharing a hyperedge
/// with v (the cover algorithm's complexity parameter).
std::vector<index_t> vertex_degree2(const Hypergraph& h);

}  // namespace hp::hyper
