// Bait-selection pipeline (paper section 4).
//
// Wraps the hypergraph cover algorithms into the domain-level decision:
// which proteins should be TAP-tagged so that every complex is pulled
// down, preferring low-degree baits (they identify their complexes less
// ambiguously) and optionally covering every complex more than once to
// compensate for the experiment's ~70 % reproducibility.
#pragma once

#include <string>
#include <vector>

#include "bio/complex_io.hpp"
#include "core/context/analysis_context.hpp"
#include "core/cover.hpp"
#include "core/multicover.hpp"

namespace hp::bio {

/// Each strategy runs its row of hyper::kPaperCovers, in this order.
enum class BaitStrategy {
  kMinCardinality,   ///< unit weights (paper: 109 proteins, avg deg 3.7)
  kDegreeSquared,    ///< w = deg^2   (paper: 233 proteins, avg deg 1.14)
  kDoubleCoverage,   ///< 2-multicover, w = deg^2 (paper: 558, avg 1.74)
};

struct BaitSelection {
  BaitStrategy strategy;
  std::vector<index_t> baits;        ///< protein ids
  double average_degree = 0.0;
  /// Complexes that could not meet the requested multiplicity
  /// (singletons under kDoubleCoverage; empty otherwise).
  std::vector<index_t> excluded_complexes;
};

/// Run one strategy through the context's memoized cover.
BaitSelection select_baits(const hyper::AnalysisContext& context,
                           BaitStrategy strategy);

/// Convenience overload: runs on a fresh private context over h.
BaitSelection select_baits(const hyper::Hypergraph& h, BaitStrategy strategy);

/// Bait names for reporting.
std::vector<std::string> bait_names(const BaitSelection& selection,
                                    const ProteinRegistry& proteins);

/// How many complexes each bait pulls down (= its degree); the paper
/// reports the distribution for Cellzome's 459 baits (429 pull one
/// complex, 26 two, 4 three).
std::vector<index_t> pulldown_counts(const hyper::Hypergraph& h,
                                     const std::vector<index_t>& baits);

}  // namespace hp::bio
