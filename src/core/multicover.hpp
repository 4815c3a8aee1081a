// Greedy minimum-weight vertex multicover (paper, section 4.1).
//
// Each hyperedge f carries a coverage requirement r_f >= 1 and must be
// hit by at least r_f distinct cover vertices. The greedy algorithm is
// the Fig. 5 procedure with one change: when a vertex enters the cover,
// only hyperedges whose requirement is now met are deleted; a partially
// satisfied hyperedge keeps contributing (its residual demand) to the
// costs of its remaining vertices. The approximation ratio stays H_m.
//
// The paper uses r_f = 2 to make the 70 %-reproducible TAP experiment
// identify every complex at least twice (559 proteins in their data;
// singleton complexes, which cannot be covered twice, are excluded).
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

#include "core/cover.hpp"
#include "core/hypergraph.hpp"

namespace hp::hyper {

/// The two weightings the paper's covers use: unit_weights (minimum
/// cardinality) and degree_squared_weights (low-degree baits).
enum class CoverWeights : std::uint8_t { kUnit, kDegreeSquared };

/// The weight vector a CoverWeights names.
std::vector<double> cover_weights(const Hypergraph& h, CoverWeights weights);

/// One greedy multicover: a weighting and a uniform requirement r >= 1.
struct CoverKey {
  CoverWeights weights = CoverWeights::kUnit;
  index_t r = 1;

  auto operator<=>(const CoverKey&) const = default;
};

/// The three covers section 4 reports, in bio::BaitStrategy order: the
/// Fig. 5 unit cover (109 proteins), the degree^2 cover (233) and the
/// degree^2 2-multicover (558; degree^2 weights too, since the paper's
/// 2-multicover has average bait degree 1.74, i.e. it too prefers
/// low-degree baits rather than minimizing the bait count). The report
/// reads exactly these, so AnalysisContext::prefetch() builds exactly
/// these.
inline constexpr CoverKey kPaperCovers[] = {
    {CoverWeights::kUnit, 1},
    {CoverWeights::kDegreeSquared, 1},
    {CoverWeights::kDegreeSquared, 2},
};

struct MulticoverResult {
  std::vector<index_t> vertices;  ///< selection order
  double total_weight = 0.0;
  double average_degree = 0.0;
  /// Hyperedges whose requirement exceeds their cardinality; these are
  /// infeasible and were clamped to their cardinality (the paper's
  /// "excluding three complexes that consist of a single protein").
  std::vector<index_t> clamped_edges;
};

/// Greedy weighted multicover, the one greedy cover loop. `weights`
/// holds one non-negative entry per vertex; requirements[f] >= 1 per
/// edge; entries larger than edge_size(f) are clamped (and reported)
/// because a vertex can hit an edge at most once.
MulticoverResult greedy_multicover(const Hypergraph& h,
                                   const std::vector<double>& weights,
                                   const std::vector<index_t>& requirements);

/// Convenience: uniform requirement r for every hyperedge.
MulticoverResult greedy_multicover(const Hypergraph& h,
                                   const std::vector<double>& weights,
                                   index_t r);

/// True if every hyperedge f is hit by at least min(r_f, |f|) distinct
/// vertices of `cover`.
bool is_multicover(const Hypergraph& h, const std::vector<index_t>& cover,
                   const std::vector<index_t>& requirements);

}  // namespace hp::hyper
