#include "bio/bait.hpp"

namespace hp::bio {

BaitSelection select_baits(const hyper::Hypergraph& h, BaitStrategy strategy) {
  // Degree^2 weights for both kDegreeSquared and kDoubleCoverage: the
  // paper's 2-multicover has average bait degree 1.74, i.e. it too
  // prefers low-degree baits rather than minimizing the bait count.
  const hyper::MulticoverResult cover = hyper::greedy_multicover(
      h,
      strategy == BaitStrategy::kMinCardinality
          ? hyper::unit_weights(h)
          : hyper::degree_squared_weights(h),
      strategy == BaitStrategy::kDoubleCoverage ? 2 : 1);
  BaitSelection selection;
  selection.strategy = strategy;
  selection.baits = cover.vertices;
  selection.average_degree = cover.average_degree;
  selection.excluded_complexes = cover.clamped_edges;
  return selection;
}

std::vector<std::string> bait_names(const BaitSelection& selection,
                                    const ProteinRegistry& proteins) {
  std::vector<std::string> names;
  names.reserve(selection.baits.size());
  for (index_t v : selection.baits) names.push_back(proteins.name_of(v));
  return names;
}

std::vector<index_t> pulldown_counts(const hyper::Hypergraph& h,
                                     const std::vector<index_t>& baits) {
  std::vector<index_t> counts;
  counts.reserve(baits.size());
  for (index_t v : baits) {
    HP_REQUIRE(v < h.num_vertices(), "pulldown_counts: bait out of range");
    counts.push_back(h.vertex_degree(v));
  }
  return counts;
}

}  // namespace hp::bio
