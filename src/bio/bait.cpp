#include "bio/bait.hpp"

namespace hp::bio {

BaitSelection select_baits(const hyper::AnalysisContext& context,
                           BaitStrategy strategy) {
  const hyper::CoverKey key =
      hyper::kPaperCovers[static_cast<std::size_t>(strategy)];
  const hyper::MulticoverResult& cover = context.cover(key.weights, key.r);
  BaitSelection selection;
  selection.strategy = strategy;
  selection.baits = cover.vertices;
  selection.average_degree = cover.average_degree;
  selection.excluded_complexes = cover.clamped_edges;
  return selection;
}

BaitSelection select_baits(const hyper::Hypergraph& h, BaitStrategy strategy) {
  const hyper::AnalysisContext context{h};
  return select_baits(context, strategy);
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
