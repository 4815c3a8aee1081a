#include "core/peel/peel_stats.hpp"

namespace hp::hyper {

obs::MetricsSnapshot to_metrics(const PeelStats& stats) {
  obs::MetricsSnapshot snap;
  snap.counters = {
      {"peel.overlap_decrements", stats.overlap_decrements},
      {"peel.containment_probes", stats.containment_probes},
      {"peel.vertex_deletions", stats.vertex_deletions},
      {"peel.edge_deletions", stats.edge_deletions},
      {"peel.cascaded_edge_deletions", stats.cascaded_edge_deletions},
      {"peel.rounds", stats.peel_rounds},
      {"peel.peak_queue_length", stats.peak_queue_length},
      {"peel.frontier_pushes", stats.frontier_pushes},
      {"peel.frontier_wasted", stats.frontier_wasted},
      {"peel.repairs", stats.repairs},
      {"peel.repair_fallbacks", stats.repair_fallbacks},
  };
  return snap;
}

void publish_metrics(const PeelStats& stats) {
  obs::counter("peel.overlap_decrements").add(stats.overlap_decrements);
  obs::counter("peel.containment_probes").add(stats.containment_probes);
  obs::counter("peel.vertex_deletions").add(stats.vertex_deletions);
  obs::counter("peel.edge_deletions").add(stats.edge_deletions);
  obs::counter("peel.cascaded_edge_deletions")
      .add(stats.cascaded_edge_deletions);
  obs::counter("peel.rounds").add(stats.peel_rounds);
  obs::counter("peel.frontier_pushes").add(stats.frontier_pushes);
  obs::counter("peel.frontier_wasted").add(stats.frontier_wasted);
  obs::counter("peel.repairs").add(stats.repairs);
  obs::counter("peel.repair_fallbacks").add(stats.repair_fallbacks);
  // Peaks do not sum across peels; last-write gauge keeps the largest
  // recent value observable without inventing max-counter semantics.
  obs::gauge("peel.peak_queue_length")
      .set(static_cast<double>(stats.peak_queue_length));
}

std::string to_string(const PeelStats& stats) {
  return obs::render_table(to_metrics(stats));
}

}  // namespace hp::hyper
