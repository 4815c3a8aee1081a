#include "core/context/context_stats.hpp"

namespace hp::hyper {

count_t ContextStats::total_builds() const {
  count_t total = 0;
  for (const ArtifactStats& a : artifacts) total += a.builds;
  return total;
}

count_t ContextStats::total_hits() const {
  count_t total = 0;
  for (const ArtifactStats& a : artifacts) total += a.hits;
  return total;
}

count_t ContextStats::total_incremental_updates() const {
  count_t total = 0;
  for (const ArtifactStats& a : artifacts) total += a.incremental_updates;
  return total;
}

double ContextStats::total_build_seconds() const {
  double total = 0.0;
  for (const ArtifactStats& a : artifacts) total += a.build_seconds;
  return total;
}

std::size_t ContextStats::total_bytes() const {
  std::size_t total = 0;
  for (const ArtifactStats& a : artifacts) total += a.bytes;
  return total;
}

namespace {

std::string slug(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == ' ') c = '_';
  }
  return out;
}

}  // namespace

obs::MetricsSnapshot to_metrics(const ContextStats& stats) {
  obs::MetricsSnapshot snap;
  for (const ArtifactStats& a : stats.artifacts) {
    const std::string prefix = "context." + slug(a.name);
    snap.counters.push_back({prefix + ".builds", a.builds});
    snap.counters.push_back({prefix + ".hits", a.hits});
    if (a.incremental_updates > 0) {
      snap.counters.push_back(
          {prefix + ".incremental_updates", a.incremental_updates});
    }
    if (a.builds > 0) {
      snap.gauges.push_back({prefix + ".build_seconds", a.build_seconds});
      snap.gauges.push_back(
          {prefix + ".bytes", static_cast<double>(a.bytes)});
    }
  }
  snap.counters.push_back({"context.total.builds", stats.total_builds()});
  snap.counters.push_back({"context.total.hits", stats.total_hits()});
  snap.counters.push_back({"context.total.incremental_updates",
                           stats.total_incremental_updates()});
  snap.gauges.push_back(
      {"context.total.build_seconds", stats.total_build_seconds()});
  snap.gauges.push_back(
      {"context.total.bytes", static_cast<double>(stats.total_bytes())});
  snap.gauges.push_back(
      {"context.hypergraph.owned_bytes",
       static_cast<double>(stats.hypergraph_owned_bytes)});
  snap.gauges.push_back(
      {"context.hypergraph.mapped_bytes",
       static_cast<double>(stats.hypergraph_mapped_bytes)});
  return snap;
}

void publish_metrics(const ContextStats& stats) {
  const obs::MetricsSnapshot snap = to_metrics(stats);
  for (const obs::CounterSample& c : snap.counters) {
    obs::counter(c.name).set(c.value);
  }
  for (const obs::GaugeSample& g : snap.gauges) {
    obs::gauge(g.name).set(g.value);
  }
}

std::string to_string(const ContextStats& stats) {
  return "context artifact counters:\n" +
         obs::render_table(to_metrics(stats));
}

}  // namespace hp::hyper
