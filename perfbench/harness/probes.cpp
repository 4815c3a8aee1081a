#include "probes.hpp"

#include "par/thread_pool.hpp"

namespace hp::perfbench {

void PeelTotals::add(const hyper::PeelStats& stats) {
  rounds += stats.peel_rounds;
  vertex_deletions += stats.vertex_deletions;
  edge_deletions += stats.edge_deletions;
  overlap_decrements += stats.overlap_decrements;
  containment_probes += stats.containment_probes;
  frontier_pushes += stats.frontier_pushes;
  frontier_wasted += stats.frontier_wasted;
  repairs += stats.repairs;
  repair_fallbacks += stats.repair_fallbacks;
}

void PeelTotals::add(const PeelTotals& other) {
  rounds += other.rounds;
  vertex_deletions += other.vertex_deletions;
  edge_deletions += other.edge_deletions;
  overlap_decrements += other.overlap_decrements;
  containment_probes += other.containment_probes;
  frontier_pushes += other.frontier_pushes;
  frontier_wasted += other.frontier_wasted;
  repairs += other.repairs;
  repair_fallbacks += other.repair_fallbacks;
}

PeelTotals PeelTotals::between(const PeelTotals& before,
                               const PeelTotals& after) {
  PeelTotals d;
  d.rounds = after.rounds - before.rounds;
  d.vertex_deletions = after.vertex_deletions - before.vertex_deletions;
  d.edge_deletions = after.edge_deletions - before.edge_deletions;
  d.overlap_decrements = after.overlap_decrements - before.overlap_decrements;
  d.containment_probes = after.containment_probes - before.containment_probes;
  d.frontier_pushes = after.frontier_pushes - before.frontier_pushes;
  d.frontier_wasted = after.frontier_wasted - before.frontier_wasted;
  d.repairs = after.repairs - before.repairs;
  d.repair_fallbacks = after.repair_fallbacks - before.repair_fallbacks;
  return d;
}

Json PeelTotals::json() const {
  Json json;
  json.integer("rounds", rounds)
      .integer("vertex_deletions", vertex_deletions)
      .integer("edge_deletions", edge_deletions)
      .integer("overlap_decrements", overlap_decrements)
      .integer("containment_probes", containment_probes)
      .integer("frontier_pushes", frontier_pushes)
      .integer("frontier_wasted", frontier_wasted)
      .integer("repairs", repairs)
      .integer("repair_fallbacks", repair_fallbacks);
  return json;
}

PoolSample PoolSample::take() {
  par::ThreadPool& pool = par::ThreadPool::global();
  const par::PoolStats stats = pool.stats();
  PoolSample sample;
  sample.tasks = stats.tasks;
  sample.steals = stats.steals;
  sample.idle_ns = stats.idle_ns;
  sample.workers = pool.worker_count();
  return sample;
}

Json pool_json(const PoolSample& before, const PoolSample& after) {
  Json json;
  json.integer("tasks", after.tasks - before.tasks)
      .integer("steals", after.steals - before.steals)
      .number("idle_ms", static_cast<double>(after.idle_ns - before.idle_ns) /
                             1e6)
      .integer("workers", static_cast<std::uint64_t>(after.workers));
  return json;
}

}  // namespace hp::perfbench
