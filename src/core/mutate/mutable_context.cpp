#include "core/mutate/mutable_context.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hp::hyper {

namespace detail {

void UnionFind::reset(index_t n) {
  parent.resize(n);
  size.assign(n, 1);
  for (index_t i = 0; i < n; ++i) parent[i] = i;
}

void UnionFind::grow(index_t n) {
  const index_t old = static_cast<index_t>(parent.size());
  if (n <= old) return;
  parent.resize(n);
  size.resize(n, 1);
  for (index_t i = old; i < n; ++i) parent[i] = i;
}

index_t UnionFind::find(index_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];  // path halving
    x = parent[x];
  }
  return x;
}

bool UnionFind::unite(index_t a, index_t b) {
  index_t ra = find(a);
  index_t rb = find(b);
  if (ra == rb) return false;
  if (size[ra] < size[rb]) std::swap(ra, rb);
  parent[rb] = ra;
  size[ra] += size[rb];
  return true;
}

}  // namespace detail

MutableAnalysisContext::MutableAnalysisContext(const Hypergraph& base)
    : graph_(base) {}

void MutableAnalysisContext::grow_tracked_arrays() {
  const index_t n = graph_.num_vertices();
  const index_t slots = graph_.num_edge_slots();
  if (vertex_mark_.size() < n) vertex_mark_.resize(n, 0);
  if (edge_mark_.size() < slots) edge_mark_.resize(slots, 0);
  if (degrees_counters_.built && degrees_.size() < n) {
    degrees_.resize(n, 0);
  }
  if (components_counters_.built && !labels_stale_) {
    // New vertices are isolated until an edge joins them: fresh labels.
    while (label_.size() < n) {
      label_.push_back(static_cast<index_t>(uf_.parent.size()));
      uf_.grow(label_.back() + 1);
    }
  }
}

void MutableAnalysisContext::apply() {
  if (graph_.dirty().empty()) return;
  HP_TRACE_SPAN("context.apply");
  const DirtyRegion region = graph_.drain_dirty();
  ++apply_stats_.applies;
  apply_stats_.mutations += region.mutations;
  obs::counter("context.apply.count").add(1);
  obs::counter("context.apply.mutations").add(region.mutations);

  grow_tracked_arrays();

  if (degrees_counters_.built) {
    HP_TRACE_SPAN("context.apply.degrees");
    for (const DirtyVertex& rec : region.vertices) {
      degrees_[rec.id] = graph_.vertex_degree(rec.id);
    }
    ++degrees_counters_.incremental_updates;
    ++apply_stats_.incremental_updates;
  }

  if (vertex_hist_counters_.built || edge_hist_counters_.built) {
    HP_TRACE_SPAN("context.apply.histograms");
    if (vertex_hist_counters_.built) {
      for (const DirtyVertex& rec : region.vertices) {
        const index_t now = graph_.vertex_degree(rec.id);
        if (rec.existed) {
          if (now == rec.old_degree) continue;
          vertex_hist_.remove(rec.old_degree);
        }
        vertex_hist_.add(now);
      }
      ++vertex_hist_counters_.incremental_updates;
      ++apply_stats_.incremental_updates;
    }
    if (edge_hist_counters_.built) {
      for (const DirtyEdge& rec : region.edges) {
        const bool alive = graph_.edge_alive(rec.id);
        const index_t now = graph_.edge_size(rec.id);
        if (rec.existed && alive && now == rec.old_size) continue;
        if (rec.existed) edge_hist_.remove(rec.old_size);
        if (alive) edge_hist_.add(now);
      }
      ++edge_hist_counters_.incremental_updates;
      ++apply_stats_.incremental_updates;
    }
  }

  if (components_counters_.built) {
    HP_TRACE_SPAN("context.apply.components");
    if (labels_stale_) {
      // Relabelled at the next query.
    } else if (region.structural_removal) {
      // A removal can split a component; which pieces split off is
      // decided lazily, at the next query (resolve_splits).
      note_split_seeds(region);
    } else if (!split_pending_) {
      for (const DirtyEdge& rec : region.edges) {
        if (!graph_.edge_alive(rec.id)) continue;
        const auto members = graph_.edge_members(rec.id);
        for (std::size_t i = 1; i < members.size(); ++i) {
          uf_.unite(label_[members[0]], label_[members[i]]);
        }
      }
      labeled_slots_ = graph_.num_edge_slots();
    }
    // Insertions behind a pending split are united when it resolves.
    components_dirty_ = true;
    ++components_counters_.incremental_updates;
    ++apply_stats_.incremental_updates;
  }

  if (cores_counters_.built) {
    HP_TRACE_SPAN("context.apply.cores");
    if (region.edges.empty()) {
      // No hyperedge changed, so no degree, overlap or containment did:
      // every core stands, and the new vertices, in no hyperedge, take
      // core 0 (DESIGN.md 12).
      cores_.vertex_core.resize(graph_.num_vertices(), 0);
      cores_.level_vertices[0] = graph_.num_vertices();
    } else {
      cores_dirty_ = true;
    }
    ++cores_counters_.incremental_updates;
    ++apply_stats_.incremental_updates;
  }
  // The rebuild tier is refreshed lazily: analysis() compares versions
  // and rebases (per-slot invalidation) only when actually queried.
}

const std::vector<index_t>& MutableAnalysisContext::vertex_degrees() {
  apply();
  if (!degrees_counters_.built) {
    degrees_.assign(graph_.num_vertices(), 0);
    for (index_t v = 0; v < graph_.num_vertices(); ++v) {
      degrees_[v] = graph_.vertex_degree(v);
    }
    degrees_counters_.built = true;
    ++degrees_counters_.builds;
  } else {
    ++degrees_counters_.hits;
  }
  return degrees_;
}

const Histogram& MutableAnalysisContext::vertex_degree_histogram() {
  apply();
  if (!vertex_hist_counters_.built) {
    vertex_hist_ = Histogram{};
    for (index_t v = 0; v < graph_.num_vertices(); ++v) {
      vertex_hist_.add(graph_.vertex_degree(v));
    }
    vertex_hist_counters_.built = true;
    ++vertex_hist_counters_.builds;
  } else {
    ++vertex_hist_counters_.hits;
  }
  return vertex_hist_;
}

const Histogram& MutableAnalysisContext::edge_size_histogram() {
  apply();
  if (!edge_hist_counters_.built) {
    edge_hist_ = Histogram{};
    for (index_t e = 0; e < graph_.num_edge_slots(); ++e) {
      if (graph_.edge_alive(e)) edge_hist_.add(graph_.edge_size(e));
    }
    edge_hist_counters_.built = true;
    ++edge_hist_counters_.builds;
  } else {
    ++edge_hist_counters_.hits;
  }
  return edge_hist_;
}

void MutableAnalysisContext::note_split_seeds(const DirtyRegion& region) {
  if (split_pending_) {
    // A second removal window before any query: nobody is reading the
    // components, so hold no seeds and relabel once when someone does.
    labels_stale_ = true;
    split_pending_ = false;
    split_seeds_.clear();
    return;
  }
  // Every component that changed holds a seed: a touched vertex, or a
  // member of an old hyperedge that lost pins. Any other component has
  // the same vertices and the same hyperedges as before.
  split_pending_ = true;
  for (const DirtyVertex& rec : region.vertices) {
    split_seeds_.push_back(rec.id);
  }
  for (const DirtyEdge& rec : region.edges) {
    if (rec.id < labeled_slots_ && graph_.edge_alive(rec.id)) {
      split_seeds_.push_back(graph_.edge_members(rec.id)[0]);
    }
  }
}

void MutableAnalysisContext::relabel_components() {
  // One search per unlabeled vertex in ascending id order: the labels
  // come out canonical, and the union-find only spans the components.
  const index_t n = graph_.num_vertices();
  if (edge_mark_.size() < graph_.num_edge_slots()) {
    edge_mark_.resize(graph_.num_edge_slots(), 0);
  }
  ++mark_epoch_;
  label_.assign(n, kInvalidIndex);
  index_t count = 0;
  std::vector<index_t> stack;
  for (index_t start = 0; start < n; ++start) {
    if (label_[start] != kInvalidIndex) continue;
    label_[start] = count;
    stack.push_back(start);
    while (!stack.empty()) {
      const index_t u = stack.back();
      stack.pop_back();
      for (index_t e : graph_.edges_of(u)) {
        if (edge_mark_[e] == mark_epoch_) continue;
        edge_mark_[e] = mark_epoch_;
        for (index_t w : graph_.edge_members(e)) {
          if (label_[w] == kInvalidIndex) {
            label_[w] = count;
            stack.push_back(w);
          }
        }
      }
    }
    ++count;
  }
  uf_.reset(count);
  labels_stale_ = false;
  split_pending_ = false;
  split_seeds_.clear();
  labeled_slots_ = graph_.num_edge_slots();
}

void MutableAnalysisContext::resolve_splits() {
  // Removals first, on the old edges only: that graph is a subgraph of
  // the one the labels describe, so its components refine the labeled
  // ones and each label can be split on its own.
  std::vector<std::pair<index_t, index_t>> by_label;  // (label, seed)
  by_label.reserve(split_seeds_.size());
  for (index_t s : split_seeds_) by_label.emplace_back(uf_.find(label_[s]), s);
  std::sort(by_label.begin(), by_label.end());
  by_label.erase(std::unique(by_label.begin(), by_label.end()),
                 by_label.end());
  std::vector<index_t> seeds;
  for (std::size_t i = 0; i < by_label.size();) {
    seeds.clear();
    std::size_t j = i;
    for (; j < by_label.size() && by_label[j].first == by_label[i].first; ++j) {
      seeds.push_back(by_label[j].second);
    }
    // One seed cannot split its label: every piece holds a seed.
    if (seeds.size() > 1) split_off(seeds);
    i = j;
  }
  // Then the hyperedges inserted since, as plain unions.
  for (index_t e = labeled_slots_; e < graph_.num_edge_slots(); ++e) {
    if (!graph_.edge_alive(e)) continue;
    const auto members = graph_.edge_members(e);
    for (std::size_t i = 1; i < members.size(); ++i) {
      uf_.unite(label_[members[0]], label_[members[i]]);
    }
  }
  split_pending_ = false;
  split_seeds_.clear();
  labeled_slots_ = graph_.num_edge_slots();
}

void MutableAnalysisContext::split_off(std::span<const index_t> seeds) {
  // Balanced search (Even and Shiloach, JACM 1981): one search per seed
  // over the old hyperedges, expanding one vertex per search in turn.
  // Searches that meet merge into one group; a group whose queue runs
  // dry is a whole component. Once at most one group is still growing,
  // every finished group gets a fresh label and the growing one keeps
  // the old label, so the work is bounded by the pieces that split off,
  // not by the piece that stays.
  const index_t k = static_cast<index_t>(seeds.size());
  if (search_owner_.size() < vertex_mark_.size()) {
    search_owner_.resize(vertex_mark_.size());
  }
  ++mark_epoch_;
  std::vector<index_t> group(k);             // union-find over searches
  std::vector<std::vector<index_t>> queue(k);
  std::vector<std::size_t> head(k, 0);
  std::vector<char> finished(k, 0);
  std::vector<index_t> claimed;
  const auto find = [&group](index_t g) {
    while (group[g] != g) g = group[g] = group[group[g]];
    return g;
  };
  for (index_t i = 0; i < k; ++i) {
    group[i] = i;
    queue[i].push_back(seeds[i]);
    vertex_mark_[seeds[i]] = mark_epoch_;
    search_owner_[seeds[i]] = i;
    claimed.push_back(seeds[i]);
  }
  index_t growing = k;
  std::vector<index_t> turn(k);
  for (index_t i = 0; i < k; ++i) turn[i] = i;
  while (growing > 1) {
    std::size_t next = 0;
    for (index_t r : turn) {
      if (growing <= 1) break;
      if (find(r) != r || finished[r]) continue;
      turn[next++] = r;
      const index_t u = queue[r][head[r]++];
      for (index_t e : graph_.edges_of(u)) {
        if (e >= labeled_slots_ || edge_mark_[e] == mark_epoch_) continue;
        edge_mark_[e] = mark_epoch_;
        for (index_t w : graph_.edge_members(e)) {
          if (vertex_mark_[w] != mark_epoch_) {
            vertex_mark_[w] = mark_epoch_;
            search_owner_[w] = r;
            queue[r].push_back(w);
            claimed.push_back(w);
            continue;
          }
          index_t other = find(search_owner_[w]);
          if (other == r) continue;
          // Two searches met: the one with more queued work absorbs the
          // other's queue.
          index_t keep = r;
          if (queue[other].size() - head[other] >
              queue[r].size() - head[r]) {
            std::swap(keep, other);
          }
          queue[keep].insert(queue[keep].end(),
                             queue[other].begin() +
                                 static_cast<std::ptrdiff_t>(head[other]),
                             queue[other].end());
          std::vector<index_t>().swap(queue[other]);
          head[other] = 0;
          group[other] = keep;
          r = keep;
          --growing;
        }
      }
      if (head[r] == queue[r].size()) {
        finished[r] = 1;
        --growing;
      }
    }
    turn.resize(next);
  }
  std::vector<index_t> fresh(k, kInvalidIndex);
  for (index_t i = 0; i < k; ++i) {
    if (find(i) == i && finished[i]) {
      fresh[i] = static_cast<index_t>(uf_.parent.size());
      uf_.grow(fresh[i] + 1);
    }
  }
  for (index_t v : claimed) {
    const index_t g = find(search_owner_[v]);
    if (fresh[g] != kInvalidIndex) label_[v] = fresh[g];
  }
}

void MutableAnalysisContext::canonicalize_components() {
  const index_t n = graph_.num_vertices();
  HyperComponents out;
  out.vertex_label.assign(n, kInvalidIndex);
  // Labels are assigned at the first root sighting in ascending vertex
  // id order -- exactly the order connected_components() seeds its DFS
  // from, so the two labelings are bit-identical.
  std::vector<index_t> root_label(uf_.parent.size(), kInvalidIndex);
  for (index_t v = 0; v < n; ++v) {
    const index_t root = uf_.find(label_[v]);
    if (root_label[root] == kInvalidIndex) {
      root_label[root] = out.count++;
      out.vertex_counts.push_back(0);
    }
    out.vertex_label[v] = root_label[root];
    ++out.vertex_counts[out.vertex_label[v]];
  }
  out.edge_counts.assign(out.count, 0);
  out.edge_label.reserve(graph_.live_edges());
  for (index_t e = 0; e < graph_.num_edge_slots(); ++e) {
    if (!graph_.edge_alive(e)) continue;
    const index_t label = out.vertex_label[graph_.edge_members(e)[0]];
    out.edge_label.push_back(label);
    ++out.edge_counts[label];
  }
  // The canonical labels become the working labels: one flat set per
  // component, and fresh split labels never pile up.
  label_ = out.vertex_label;
  uf_.reset(out.count);
  components_ = std::move(out);
}

const HyperComponents& MutableAnalysisContext::components() {
  apply();
  if (!components_counters_.built) {
    relabel_components();
    canonicalize_components();
    components_counters_.built = true;
    components_dirty_ = false;
    ++components_counters_.builds;
  } else {
    if (components_dirty_) {
      if (labels_stale_) {
        relabel_components();
        ++apply_stats_.component_rebuilds;
      } else if (split_pending_) {
        resolve_splits();
      }
      canonicalize_components();
      components_dirty_ = false;
    }
    ++components_counters_.hits;
  }
  return components_;
}

void MutableAnalysisContext::build_cores_full() {
  const MutableHypergraph::Snapshot& snap = graph_.snapshot();
  HyperCoreResult compact = core_decomposition(snap.hypergraph, &peel_stats_);
  const index_t slots = graph_.num_edge_slots();
  cores_.vertex_core = std::move(compact.vertex_core);
  cores_.edge_core.assign(slots, 0);
  cores_.in_reduced.assign(slots, 0);
  for (index_t j = 0; j < snap.edge_to_stable.size(); ++j) {
    cores_.edge_core[snap.edge_to_stable[j]] = compact.edge_core[j];
    cores_.in_reduced[snap.edge_to_stable[j]] = compact.in_reduced[j];
  }
  cores_.max_core = compact.max_core;
  cores_.level_vertices = std::move(compact.level_vertices);
  cores_.level_edges = std::move(compact.level_edges);
}

const HyperCoreResult& MutableAnalysisContext::cores() {
  apply();
  if (!cores_counters_.built) {
    build_cores_full();
    cores_counters_.built = true;
    ++cores_counters_.builds;
  } else {
    if (cores_dirty_) {
      HP_TRACE_SPAN("context.cores.repeel");
      build_cores_full();
      ++peel_stats_.repair_fallbacks;
      ++apply_stats_.core_repeels;
    }
    ++cores_counters_.hits;
  }
  cores_dirty_ = false;
  return cores_;
}

const MutableHypergraph::Snapshot& MutableAnalysisContext::snapshot() {
  apply();
  return graph_.snapshot();
}

AnalysisContext& MutableAnalysisContext::analysis() {
  apply();
  const MutableHypergraph::Snapshot& snap = graph_.snapshot();
  if (!analysis_) {
    analysis_ = std::make_unique<AnalysisContext>(snap.hypergraph);
    analysis_version_ = graph_.version();
  } else if (analysis_version_ != graph_.version()) {
    const index_t reset_count = analysis_->rebase(snap.hypergraph);
    apply_stats_.slot_invalidations += reset_count;
    obs::counter("context.apply.slot_invalidations").add(reset_count);
    analysis_version_ = graph_.version();
  }
  return *analysis_;
}

ContextStats MutableAnalysisContext::stats() {
  ContextStats out;
  const auto row = [](const char* name, const CheapCounters& c,
                      std::size_t bytes) {
    ArtifactStats s;
    s.name = name;
    s.builds = c.builds;
    s.hits = c.hits;
    s.incremental_updates = c.incremental_updates;
    s.bytes = c.built ? bytes : 0;
    return s;
  };
  out.artifacts.push_back(row("incremental degrees", degrees_counters_,
                              degrees_.size() * sizeof(index_t)));
  out.artifacts.push_back(
      row("incremental vertex degree histogram", vertex_hist_counters_,
          vertex_hist_.frequencies().size() * sizeof(std::size_t)));
  out.artifacts.push_back(
      row("incremental edge size histogram", edge_hist_counters_,
          edge_hist_.frequencies().size() * sizeof(std::size_t)));
  out.artifacts.push_back(
      row("incremental components", components_counters_,
          (components_.vertex_label.size() + components_.edge_label.size() +
           components_.vertex_counts.size() + components_.edge_counts.size()) *
              sizeof(index_t)));
  out.artifacts.push_back(
      row("incremental cores", cores_counters_,
          (cores_.vertex_core.size() + cores_.edge_core.size() +
           cores_.level_vertices.size() + cores_.level_edges.size()) *
                  sizeof(index_t) +
              cores_.in_reduced.size()));
  // The unpacked mutable representation always lives on the heap; only
  // the inner analysis context (rebased onto materialized snapshots)
  // can be carrying mapped pages.
  out.hypergraph_owned_bytes = graph_.storage_bytes();
  if (analysis_) {
    ContextStats inner = analysis_->stats();
    for (ArtifactStats& a : inner.artifacts) {
      out.artifacts.push_back(std::move(a));
    }
    out.hypergraph_owned_bytes += inner.hypergraph_owned_bytes;
    out.hypergraph_mapped_bytes += inner.hypergraph_mapped_bytes;
  }
  return out;
}

}  // namespace hp::hyper
