#include "core/mutate/mutable_context.hpp"

#include <algorithm>

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

namespace {

/// Bump-safe histogram access over exact-core counts.
void bump(std::vector<count_t>& counts, index_t value, bool up) {
  if (value >= counts.size()) counts.resize(value + 1, 0);
  if (up) {
    ++counts[value];
  } else {
    --counts[value];
  }
}

}  // namespace

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
  if (components_counters_.built && !uf_stale_) uf_.grow(n);
  if (cores_counters_.built) {
    const index_t old_n = static_cast<index_t>(cores_.vertex_core.size());
    if (n > old_n) {
      cores_.vertex_core.resize(n, 0);
      bump(core_count_v_, 0, true);
      core_count_v_[0] += (n - old_n) - 1;  // bump added the first one
    }
    const index_t old_e = static_cast<index_t>(cores_.edge_core.size());
    if (slots > old_e) {
      cores_.edge_core.resize(slots, 0);
      cores_.in_reduced.resize(slots, 0);
      bump(core_count_e_, 0, true);
      core_count_e_[0] += (slots - old_e) - 1;
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
    if (region.structural_removal) {
      // Connectivity can only be *proven* under insertion; any removal
      // invalidates the union-find until the next rebuild.
      uf_stale_ = true;
    } else if (!uf_stale_) {
      for (const DirtyEdge& rec : region.edges) {
        if (!graph_.edge_alive(rec.id)) continue;
        const auto members = graph_.edge_members(rec.id);
        for (std::size_t i = 1; i < members.size(); ++i) {
          uf_.unite(members[0], members[i]);
        }
      }
    }
    components_dirty_ = true;
    ++components_counters_.incremental_updates;
    ++apply_stats_.incremental_updates;
  }

  if (cores_counters_.built) {
    HP_TRACE_SPAN("context.apply.cores");
    for (const DirtyVertex& rec : region.vertices) {
      pending_seeds_.push_back(rec.id);
      if (rec.existed && !graph_.vertex_alive(rec.id)) {
        pending_dead_vertices_.push_back(rec.id);
      }
    }
    for (const DirtyEdge& rec : region.edges) {
      if (graph_.edge_alive(rec.id)) {
        const auto members = graph_.edge_members(rec.id);
        pending_seeds_.insert(pending_seeds_.end(), members.begin(),
                              members.end());
      } else if (rec.existed) {
        pending_dead_edges_.push_back(rec.id);
      }
    }
    cores_dirty_ = true;
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

void MutableAnalysisContext::rebuild_union_find() {
  uf_.reset(graph_.num_vertices());
  for (index_t e = 0; e < graph_.num_edge_slots(); ++e) {
    if (!graph_.edge_alive(e)) continue;
    const auto members = graph_.edge_members(e);
    for (std::size_t i = 1; i < members.size(); ++i) {
      uf_.unite(members[0], members[i]);
    }
  }
  uf_stale_ = false;
}

void MutableAnalysisContext::canonicalize_components() {
  const index_t n = graph_.num_vertices();
  HyperComponents out;
  out.vertex_label.assign(n, kInvalidIndex);
  // Labels are assigned at the first root sighting in ascending vertex
  // id order -- exactly the order connected_components() seeds its DFS
  // from, so the two labelings are bit-identical.
  std::vector<index_t> root_label(n, kInvalidIndex);
  for (index_t v = 0; v < n; ++v) {
    const index_t root = uf_.find(v);
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
  components_ = std::move(out);
}

const HyperComponents& MutableAnalysisContext::components() {
  apply();
  if (!components_counters_.built) {
    rebuild_union_find();
    canonicalize_components();
    components_counters_.built = true;
    components_dirty_ = false;
    ++components_counters_.builds;
  } else {
    if (components_dirty_) {
      if (uf_stale_) {
        rebuild_union_find();
        ++apply_stats_.component_rebuilds;
      }
      canonicalize_components();
      components_dirty_ = false;
    }
    ++components_counters_.hits;
  }
  return components_;
}

void MutableAnalysisContext::build_cores_full(bool count_as_fallback) {
  const MutableHypergraph::Snapshot& snap = graph_.snapshot();
  const HyperCoreResult compact =
      core_decomposition(snap.hypergraph, &peel_stats_);
  const index_t slots = graph_.num_edge_slots();
  cores_.vertex_core = compact.vertex_core;
  cores_.edge_core.assign(slots, 0);
  cores_.in_reduced.assign(slots, 0);
  for (index_t j = 0; j < snap.edge_to_stable.size(); ++j) {
    cores_.edge_core[snap.edge_to_stable[j]] = compact.edge_core[j];
    cores_.in_reduced[snap.edge_to_stable[j]] = compact.in_reduced[j];
  }
  cores_.max_core = compact.max_core;
  cores_.level_vertices = compact.level_vertices;
  cores_.level_edges = compact.level_edges;

  core_count_v_.assign(compact.max_core + 1, 0);
  for (index_t c : cores_.vertex_core) bump(core_count_v_, c, true);
  core_count_e_.assign(compact.max_core + 1, 0);
  for (index_t c : cores_.edge_core) bump(core_count_e_, c, true);
  reduced_edge_count_ = compact.level_edges.empty()
                            ? 0
                            : compact.level_edges[0];

  pending_seeds_.clear();
  pending_dead_vertices_.clear();
  pending_dead_edges_.clear();
  if (count_as_fallback) {
    ++peel_stats_.repair_fallbacks;
    ++apply_stats_.core_repair_fallbacks;
  }
}

void MutableAnalysisContext::recompute_levels() {
  index_t max_core = 0;
  for (index_t c = static_cast<index_t>(core_count_v_.size()); c-- > 1;) {
    if (core_count_v_[c] > 0) {
      max_core = c;
      break;
    }
  }
  cores_.max_core = max_core;
  cores_.level_vertices.assign(max_core + 1, 0);
  cores_.level_edges.assign(max_core + 1, 0);
  cores_.level_vertices[0] = graph_.num_vertices();
  cores_.level_edges[0] = static_cast<index_t>(reduced_edge_count_);
  count_t suffix_v = 0;
  count_t suffix_e = 0;
  for (index_t k = max_core; k >= 1; --k) {
    if (k < core_count_v_.size()) suffix_v += core_count_v_[k];
    if (k < core_count_e_.size()) suffix_e += core_count_e_[k];
    cores_.level_vertices[k] = static_cast<index_t>(suffix_v);
    cores_.level_edges[k] = static_cast<index_t>(suffix_e);
  }
}

void MutableAnalysisContext::repair_cores() {
  HP_TRACE_SPAN("context.apply.cores.repair");
  // Dead items first: tombstoned vertices and removed edges leave the
  // core structure entirely (core 0, out of the reduced set).
  for (index_t v : pending_dead_vertices_) {
    const index_t old = cores_.vertex_core[v];
    if (old != 0) {
      bump(core_count_v_, old, false);
      bump(core_count_v_, 0, true);
      cores_.vertex_core[v] = 0;
    }
  }
  for (index_t e : pending_dead_edges_) {
    const index_t old = cores_.edge_core[e];
    if (old != 0) {
      bump(core_count_e_, old, false);
      bump(core_count_e_, 0, true);
      cores_.edge_core[e] = 0;
    }
    if (cores_.in_reduced[e] != 0) {
      cores_.in_reduced[e] = 0;
      --reduced_edge_count_;
    }
  }

  // Flood the current components reachable from the live seeds; every
  // unseeded component is provably unchanged (see file header of
  // mutable_context.hpp).
  ++mark_epoch_;
  std::vector<index_t> affected_v;
  std::vector<index_t> affected_e;
  std::vector<index_t> stack;
  for (index_t s : pending_seeds_) {
    if (!graph_.vertex_alive(s) || vertex_mark_[s] == mark_epoch_) continue;
    vertex_mark_[s] = mark_epoch_;
    stack.push_back(s);
    while (!stack.empty()) {
      const index_t v = stack.back();
      stack.pop_back();
      affected_v.push_back(v);
      for (index_t e : graph_.edges_of(v)) {
        if (edge_mark_[e] == mark_epoch_) continue;
        edge_mark_[e] = mark_epoch_;
        affected_e.push_back(e);
        for (index_t w : graph_.edge_members(e)) {
          if (vertex_mark_[w] != mark_epoch_) {
            vertex_mark_[w] = mark_epoch_;
            stack.push_back(w);
          }
        }
      }
    }
  }

  if (static_cast<double>(affected_v.size()) >
      repair_threshold_ * static_cast<double>(graph_.live_vertices())) {
    build_cores_full(/*count_as_fallback=*/true);
    return;
  }

  std::sort(affected_v.begin(), affected_v.end());
  std::sort(affected_e.begin(), affected_e.end());

  // Re-peel the affected components in isolation. Stable-ascending
  // local ids keep the relative edge order of the full peel, so the
  // lowest-id rule picks the same duplicate representatives.
  if (vertex_local_.size() < vertex_mark_.size()) {
    vertex_local_.resize(vertex_mark_.size(), 0);
  }
  for (index_t i = 0; i < affected_v.size(); ++i) {
    vertex_local_[affected_v[i]] = i;
  }
  HypergraphBuilder builder{static_cast<index_t>(affected_v.size())};
  std::vector<index_t> local_members;
  for (index_t e : affected_e) {
    const auto members = graph_.edge_members(e);
    local_members.clear();
    for (index_t w : members) local_members.push_back(vertex_local_[w]);
    builder.add_edge(local_members);
  }
  const HyperCoreResult local =
      core_decomposition(builder.build(), &peel_stats_);

  for (index_t i = 0; i < affected_v.size(); ++i) {
    const index_t v = affected_v[i];
    const index_t old = cores_.vertex_core[v];
    const index_t now = local.vertex_core[i];
    if (old != now) {
      bump(core_count_v_, old, false);
      bump(core_count_v_, now, true);
      cores_.vertex_core[v] = now;
    }
  }
  for (index_t j = 0; j < affected_e.size(); ++j) {
    const index_t e = affected_e[j];
    const index_t old = cores_.edge_core[e];
    const index_t now = local.edge_core[j];
    if (old != now) {
      bump(core_count_e_, old, false);
      bump(core_count_e_, now, true);
      cores_.edge_core[e] = now;
    }
    const char now_reduced = local.in_reduced[j];
    if (cores_.in_reduced[e] != now_reduced) {
      reduced_edge_count_ += now_reduced ? 1 : count_t{0};
      reduced_edge_count_ -= now_reduced ? count_t{0} : 1;
      cores_.in_reduced[e] = now_reduced;
    }
  }
  recompute_levels();

  ++peel_stats_.repairs;
  peel_stats_.repaired_vertices += affected_v.size();
  peel_stats_.repaired_edges += affected_e.size();
  ++apply_stats_.core_repairs;
  obs::counter("context.apply.core_repairs").add(1);

  pending_seeds_.clear();
  pending_dead_vertices_.clear();
  pending_dead_edges_.clear();
}

const HyperCoreResult& MutableAnalysisContext::cores() {
  apply();
  if (!cores_counters_.built) {
    build_cores_full(/*count_as_fallback=*/false);
    cores_counters_.built = true;
    cores_dirty_ = false;
    ++cores_counters_.builds;
  } else {
    if (cores_dirty_) {
      repair_cores();
      cores_dirty_ = false;
    }
    ++cores_counters_.hits;
  }
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
