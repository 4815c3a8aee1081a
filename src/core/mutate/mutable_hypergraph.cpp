#include "core/mutate/mutable_hypergraph.hpp"

#include <algorithm>
#include <utility>

namespace hp::hyper {

MutableHypergraph::MutableHypergraph(const Hypergraph& base)
    : members_(base.num_edges()),
      incident_(base.num_vertices()),
      vertex_alive_(base.num_vertices(), 1),
      edge_alive_(base.num_edges(), 1),
      live_vertices_(base.num_vertices()),
      live_edges_(base.num_edges()),
      live_pins_(base.num_pins()),
      vertex_touch_epoch_(base.num_vertices(), 0),
      edge_touch_epoch_(base.num_edges(), 0) {
  for (index_t e = 0; e < base.num_edges(); ++e) {
    const auto members = base.vertices_of(e);
    members_[e].assign(members.begin(), members.end());
  }
  for (index_t v = 0; v < base.num_vertices(); ++v) {
    const auto edges = base.edges_of(v);
    incident_[v].assign(edges.begin(), edges.end());
  }
}

void MutableHypergraph::touch_vertex(index_t v, bool existed) {
  if (vertex_touch_epoch_[v] == epoch_) return;
  vertex_touch_epoch_[v] = epoch_;
  dirty_.vertices.push_back(
      {v, existed ? vertex_degree(v) : index_t{0}, existed});
}

void MutableHypergraph::touch_edge(index_t e, bool existed) {
  if (edge_touch_epoch_[e] == epoch_) return;
  edge_touch_epoch_[e] = epoch_;
  dirty_.edges.push_back({e, existed ? edge_size(e) : index_t{0}, existed});
}

index_t MutableHypergraph::add_vertex() {
  const index_t v = num_vertices();
  incident_.emplace_back();
  vertex_alive_.push_back(1);
  vertex_touch_epoch_.push_back(0);
  touch_vertex(v, /*existed=*/false);
  ++live_vertices_;
  ++dirty_.mutations;
  ++version_;
  return v;
}

bool MutableHypergraph::remove_vertex(index_t v) {
  HP_REQUIRE(v < num_vertices(), "remove_vertex: vertex id out of range");
  if (!vertex_alive(v)) return false;
  touch_vertex(v, /*existed=*/true);
  // Detach from every containing hyperedge; edges that become empty die.
  // Degrees of the *other* members only change when an edge dies, and an
  // edge dies here only when v was its last member -- so no other
  // vertex's degree moves, and no other vertex needs touching.
  std::vector<index_t> edges(incident_[v].begin(), incident_[v].end());
  for (index_t e : edges) {
    touch_edge(e, /*existed=*/true);
    auto& mem = members_[e];
    mem.erase(std::lower_bound(mem.begin(), mem.end(), v));
    --live_pins_;
    if (mem.empty()) {
      edge_alive_[e] = 0;
      --live_edges_;
    }
  }
  incident_[v].clear();
  incident_[v].shrink_to_fit();
  vertex_alive_[v] = 0;
  --live_vertices_;
  dirty_.structural_removal = true;
  ++dirty_.mutations;
  ++version_;
  return true;
}

index_t MutableHypergraph::add_hyperedge(std::span<const index_t> members) {
  HP_REQUIRE(!members.empty(), "add_hyperedge: empty member list");
  std::vector<index_t> sorted(members.begin(), members.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (index_t v : sorted) {
    HP_REQUIRE(v < num_vertices(), "add_hyperedge: member out of range");
    HP_REQUIRE(vertex_alive(v), "add_hyperedge: member vertex is dead");
  }
  const index_t e = num_edge_slots();
  edge_alive_.push_back(1);
  edge_touch_epoch_.push_back(0);
  touch_edge(e, /*existed=*/false);
  for (index_t v : sorted) {
    touch_vertex(v, /*existed=*/true);
    auto& inc = incident_[v];
    inc.insert(std::lower_bound(inc.begin(), inc.end(), e), e);
  }
  live_pins_ += sorted.size();
  members_.push_back(std::move(sorted));
  ++live_edges_;
  ++dirty_.mutations;
  ++version_;
  return e;
}

index_t MutableHypergraph::add_hyperedge(
    std::initializer_list<index_t> members) {
  return add_hyperedge(std::span<const index_t>{members.begin(),
                                                members.end()});
}

bool MutableHypergraph::remove_hyperedge(index_t e) {
  HP_REQUIRE(e < num_edge_slots(), "remove_hyperedge: edge id out of range");
  if (!edge_alive(e)) return false;
  touch_edge(e, /*existed=*/true);
  for (index_t v : members_[e]) {
    touch_vertex(v, /*existed=*/true);
    auto& inc = incident_[v];
    inc.erase(std::lower_bound(inc.begin(), inc.end(), e));
  }
  live_pins_ -= members_[e].size();
  members_[e].clear();
  members_[e].shrink_to_fit();
  edge_alive_[e] = 0;
  --live_edges_;
  dirty_.structural_removal = true;
  ++dirty_.mutations;
  ++version_;
  return true;
}

DirtyRegion MutableHypergraph::drain_dirty() {
  DirtyRegion region = std::move(dirty_);
  dirty_ = DirtyRegion{};
  ++epoch_;
  return region;
}

const MutableHypergraph::Snapshot& MutableHypergraph::snapshot() const {
  if (snapshot_ && snapshot_version_ == version_) return *snapshot_;
  using offset_t = Hypergraph::offset_t;
  // Member and incidence lists are kept sorted and duplicate-free, and
  // compaction preserves edge order, so both CSR sides copy straight
  // out of them (no sort/dedup pass as in HypergraphBuilder).
  std::vector<index_t> edge_to_stable;
  edge_to_stable.reserve(live_edges_);
  std::vector<index_t> stable_to_compact(num_edge_slots(), kInvalidIndex);
  std::vector<offset_t> eoff;
  eoff.reserve(static_cast<std::size_t>(live_edges_) + 1);
  eoff.push_back(0);
  std::vector<index_t> eadj;
  eadj.reserve(live_pins_);
  for (index_t e = 0; e < num_edge_slots(); ++e) {
    if (!edge_alive(e)) continue;
    stable_to_compact[e] = static_cast<index_t>(edge_to_stable.size());
    edge_to_stable.push_back(e);
    eadj.insert(eadj.end(), members_[e].begin(), members_[e].end());
    eoff.push_back(eadj.size());
  }
  std::vector<offset_t> voff;
  voff.reserve(static_cast<std::size_t>(num_vertices()) + 1);
  voff.push_back(0);
  std::vector<index_t> vadj;
  vadj.reserve(live_pins_);
  for (const std::vector<index_t>& edges : incident_) {
    for (index_t e : edges) vadj.push_back(stable_to_compact[e]);
    voff.push_back(vadj.size());
  }
  snapshot_.emplace(Snapshot{
      Hypergraph::adopt_owned(std::move(voff), std::move(vadj),
                              std::move(eoff), std::move(eadj)),
      std::move(edge_to_stable)});
  snapshot_version_ = version_;
  return *snapshot_;
}

std::size_t MutableHypergraph::storage_bytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += members_.capacity() * sizeof(members_[0]);
  for (const auto& m : members_) bytes += m.capacity() * sizeof(index_t);
  bytes += incident_.capacity() * sizeof(incident_[0]);
  for (const auto& inc : incident_) bytes += inc.capacity() * sizeof(index_t);
  bytes += vertex_alive_.capacity() + edge_alive_.capacity();
  bytes += vertex_touch_epoch_.capacity() * sizeof(std::uint64_t);
  bytes += edge_touch_epoch_.capacity() * sizeof(std::uint64_t);
  bytes += dirty_.vertices.capacity() * sizeof(DirtyVertex);
  bytes += dirty_.edges.capacity() * sizeof(DirtyEdge);
  return bytes;
}

}  // namespace hp::hyper
