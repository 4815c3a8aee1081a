#include "check/mutation.hpp"

#include <algorithm>
#include <sstream>

#include "core/kcore.hpp"
#include "core/mutate/mutable_context.hpp"
#include "core/stats.hpp"
#include "core/traversal.hpp"
#include "util/rng.hpp"

namespace hp::check {

using hyper::Hypergraph;
using hyper::HypergraphBuilder;
using hyper::MutableAnalysisContext;

namespace {

/// Independent reference model of the mutable structure: plain member
/// lists and alive flags, sharing no code with MutableHypergraph beyond
/// the builder used to materialize.
struct NaiveModel {
  index_t num_vertices = 0;
  std::vector<char> vertex_alive;
  std::vector<std::vector<index_t>> edges;  // sorted, deduped
  std::vector<char> edge_alive;

  explicit NaiveModel(const Hypergraph& base)
      : num_vertices(base.num_vertices()),
        vertex_alive(base.num_vertices(), 1),
        edges(base.num_edges()),
        edge_alive(base.num_edges(), 1) {
    for (index_t e = 0; e < base.num_edges(); ++e) {
      const auto members = base.vertices_of(e);
      edges[e].assign(members.begin(), members.end());
    }
  }

  /// True when the op is applicable in the current state. Invalid ops
  /// are skipped (identically on both sides); removals of *dead* ids
  /// stay valid -- they are deliberate no-ops.
  bool valid(const MutationOp& op) const {
    switch (op.kind) {
      case MutationOp::Kind::kAddVertex:
        return true;
      case MutationOp::Kind::kRemoveVertex:
        return op.target < num_vertices;
      case MutationOp::Kind::kAddEdge: {
        if (op.members.empty()) return false;
        for (index_t v : op.members) {
          if (v >= num_vertices || !vertex_alive[v]) return false;
        }
        return true;
      }
      case MutationOp::Kind::kRemoveEdge:
        return op.target < edges.size();
    }
    return false;
  }

  void apply(const MutationOp& op) {
    switch (op.kind) {
      case MutationOp::Kind::kAddVertex:
        ++num_vertices;
        vertex_alive.push_back(1);
        break;
      case MutationOp::Kind::kRemoveVertex: {
        if (!vertex_alive[op.target]) break;
        vertex_alive[op.target] = 0;
        for (index_t e = 0; e < edges.size(); ++e) {
          if (!edge_alive[e]) continue;
          auto& mem = edges[e];
          const auto it =
              std::find(mem.begin(), mem.end(), op.target);
          if (it == mem.end()) continue;
          mem.erase(it);
          if (mem.empty()) edge_alive[e] = 0;
        }
        break;
      }
      case MutationOp::Kind::kAddEdge: {
        std::vector<index_t> sorted(op.members);
        std::sort(sorted.begin(), sorted.end());
        sorted.erase(std::unique(sorted.begin(), sorted.end()),
                     sorted.end());
        edges.push_back(std::move(sorted));
        edge_alive.push_back(1);
        break;
      }
      case MutationOp::Kind::kRemoveEdge:
        if (edge_alive[op.target]) {
          edge_alive[op.target] = 0;
          edges[op.target].clear();
        }
        break;
    }
  }

  /// Live hyperedges whose removal splits a component: their members
  /// are not all connected through the other live hyperedges.
  std::vector<index_t> bridges() const {
    std::vector<index_t> out;
    std::vector<index_t> parent(num_vertices);
    const auto find = [&parent](index_t x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    for (index_t cut = 0; cut < edges.size(); ++cut) {
      if (!edge_alive[cut] || edges[cut].size() < 2) continue;
      for (index_t v = 0; v < num_vertices; ++v) parent[v] = v;
      for (index_t e = 0; e < edges.size(); ++e) {
        if (e == cut || !edge_alive[e]) continue;
        for (index_t v : edges[e]) parent[find(v)] = find(edges[e][0]);
      }
      const index_t root = find(edges[cut][0]);
      for (index_t v : edges[cut]) {
        if (find(v) != root) {
          out.push_back(cut);
          break;
        }
      }
    }
    return out;
  }

  Hypergraph materialize(std::vector<index_t>* live_ids) const {
    HypergraphBuilder builder{num_vertices};
    if (live_ids != nullptr) live_ids->clear();
    for (index_t e = 0; e < edges.size(); ++e) {
      if (!edge_alive[e]) continue;
      builder.add_edge(edges[e]);
      if (live_ids != nullptr) live_ids->push_back(e);
    }
    return builder.build();
  }
};

void fail(std::vector<CheckFailure>& failures, const std::string& detail) {
  failures.push_back({"mutation", detail});
}

template <typename T>
std::string render_vec(const std::vector<T>& v, std::size_t limit = 16) {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < v.size() && i < limit; ++i) {
    if (i != 0) out << ' ';
    out << static_cast<long long>(v[i]);
  }
  if (v.size() > limit) out << " ...";
  out << ']';
  return out.str();
}

/// Compare every maintained artifact of `ctx` against a from-scratch
/// recomputation on the model. Returns failures found at this step.
void diff_state(MutableAnalysisContext& ctx, const NaiveModel& model,
                const std::string& where,
                std::vector<CheckFailure>& failures) {
  std::vector<index_t> live_ids;
  const Hypergraph expected = model.materialize(&live_ids);

  const auto& snap = ctx.snapshot();
  if (!same_structure(snap.hypergraph, expected)) {
    fail(failures, where + ": snapshot structure diverged from model (" +
                       describe(snap.hypergraph) + " vs " +
                       describe(expected) + ")");
    return;  // everything downstream would just cascade
  }
  if (snap.edge_to_stable != live_ids) {
    fail(failures, where + ": edge_to_stable " +
                       render_vec(snap.edge_to_stable) + " != model " +
                       render_vec(live_ids));
  }

  const std::vector<index_t>& degrees = ctx.vertex_degrees();
  for (index_t v = 0; v < expected.num_vertices(); ++v) {
    if (degrees[v] != expected.vertex_degree(v)) {
      fail(failures, where + ": degree[" + std::to_string(v) + "] = " +
                         std::to_string(degrees[v]) + ", rebuild says " +
                         std::to_string(expected.vertex_degree(v)));
      break;
    }
  }

  const Histogram vh = hyper::vertex_degree_histogram(expected);
  if (ctx.vertex_degree_histogram().frequencies() != vh.frequencies() ||
      ctx.vertex_degree_histogram().total() != vh.total()) {
    fail(failures, where + ": vertex degree histogram diverged");
  }
  const Histogram eh = hyper::edge_size_histogram(expected);
  if (ctx.edge_size_histogram().frequencies() != eh.frequencies() ||
      ctx.edge_size_histogram().total() != eh.total()) {
    fail(failures, where + ": edge size histogram diverged");
  }

  const hyper::HyperComponents fresh = hyper::connected_components(expected);
  const hyper::HyperComponents& inc = ctx.components();
  if (inc.count != fresh.count || inc.vertex_label != fresh.vertex_label ||
      inc.edge_label != fresh.edge_label ||
      inc.vertex_counts != fresh.vertex_counts ||
      inc.edge_counts != fresh.edge_counts) {
    fail(failures,
         where + ": components diverged (incremental count " +
             std::to_string(inc.count) + ", rebuild " +
             std::to_string(fresh.count) + ", labels " +
             render_vec(inc.vertex_label) + " vs " +
             render_vec(fresh.vertex_label) + ")");
  }

  const hyper::HyperCoreResult fresh_cores =
      hyper::core_decomposition(expected);
  const hyper::HyperCoreResult& inc_cores = ctx.cores();
  if (inc_cores.vertex_core != fresh_cores.vertex_core) {
    fail(failures, where + ": vertex cores diverged: incremental " +
                       render_vec(inc_cores.vertex_core) + " vs rebuild " +
                       render_vec(fresh_cores.vertex_core));
  }
  bool edge_cores_ok = true;
  for (index_t j = 0; j < live_ids.size() && edge_cores_ok; ++j) {
    if (inc_cores.edge_core[live_ids[j]] != fresh_cores.edge_core[j] ||
        inc_cores.in_reduced[live_ids[j]] != fresh_cores.in_reduced[j]) {
      fail(failures,
           where + ": edge core/in_reduced diverged at stable id " +
               std::to_string(live_ids[j]));
      edge_cores_ok = false;
    }
  }
  for (index_t e = 0; e < model.edges.size() && edge_cores_ok; ++e) {
    if (!model.edge_alive[e] &&
        (inc_cores.edge_core[e] != 0 || inc_cores.in_reduced[e] != 0)) {
      fail(failures, where + ": dead edge slot " + std::to_string(e) +
                         " kept core " +
                         std::to_string(inc_cores.edge_core[e]));
      edge_cores_ok = false;
    }
  }
  if (inc_cores.max_core != fresh_cores.max_core ||
      inc_cores.level_vertices != fresh_cores.level_vertices ||
      inc_cores.level_edges != fresh_cores.level_edges) {
    fail(failures,
         where + ": core levels diverged: incremental max " +
             std::to_string(inc_cores.max_core) + " lv " +
             render_vec(inc_cores.level_vertices) + " le " +
             render_vec(inc_cores.level_edges) + " vs rebuild max " +
             std::to_string(fresh_cores.max_core) + " lv " +
             render_vec(fresh_cores.level_vertices) + " le " +
             render_vec(fresh_cores.level_edges));
  }
}

/// Apply one op to the incremental side, mirroring NaiveModel::apply.
void apply_to_context(MutableAnalysisContext& ctx, const MutationOp& op) {
  switch (op.kind) {
    case MutationOp::Kind::kAddVertex:
      ctx.graph().add_vertex();
      break;
    case MutationOp::Kind::kRemoveVertex:
      ctx.graph().remove_vertex(op.target);
      break;
    case MutationOp::Kind::kAddEdge:
      ctx.graph().add_hyperedge(op.members);
      break;
    case MutationOp::Kind::kRemoveEdge:
      ctx.graph().remove_hyperedge(op.target);
      break;
  }
}

void warm_artifacts(MutableAnalysisContext& ctx) {
  ctx.vertex_degrees();
  ctx.vertex_degree_histogram();
  ctx.edge_size_histogram();
  ctx.components();
  ctx.cores();
}

}  // namespace

std::string to_string(const MutationOp& op) {
  std::ostringstream out;
  switch (op.kind) {
    case MutationOp::Kind::kAddVertex:
      out << "add-vertex";
      break;
    case MutationOp::Kind::kRemoveVertex:
      out << "remove-vertex " << op.target;
      break;
    case MutationOp::Kind::kAddEdge:
      out << "add-edge";
      for (index_t v : op.members) out << ' ' << v;
      break;
    case MutationOp::Kind::kRemoveEdge:
      out << "remove-edge " << op.target;
      break;
  }
  return out.str();
}

std::uint64_t structural_hash(const Hypergraph& h) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 0x100000001b3ULL;
  };
  mix(h.num_vertices());
  mix(h.num_edges());
  for (index_t e = 0; e < h.num_edges(); ++e) {
    const auto members = h.vertices_of(e);
    mix(members.size());
    for (index_t v : members) mix(v);
  }
  return hash;
}

std::vector<MutationOp> generate_trace(const Hypergraph& base,
                                       std::uint64_t seed,
                                       const MutationTraceOptions& options) {
  Rng rng{seed};
  NaiveModel model{base};
  std::vector<index_t> alive_vertices;
  for (index_t v = 0; v < model.num_vertices; ++v) alive_vertices.push_back(v);
  std::vector<index_t> live_edges;
  for (index_t e = 0; e < model.edges.size(); ++e) live_edges.push_back(e);
  std::vector<index_t> dead_edges;
  index_t last_added_edge = kInvalidIndex;

  const auto refresh_alive = [&] {
    alive_vertices.clear();
    for (index_t v = 0; v < model.num_vertices; ++v) {
      if (model.vertex_alive[v]) alive_vertices.push_back(v);
    }
    live_edges.clear();
    for (index_t e = 0; e < model.edges.size(); ++e) {
      if (model.edge_alive[e]) live_edges.push_back(e);
    }
  };

  std::vector<MutationOp> trace;
  for (int i = 0; i < options.num_ops; ++i) {
    MutationOp op;
    const std::uint64_t roll = rng.uniform(100);
    if (roll < 10 || alive_vertices.empty()) {
      op.kind = MutationOp::Kind::kAddVertex;
    } else if (roll < 18) {
      op.kind = MutationOp::Kind::kRemoveVertex;
      op.target = alive_vertices[rng.pick(alive_vertices.size())];
    } else if (roll < 52) {
      // Fresh random edge; with some probability plant a duplicate
      // member to exercise the dedup path.
      op.kind = MutationOp::Kind::kAddEdge;
      const std::size_t want = 1 + rng.pick(std::min<std::size_t>(
                                      options.max_edge_size,
                                      alive_vertices.size()));
      for (std::size_t m = 0; m < want; ++m) {
        op.members.push_back(alive_vertices[rng.pick(alive_vertices.size())]);
      }
      if (rng.bernoulli(0.2)) op.members.push_back(op.members.front());
    } else if (roll < 64 && !live_edges.empty()) {
      // Duplicate insert: a whole edge equal to an existing one.
      op.kind = MutationOp::Kind::kAddEdge;
      const index_t source = live_edges[rng.pick(live_edges.size())];
      op.members = model.edges[source];
    } else if (roll < 80 && !live_edges.empty()) {
      op.kind = MutationOp::Kind::kRemoveEdge;
      op.target = live_edges[rng.pick(live_edges.size())];
    } else if (roll < 88 && last_added_edge != kInvalidIndex &&
               last_added_edge < model.edge_alive.size() &&
               model.edge_alive[last_added_edge]) {
      // Remove-just-added: the adversarial insert/delete interleaving.
      op.kind = MutationOp::Kind::kRemoveEdge;
      op.target = last_added_edge;
    } else if (roll < 94 && !dead_edges.empty()) {
      // Deliberate no-op: removing an already-dead slot must not
      // disturb anything.
      op.kind = MutationOp::Kind::kRemoveEdge;
      op.target = dead_edges[rng.pick(dead_edges.size())];
    } else {
      op.kind = MutationOp::Kind::kAddVertex;
    }

    if (!model.valid(op)) {
      op = MutationOp{};  // degrade to add-vertex, always valid
    }
    if (op.kind == MutationOp::Kind::kAddEdge) {
      last_added_edge = static_cast<index_t>(model.edges.size());
    } else if (op.kind == MutationOp::Kind::kRemoveEdge &&
               op.target < model.edge_alive.size() &&
               model.edge_alive[op.target]) {
      dead_edges.push_back(op.target);
    }
    model.apply(op);
    refresh_alive();
    trace.push_back(std::move(op));
  }
  return trace;
}

void check_mutation_trace(const Hypergraph& base,
                          const std::vector<MutationOp>& trace,
                          std::vector<CheckFailure>& failures) {
  // Per-op pass: artifacts warm from the start, compared after every
  // step, so each incremental path (histogram moves, component unions
  // and split searches, core re-peels and isolated-vertex extensions) is
  // exercised against a rebuild.
  {
    MutableAnalysisContext ctx{base};
    warm_artifacts(ctx);
    NaiveModel model{base};
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (!model.valid(trace[i])) continue;
      try {
        apply_to_context(ctx, trace[i]);
      } catch (const std::exception& e) {
        fail(failures, "step " + std::to_string(i) + " (" +
                           to_string(trace[i]) +
                           "): unexpected exception: " + e.what());
        return;
      }
      model.apply(trace[i]);
      diff_state(ctx, model, "step " + std::to_string(i), failures);
      if (!failures.empty()) return;
    }
  }
  // Batched pass: one drain window for the whole trace; compares the
  // multi-window accumulation logic (first-touch old-value capture)
  // against the same rebuild.
  {
    MutableAnalysisContext ctx{base};
    warm_artifacts(ctx);
    NaiveModel model{base};
    for (const MutationOp& op : trace) {
      if (!model.valid(op)) continue;
      apply_to_context(ctx, op);
      model.apply(op);
    }
    diff_state(ctx, model, "batched", failures);
  }
}

std::vector<MutationOp> shrink_trace(
    const std::vector<MutationOp>& trace,
    const std::function<bool(const std::vector<MutationOp>&)>& still_fails) {
  std::vector<MutationOp> current = trace;
  std::size_t granularity = 2;
  while (current.size() >= 2) {
    const std::size_t chunk =
        std::max<std::size_t>(1, current.size() / granularity);
    bool removed = false;
    for (std::size_t start = 0; start < current.size(); start += chunk) {
      std::vector<MutationOp> candidate;
      candidate.reserve(current.size());
      for (std::size_t i = 0; i < current.size(); ++i) {
        if (i >= start && i < start + chunk) continue;
        candidate.push_back(current[i]);
      }
      if (candidate.size() < current.size() && still_fails(candidate)) {
        current = std::move(candidate);
        removed = true;
        break;
      }
    }
    if (removed) {
      granularity = std::max<std::size_t>(2, granularity - 1);
    } else if (chunk > 1) {
      granularity *= 2;
    } else {
      break;
    }
  }
  return current;
}

std::vector<MutationOp> bridge_trace(const Hypergraph& base,
                                     std::uint64_t seed) {
  Rng rng{seed};
  NaiveModel model{base};
  std::vector<MutationOp> trace;
  for (int i = 0; i < 4; ++i) {
    const std::vector<index_t> bridges = model.bridges();
    if (bridges.empty()) break;
    MutationOp op;
    op.kind = MutationOp::Kind::kRemoveEdge;
    op.target = bridges[rng.pick(bridges.size())];
    model.apply(op);
    trace.push_back(std::move(op));
  }
  return trace;
}

std::vector<MutationOp> isolated_trace(const Hypergraph& base,
                                       std::uint64_t seed) {
  Rng rng{seed};
  const index_t first = base.num_vertices();
  const index_t added = 2 + static_cast<index_t>(rng.uniform(3));
  std::vector<MutationOp> trace(added);  // add-vertex by default
  MutationOp edge;
  edge.kind = MutationOp::Kind::kAddEdge;
  for (index_t v = first; v < first + added; ++v) {
    if (v == first || rng.bernoulli(0.5)) edge.members.push_back(v);
  }
  trace.push_back(std::move(edge));
  MutationOp unlink;
  unlink.kind = MutationOp::Kind::kRemoveEdge;
  unlink.target = base.num_edges();
  trace.push_back(unlink);
  MutationOp drop;
  drop.kind = MutationOp::Kind::kRemoveVertex;
  drop.target = first + static_cast<index_t>(rng.uniform(added));
  trace.push_back(drop);
  return trace;
}

namespace {

/// Run one trace through the differential; on failure, shrink it and
/// report the minimal subsequence with every failure.
void check_and_shrink(const Hypergraph& h,
                      const std::vector<MutationOp>& trace,
                      std::vector<CheckFailure>& failures) {
  std::vector<CheckFailure> local;
  check_mutation_trace(h, trace, local);
  if (local.empty()) return;

  // Shrink the trace before reporting: the minimal subsequence is what
  // a human wants to replay.
  const auto predicate = [&h](const std::vector<MutationOp>& candidate) {
    std::vector<CheckFailure> probe;
    check_mutation_trace(h, candidate, probe);
    return !probe.empty();
  };
  const std::vector<MutationOp> minimal = shrink_trace(trace, predicate);
  std::ostringstream rendered;
  rendered << "minimal trace (" << minimal.size() << "/" << trace.size()
           << " ops):";
  for (const MutationOp& op : minimal) rendered << " {" << to_string(op)
                                                << "}";
  for (CheckFailure& f : local) {
    failures.push_back(
        {"mutation", f.detail + " -- " + rendered.str()});
  }
}

}  // namespace

void check_mutations(const Hypergraph& h, int num_ops,
                     std::vector<CheckFailure>& failures) {
  MutationTraceOptions options;
  options.num_ops = num_ops;
  const std::uint64_t seed = structural_hash(h);
  check_and_shrink(h, generate_trace(h, seed, options), failures);
  check_and_shrink(h, bridge_trace(h, seed), failures);
  check_and_shrink(h, isolated_trace(h, seed), failures);
}

}  // namespace hp::check
