// Differential oracle for the mutable pipeline (core/mutate/).
//
// A mutation trace is a sequence of MutationOps (insert/delete of
// vertices and hyperedges, including deliberately adversarial flavors:
// duplicate inserts, remove-just-added, removals of already-dead ids).
// The oracle drives a MutableAnalysisContext through the trace and
// after every operation compares each incrementally maintained artifact
// -- degrees, both histograms, components, core numbers -- against a
// from-scratch recomputation on an independently maintained naive model
// of the structure. A second pass applies the whole trace as one batch
// and compares once, exercising multi-window dirty accumulation.
//
// Op semantics are defined relative to the *current* model state, and
// ops that are invalid in that state (dangling target ids, dead
// members) are skipped identically on both sides. That closure under
// subsequences is what makes ddmin trace shrinking sound: any
// subsequence of a failing trace is itself a well-defined trace.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/oracles.hpp"
#include "core/hypergraph.hpp"

namespace hp::check {

struct MutationOp {
  enum class Kind : std::uint8_t {
    kAddVertex,
    kRemoveVertex,
    kAddEdge,
    kRemoveEdge,
  };
  Kind kind = Kind::kAddVertex;
  /// Vertex or edge id for removals (stable id space).
  index_t target = kInvalidIndex;
  /// Member vertices for kAddEdge (may contain duplicates on purpose).
  std::vector<index_t> members;
};

std::string to_string(const MutationOp& op);

struct MutationTraceOptions {
  int num_ops = 16;
  index_t max_edge_size = 8;
};

/// Deterministic random trace, valid step-by-step against the evolving
/// structure (modulo the deliberate no-op removals of dead ids).
std::vector<MutationOp> generate_trace(const hyper::Hypergraph& base,
                                       std::uint64_t seed,
                                       const MutationTraceOptions& options = {});

/// Up to four deletes, each of a bridge -- a live hyperedge whose
/// removal splits a component -- of the structure as it then is, so the
/// incremental components must resolve a split at every step.
std::vector<MutationOp> bridge_trace(const hyper::Hypergraph& base,
                                     std::uint64_t seed);

/// Drive the incremental pipeline through `trace`, comparing every
/// maintained artifact against a from-scratch rebuild after each op
/// (and once more after a batched replay). Appends failures.
void check_mutation_trace(const hyper::Hypergraph& base,
                          const std::vector<MutationOp>& trace,
                          std::vector<CheckFailure>& failures);

/// run_all_oracles entry point: a generate_trace trace and a
/// bridge_trace, both seeded from a structural hash of the instance, so
/// corpus replays and shrunk reproducers re-exercise the same mutations
/// deterministically.
void check_mutations(const hyper::Hypergraph& h, int num_ops,
                     std::vector<CheckFailure>& failures);

/// ddmin over the op list: returns a (locally) minimal subsequence for
/// which `still_fails` holds. `still_fails(trace)` must be true for the
/// input trace.
std::vector<MutationOp> shrink_trace(
    const std::vector<MutationOp>& trace,
    const std::function<bool(const std::vector<MutationOp>&)>& still_fails);

/// FNV-1a over the structure (vertex count, edge member lists).
std::uint64_t structural_hash(const hyper::Hypergraph& h);

}  // namespace hp::check
