// Differential and algebraic oracles for the fuzzing harness.
//
// Each oracle takes one hypergraph instance and checks a property that
// must hold on EVERY input, not just the Cellzome dataset:
//
//   * core agreement  -- the k-core peel (kcore), the same peel on one
//     lane, and the set-comparison reference (kcore_naive) must produce
//     identical results in every field (vertex and edge cores,
//     reduction mask, level sizes, maximum core); every extracted
//     k-core must satisfy the paper's core conditions (reduced + min
//     degree k).
//   * generalized core -- the kNeighborhood measure peel must equal the
//     classic graph k-core of the clique expansion (they are the same
//     algorithm on the same residual degrees); kDegree values are
//     bounded by intact degrees.
//   * reduce          -- idempotent, output is reduced, and the
//     surviving-edge count matches the decomposition's level-0 residual.
//   * dual            -- dual(dual(H)) is H with isolated vertices
//     removed (duality is an involution up to degree-0 vertices).
//   * projections     -- clique/star/bipartite/intersection expansions
//     are mutually consistent and consistent with the overlap table.
//   * components/paths -- component labels respect incidence; the exact
//     path summary equals a per-source BFS recomputation bit for bit
//     (diameter, pair count and average length).
//   * covers          -- the greedy multicover output is feasible.
//   * context         -- AnalysisContext-cached artifacts are identical
//     to cold computations and stable across repeated access.
//   * representation costs -- the counting sweep's edge counts and CSR
//     bytes equal those of the materialized clique/star/intersection
//     graphs.
//   * mutation        -- the incremental pipeline (core/mutate/) stays
//     bit-identical to from-scratch rebuilds across a random mutation
//     trace (see check/mutation.hpp; failing traces are ddmin-shrunk).
//   * round-trips     -- text/hMETIS/binary/MatrixMarket serialization
//     is lossless; Pajek export has the declared line structure.
//   * mutated loads   -- corrupted serializations either raise
//     ParseError/InvalidInputError or parse into a structurally valid
//     hypergraph; anything else (crash, foreign exception, invalid
//     structure accepted) is a bug.
//
// Every function appends human-readable failures instead of throwing,
// so one instance can report all violated properties at once and the
// shrinker can re-run the full battery as its predicate.
#pragma once

#include <string>
#include <vector>

#include "core/hypergraph.hpp"
#include "util/rng.hpp"

namespace hp::check {

struct CheckFailure {
  std::string oracle;  ///< e.g. "core_agreement"
  std::string detail;  ///< what disagreed, with values
};

struct CheckOptions {
  /// Include the O(|F|^2 * Delta_F) naive reference in the core
  /// differential. Expensive; disable for throughput measurements.
  bool with_naive = true;
  /// Include the exact all-pairs path cross-check (O(|V| * |E|)).
  bool with_paths = true;
  /// Include serialization round-trips.
  bool with_loaders = true;
  /// Include the AnalysisContext cold-vs-cached comparison.
  bool with_context = true;
  /// Include the incremental-vs-rebuild mutation differential
  /// (check/mutation.hpp): a deterministic random mutation trace seeded
  /// from the instance's structural hash.
  bool with_mutations = true;
  /// Length of the mutation trace per instance.
  int mutation_ops = 16;
  /// Skip the path cross-check above this pin count.
  count_t max_pins_for_paths = 4096;
  /// Include the analysis-server wire-protocol battery
  /// (check/protocol_fuzz.hpp): hostile frames, structured corruption
  /// and round-trips, seeded from the instance's structural hash.
  bool with_protocol = true;
  /// Hostile/corruption/round-trip trials per instance.
  int protocol_trials = 8;
};

/// Run the full oracle battery; empty result = instance is clean.
std::vector<CheckFailure> run_all_oracles(const hyper::Hypergraph& h,
                                          const CheckOptions& options = {});

/// Individual oracle groups (each self-contained).
void check_core_agreement(const hyper::Hypergraph& h, bool with_naive,
                          std::vector<CheckFailure>& failures);
void check_generalized_core(const hyper::Hypergraph& h,
                            std::vector<CheckFailure>& failures);
void check_reduce(const hyper::Hypergraph& h,
                  std::vector<CheckFailure>& failures);
void check_dual(const hyper::Hypergraph& h,
                std::vector<CheckFailure>& failures);
void check_projections(const hyper::Hypergraph& h,
                       std::vector<CheckFailure>& failures);
void check_components_and_paths(const hyper::Hypergraph& h, bool with_paths,
                                std::vector<CheckFailure>& failures);
void check_covers(const hyper::Hypergraph& h,
                  std::vector<CheckFailure>& failures);
void check_context(const hyper::Hypergraph& h,
                   std::vector<CheckFailure>& failures);
void check_representation_costs(const hyper::Hypergraph& h,
                                std::vector<CheckFailure>& failures);
void check_roundtrips(const hyper::Hypergraph& h,
                      std::vector<CheckFailure>& failures);

/// Loader robustness under byte/text corruption: `trials` mutations per
/// serialization format, drawn from `rng`.
std::vector<CheckFailure> check_mutated_loads(const hyper::Hypergraph& h,
                                              Rng& rng, int trials);

/// Structural equality that ignores CSR representation details:
/// same vertex count and identical member lists in edge order.
bool same_structure(const hyper::Hypergraph& a, const hyper::Hypergraph& b);

/// One-line instance summary for failure messages ("|V|=12 |F|=30 ...").
std::string describe(const hyper::Hypergraph& h);

}  // namespace hp::check
