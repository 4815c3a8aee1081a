// Seeded adversarial hypergraph generator for the differential-fuzzing
// harness (hp_fuzz).
//
// The goal is not realism but coverage of the structural regimes where
// the peeling substrate, the loaders, and the projections have distinct
// code paths: duplicate and nested hyperedges (containment cascades),
// empty-ish instances (0 vertices, 0 edges, all-isolated), singleton
// edges, near-clique overlap (dense containment sweeps), power-law
// degree mixes (hub vertices), and Cellzome-style pulldown structure.
// Every instance is a deterministic function of a 64-bit seed, so a
// failing seed printed by hp_fuzz is a complete reproducer.
//
// The byte/text mutators produce structured corruptions of serialized
// files for the loader robustness oracle (parse-or-throw, never crash).
#pragma once

#include <cstdint>
#include <string>

#include "core/hypergraph.hpp"
#include "util/rng.hpp"

namespace hp::check {

/// Structural regimes the generator cycles through. Exposed so tests
/// can pin per-shape properties (kNestedChain really nests, ...).
enum class Shape {
  kUniform,         ///< uniform members, uniform sizes
  kCellzome,        ///< hubs + duplicated/nested pulldowns
  kNearClique,      ///< few vertices, many large overlapping edges
  kNestedChain,     ///< every edge a prefix of the next (max cascades)
  kDuplicateHeavy,  ///< few distinct edges, repeated many times
  kPowerLaw,        ///< zipf member choice: heavy-degree hubs
  kSingletons,      ///< size-1 edges and isolated vertices
  kSparse,          ///< |F| << |V|: mostly isolated vertices
  kDuplicateChain,  ///< long runs of duplicates of nested prefixes --
                    ///< the adversarial regime for the reduction
                    ///< fixpoint (quadratic if it rescans all edges)
};

inline constexpr int kNumShapes = 9;

/// Size envelope for generated instances. The defaults keep the
/// O(|F|^2) naive oracle affordable at thousands of cases per second.
struct GenOptions {
  index_t max_vertices = 48;
  index_t max_edges = 56;
  index_t max_edge_size = 9;
};

/// Instance for `shape` drawn from `rng`.
hyper::Hypergraph generate_shape(Shape shape, Rng& rng,
                                 const GenOptions& options = {});

/// Deterministic instance for a seed: the shape is derived from the
/// seed, so a seed range sweeps all regimes. Includes empty and
/// near-empty instances at a small rate.
hyper::Hypergraph generate(std::uint64_t seed, const GenOptions& options = {});

/// The shape `generate(seed)` uses (for reporting).
Shape shape_of_seed(std::uint64_t seed);
const char* shape_name(Shape shape);

/// Textual corruption: overwrite/delete/insert printable characters,
/// duplicate or drop whole lines, splice digits. `edits` rounds.
std::string mutate_text(Rng& rng, std::string text, int edits);

/// Binary corruption: overwrite random bytes (any value), erase or
/// duplicate short ranges, flip individual bits.
std::string mutate_bytes(Rng& rng, std::string bytes, int edits);

}  // namespace hp::check
