#include "check/generator.hpp"

#include <algorithm>
#include <vector>

namespace hp::check {

using hyper::Hypergraph;
using hyper::HypergraphBuilder;

namespace {

index_t pick_count(Rng& rng, index_t max) {
  return static_cast<index_t>(rng.uniform(max + 1));
}

/// Edge-size draw honoring the envelope: uniform in
/// [1, min(preferred_max, o.max_edge_size)]. Every shape routes its
/// size choices through this so a caller-shrunk envelope is a hard
/// guarantee, not a suggestion.
index_t pick_size(Rng& rng, const GenOptions& o, index_t preferred_max) {
  const index_t cap =
      std::max<index_t>(1, std::min(preferred_max, o.max_edge_size));
  return 1 + static_cast<index_t>(rng.uniform(cap));
}

Hypergraph uniform_instance(Rng& rng, const GenOptions& o) {
  const index_t nv = pick_count(rng, o.max_vertices);
  HypergraphBuilder builder{nv};
  if (nv == 0) return builder.build();
  const index_t ne = pick_count(rng, o.max_edges);
  std::vector<index_t> members;
  for (index_t e = 0; e < ne; ++e) {
    const index_t size = 1 + static_cast<index_t>(rng.uniform(o.max_edge_size));
    members.clear();
    for (index_t i = 0; i < size; ++i) {
      members.push_back(static_cast<index_t>(rng.uniform(nv)));
    }
    builder.add_edge(members);
  }
  return builder.build();
}

Hypergraph cellzome_instance(Rng& rng, const GenOptions& o) {
  // Mirrors the regime of tests/core/test_peel_substrate.cpp: hub
  // vertices joining many complexes, plus verbatim duplicates and
  // prefix sub-complexes (TAP pulldowns). The top third of the ids are
  // private members: a fresh complex takes up to three of them, which
  // then share one incidence set -- the twin classes of degree-1
  // proteins that the all-pairs path sweep folds into one source.
  const index_t nv = std::min<index_t>(
      8 + pick_count(rng, o.max_vertices > 8 ? o.max_vertices - 8
                                             : index_t{1}),
      std::max<index_t>(o.max_vertices, 1));
  const index_t ne = std::min<index_t>(
      4 + pick_count(rng, o.max_edges > 4 ? o.max_edges - 4 : index_t{1}),
      std::max<index_t>(o.max_edges, 1));
  const index_t num_hubs =
      std::min<index_t>(1 + static_cast<index_t>(rng.uniform(4)), nv);
  const index_t shared = nv - nv / 3;
  index_t next_private = shared;
  HypergraphBuilder builder{nv};
  std::vector<index_t> members;
  std::vector<std::vector<index_t>> committed;
  for (index_t e = 0; e < ne; ++e) {
    const double roll = rng.uniform01();
    if (roll < 0.15 && !committed.empty()) {
      builder.add_edge(committed[rng.uniform(committed.size())]);
      continue;
    }
    if (roll < 0.3 && !committed.empty()) {
      const auto& parent = committed[rng.uniform(committed.size())];
      const std::size_t take = 1 + rng.uniform(parent.size());
      members.assign(parent.begin(),
                     parent.begin() + static_cast<std::ptrdiff_t>(take));
      builder.add_edge(members);
      continue;
    }
    const index_t size = pick_size(rng, o, 7);
    const index_t privates = std::min<index_t>(
        {static_cast<index_t>(rng.uniform(4)), size - 1, nv - next_private});
    members.clear();
    for (index_t i = privates; i < size; ++i) {
      if (rng.uniform01() < 0.3) {
        members.push_back(static_cast<index_t>(rng.uniform(num_hubs)));
      } else {
        members.push_back(static_cast<index_t>(rng.uniform(shared)));
      }
    }
    for (index_t i = 0; i < privates; ++i) members.push_back(next_private++);
    builder.add_edge(members);
    committed.emplace_back(members);
  }
  return builder.build();
}

Hypergraph near_clique_instance(Rng& rng, const GenOptions& o) {
  // Few vertices, many edges each covering most of them: every pair of
  // edges overlaps heavily, so the flat overlap rows are dense and the
  // containment test fires constantly.
  const index_t nv = std::min<index_t>(
      3 + static_cast<index_t>(rng.uniform(8)),
      std::max<index_t>(o.max_vertices, 1));
  const index_t ne = std::min<index_t>(
      4 + pick_count(rng, o.max_edges > 4 ? o.max_edges - 4 : index_t{1}),
      std::max<index_t>(o.max_edges, 1));
  const index_t size_cap =
      std::max<index_t>(1, std::min(nv, o.max_edge_size));
  HypergraphBuilder builder{nv};
  std::vector<index_t> members;
  for (index_t e = 0; e < ne; ++e) {
    members.clear();
    for (index_t v = 0; v < nv; ++v) {
      if (static_cast<index_t>(members.size()) == size_cap) break;
      if (rng.uniform01() < 0.8) members.push_back(v);
    }
    if (members.empty()) {
      members.push_back(static_cast<index_t>(rng.uniform(nv)));
    }
    builder.add_edge(members);
  }
  return builder.build();
}

Hypergraph nested_chain_instance(Rng& rng, const GenOptions& o) {
  // Edges are prefixes of one shuffled vertex chain: edge i is strictly
  // contained in edge i+1, so reduction must delete all but the last
  // and the peel cascades through the whole chain.
  const index_t nv = std::min<index_t>(
      2 + pick_count(rng, o.max_vertices > 2 ? o.max_vertices - 2
                                             : index_t{1}),
      std::max<index_t>(o.max_vertices, 1));
  std::vector<index_t> chain(nv);
  for (index_t v = 0; v < nv; ++v) chain[v] = v;
  rng.shuffle(chain);
  const index_t depth_cap = std::max<index_t>(
      1, std::min({nv, index_t{12}, o.max_edge_size, o.max_edges}));
  const index_t depth = 1 + pick_count(rng, depth_cap - 1);
  HypergraphBuilder builder{nv};
  for (index_t take = 1; take <= depth; ++take) {
    builder.add_edge(std::span<const index_t>{chain.data(), take});
  }
  // A few extra random edges so the chain is not the whole instance.
  std::vector<index_t> members;
  const index_t extra_cap =
      o.max_edges > depth ? o.max_edges - depth : index_t{0};
  const index_t extra = pick_count(rng, std::min<index_t>(5, extra_cap));
  for (index_t e = 0; e < extra; ++e) {
    const index_t size = pick_size(rng, o, 4);
    members.clear();
    for (index_t i = 0; i < size; ++i) {
      members.push_back(static_cast<index_t>(rng.uniform(nv)));
    }
    builder.add_edge(members);
  }
  return builder.build();
}

Hypergraph duplicate_heavy_instance(Rng& rng, const GenOptions& o) {
  // A handful of distinct edges, each repeated many times: stresses the
  // lowest-id-representative rule of reduction and edge-core stamping.
  const index_t nv = std::min<index_t>(
      4 + static_cast<index_t>(rng.uniform(12)),
      std::max<index_t>(o.max_vertices, 1));
  const index_t distinct = std::min<index_t>(
      1 + static_cast<index_t>(rng.uniform(5)),
      std::max<index_t>(o.max_edges, 1));
  HypergraphBuilder builder{nv};
  std::vector<std::vector<index_t>> originals;
  std::vector<index_t> members;
  for (index_t d = 0; d < distinct; ++d) {
    const index_t size = pick_size(rng, o, 5);
    members.clear();
    for (index_t i = 0; i < size; ++i) {
      members.push_back(static_cast<index_t>(rng.uniform(nv)));
    }
    originals.push_back(members);
  }
  const index_t ne = distinct + pick_count(rng, o.max_edges > distinct
                                                    ? o.max_edges - distinct
                                                    : index_t{0});
  for (index_t e = 0; e < ne; ++e) {
    builder.add_edge(originals[e < distinct ? e : rng.uniform(distinct)]);
  }
  return builder.build();
}

Hypergraph power_law_instance(Rng& rng, const GenOptions& o) {
  // Zipf member choice concentrates degree on low-id vertices, the
  // regime of the paper's Fig. 1 (gamma ~ 2.5, ADH1-style hubs).
  const index_t nv = std::min<index_t>(
      6 + pick_count(rng, o.max_vertices > 6 ? o.max_vertices - 6
                                             : index_t{1}),
      std::max<index_t>(o.max_vertices, 1));
  const index_t ne = pick_count(rng, o.max_edges);
  HypergraphBuilder builder{nv};
  std::vector<index_t> members;
  for (index_t e = 0; e < ne; ++e) {
    const index_t size = 1 + static_cast<index_t>(rng.uniform(o.max_edge_size));
    members.clear();
    for (index_t i = 0; i < size; ++i) {
      members.push_back(static_cast<index_t>(rng.zipf(nv, 2.5) - 1));
    }
    builder.add_edge(members);
  }
  return builder.build();
}

Hypergraph singletons_instance(Rng& rng, const GenOptions& o) {
  // Size-1 edges (complexes of one protein -- the paper's multicover
  // exclusion case) plus deliberately isolated vertices.
  const index_t nv = std::min<index_t>(
      2 + pick_count(rng, o.max_vertices > 2 ? o.max_vertices - 2
                                             : index_t{1}),
      std::max<index_t>(o.max_vertices, 1));
  const index_t ne = pick_count(rng, o.max_edges);
  HypergraphBuilder builder{nv};
  std::vector<index_t> members;
  for (index_t e = 0; e < ne; ++e) {
    // Draw from the lower half so the upper half stays mostly isolated.
    const index_t span = std::max<index_t>(1, nv / 2);
    if (rng.uniform01() < 0.6) {
      builder.add_edge({static_cast<index_t>(rng.uniform(span))});
      continue;
    }
    const index_t size = std::min<index_t>(
        2 + static_cast<index_t>(rng.uniform(3)),
        std::max<index_t>(o.max_edge_size, 1));
    members.clear();
    for (index_t i = 0; i < size; ++i) {
      members.push_back(static_cast<index_t>(rng.uniform(span)));
    }
    builder.add_edge(members);
  }
  return builder.build();
}

Hypergraph sparse_instance(Rng& rng, const GenOptions& o) {
  // Far more vertices than pins: most of the instance is isolated
  // vertices, which exercises the dual's vanishing-vertex rule and the
  // component / histogram zero paths.
  const index_t nv = std::min<index_t>(
      8 + pick_count(rng, o.max_vertices > 8 ? o.max_vertices - 8
                                             : index_t{1}),
      std::max<index_t>(o.max_vertices, 1));
  const index_t ne = std::min<index_t>(static_cast<index_t>(rng.uniform(4)),
                                       o.max_edges);
  HypergraphBuilder builder{nv};
  std::vector<index_t> members;
  for (index_t e = 0; e < ne; ++e) {
    const index_t size = pick_size(rng, o, 3);
    members.clear();
    for (index_t i = 0; i < size; ++i) {
      members.push_back(static_cast<index_t>(rng.uniform(nv)));
    }
    builder.add_edge(members);
  }
  return builder.build();
}

Hypergraph duplicate_chain_instance(Rng& rng, const GenOptions& o) {
  // Worst case for the reduction fixpoint: a nested prefix chain where
  // every prefix is additionally repeated verbatim several times, so
  // almost every edge is non-maximal and the doomed set is nearly |F|.
  // A fixpoint that re-derives its candidates by rescanning all live
  // edges goes quadratic here; the neighborhood-seeded one stays linear
  // in the doomed edges' incidence. Also leans hard on the
  // lowest-id-representative rule across duplicate classes.
  const index_t nv = std::min<index_t>(
      2 + pick_count(rng, o.max_vertices > 2 ? o.max_vertices - 2
                                             : index_t{1}),
      std::max<index_t>(o.max_vertices, 1));
  std::vector<index_t> chain(nv);
  for (index_t v = 0; v < nv; ++v) chain[v] = v;
  rng.shuffle(chain);
  const index_t depth_cap = std::max<index_t>(
      1, std::min({nv, index_t{8}, o.max_edge_size, o.max_edges}));
  const index_t depth = 1 + pick_count(rng, depth_cap - 1);
  HypergraphBuilder builder{nv};
  index_t budget = std::max<index_t>(o.max_edges, 1);
  for (index_t take = 1; take <= depth && budget > 0; ++take) {
    const index_t copies = std::min<index_t>(
        1 + static_cast<index_t>(rng.uniform(4)), budget);
    for (index_t c = 0; c < copies; ++c) {
      builder.add_edge(std::span<const index_t>{chain.data(), take});
    }
    budget -= copies;
  }
  return builder.build();
}

}  // namespace

Hypergraph generate_shape(Shape shape, Rng& rng, const GenOptions& options) {
  switch (shape) {
    case Shape::kUniform:
      return uniform_instance(rng, options);
    case Shape::kCellzome:
      return cellzome_instance(rng, options);
    case Shape::kNearClique:
      return near_clique_instance(rng, options);
    case Shape::kNestedChain:
      return nested_chain_instance(rng, options);
    case Shape::kDuplicateHeavy:
      return duplicate_heavy_instance(rng, options);
    case Shape::kPowerLaw:
      return power_law_instance(rng, options);
    case Shape::kSingletons:
      return singletons_instance(rng, options);
    case Shape::kSparse:
      return sparse_instance(rng, options);
    case Shape::kDuplicateChain:
      return duplicate_chain_instance(rng, options);
  }
  return Hypergraph{};
}

Shape shape_of_seed(std::uint64_t seed) {
  return static_cast<Shape>(seed % kNumShapes);
}

const char* shape_name(Shape shape) {
  switch (shape) {
    case Shape::kUniform:
      return "uniform";
    case Shape::kCellzome:
      return "cellzome";
    case Shape::kNearClique:
      return "near_clique";
    case Shape::kNestedChain:
      return "nested_chain";
    case Shape::kDuplicateHeavy:
      return "duplicate_heavy";
    case Shape::kPowerLaw:
      return "power_law";
    case Shape::kSingletons:
      return "singletons";
    case Shape::kSparse:
      return "sparse";
    case Shape::kDuplicateChain:
      return "duplicate_chain";
  }
  return "unknown";
}

Hypergraph generate(std::uint64_t seed, const GenOptions& options) {
  Rng rng{seed * 0x9e3779b97f4a7c15ULL + 1};
  // Degenerate instances at a fixed small rate, independent of shape:
  // the empty hypergraph and the edgeless-with-vertices hypergraph are
  // the classic "nobody tested this" inputs.
  const double roll = rng.uniform01();
  if (roll < 0.02) return HypergraphBuilder{0}.build();
  if (roll < 0.04) {
    return HypergraphBuilder{1 + static_cast<index_t>(rng.uniform(8))}.build();
  }
  return generate_shape(shape_of_seed(seed), rng, options);
}

std::string mutate_text(Rng& rng, std::string text, int edits) {
  for (int i = 0; i < edits; ++i) {
    if (text.empty()) {
      text += static_cast<char>(32 + rng.uniform(95));
      continue;
    }
    const std::size_t pos = rng.pick(text.size());
    switch (rng.uniform(5)) {
      case 0:  // overwrite with a printable character
        text[pos] = static_cast<char>(32 + rng.uniform(95));
        break;
      case 1:  // delete a character
        text.erase(pos, 1);
        break;
      case 2:  // insert a digit (numeric splice: the interesting case
               // for count/id fields)
        text.insert(pos, 1, static_cast<char>('0' + rng.uniform(10)));
        break;
      case 3: {  // duplicate a whole line
        const std::size_t line_start = text.rfind('\n', pos);
        const std::size_t begin =
            line_start == std::string::npos ? 0 : line_start + 1;
        std::size_t end = text.find('\n', pos);
        if (end == std::string::npos) end = text.size();
        text.insert(begin, text.substr(begin, end - begin) + "\n");
        break;
      }
      default: {  // drop a whole line
        const std::size_t line_start = text.rfind('\n', pos);
        const std::size_t begin =
            line_start == std::string::npos ? 0 : line_start + 1;
        std::size_t end = text.find('\n', pos);
        end = end == std::string::npos ? text.size() : end + 1;
        text.erase(begin, end - begin);
        break;
      }
    }
  }
  return text;
}

std::string mutate_bytes(Rng& rng, std::string bytes, int edits) {
  for (int i = 0; i < edits; ++i) {
    if (bytes.empty()) {
      bytes += static_cast<char>(rng.uniform(256));
      continue;
    }
    const std::size_t pos = rng.pick(bytes.size());
    switch (rng.uniform(4)) {
      case 0:  // overwrite with an arbitrary byte
        bytes[pos] = static_cast<char>(rng.uniform(256));
        break;
      case 1:  // flip one bit
        bytes[pos] = static_cast<char>(
            static_cast<unsigned char>(bytes[pos]) ^ (1u << rng.uniform(8)));
        break;
      case 2:  // erase a short range
        bytes.erase(pos, 1 + rng.pick(4));
        break;
      default:  // duplicate a short range
        bytes.insert(pos, bytes.substr(pos, 1 + rng.pick(4)));
        break;
    }
  }
  return bytes;
}

}  // namespace hp::check
