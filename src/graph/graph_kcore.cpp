#include "graph/graph_kcore.hpp"

#include <algorithm>

namespace hp::graph {

std::vector<index_t> CoreDecomposition::max_core_vertices() const {
  std::vector<index_t> out;
  for (index_t v = 0; v < core.size(); ++v) {
    if (core[v] == max_core && max_core > 0) out.push_back(v);
  }
  return out;
}

CoreDecomposition core_decomposition(const Graph& g) {
  CoreDecomposition result;
  const index_t n = g.num_vertices();
  // Batagelj-Zaversnik (2003): vertices sit in one flat array sorted by
  // residual degree, bin[d] marks where the degree-d block starts. A
  // neighbor's drop swaps it to the front of its block and moves the
  // boundary past it, so every decrement is O(1).
  std::vector<index_t>& degree = result.core;  // ends as the core number
  degree.resize(n);
  std::vector<index_t> bin(static_cast<std::size_t>(g.max_degree()) + 1, 0);
  for (index_t v = 0; v < n; ++v) {
    degree[v] = g.degree(v);
    ++bin[degree[v]];
  }
  index_t start = 0;
  for (index_t& b : bin) {
    const index_t count = b;
    b = start;
    start += count;
  }
  std::vector<index_t> order(n);
  std::vector<index_t> position(n);
  for (index_t v = 0; v < n; ++v) {
    position[v] = bin[degree[v]]++;
    order[position[v]] = v;
  }
  for (std::size_t d = bin.size() - 1; d > 0; --d) bin[d] = bin[d - 1];
  bin[0] = 0;

  for (index_t i = 0; i < n; ++i) {
    const index_t v = order[i];
    for (index_t u : g.neighbors(v)) {
      if (degree[u] <= degree[v]) continue;
      const index_t front = bin[degree[u]];
      const index_t w = order[front];
      if (u != w) {
        order[position[u]] = w;
        position[w] = position[u];
        order[front] = u;
        position[u] = front;
      }
      ++bin[degree[u]];
      --degree[u];
    }
    result.max_core = std::max(result.max_core, degree[v]);
  }
  return result;
}

std::vector<index_t> k_core_vertices(const CoreDecomposition& d, index_t k) {
  std::vector<index_t> out;
  for (index_t v = 0; v < d.core.size(); ++v) {
    if (d.core[v] >= k) out.push_back(v);
  }
  return out;
}

CoreDecomposition core_decomposition_naive(const Graph& g) {
  CoreDecomposition result;
  const index_t n = g.num_vertices();
  result.core.assign(n, 0);
  std::vector<bool> removed(n, false);
  std::vector<index_t> degree(n);
  for (index_t v = 0; v < n; ++v) degree[v] = g.degree(v);

  // For k = 1, 2, ...: repeatedly strip vertices of degree < k; survivors
  // have core number >= k.
  for (index_t k = 1;; ++k) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (index_t v = 0; v < n; ++v) {
        if (removed[v] || degree[v] >= k) continue;
        removed[v] = true;
        changed = true;
        for (index_t u : g.neighbors(v)) {
          if (!removed[u]) --degree[u];
        }
      }
    }
    bool any_left = false;
    for (index_t v = 0; v < n; ++v) {
      if (!removed[v]) {
        result.core[v] = k;
        any_left = true;
      }
    }
    if (!any_left) break;
    result.max_core = k;
  }
  return result;
}

}  // namespace hp::graph
