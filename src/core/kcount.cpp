#include "core/kcount.hpp"

#include <algorithm>
#include <functional>
#include <vector>

#include "combi/combinadic.hpp"
#include "core/als_plan.hpp"
#include "graph/bfs.hpp"
#include "util/error.hpp"

namespace lgg::core {

using graph::Graph;
using graph::Vertex;

namespace {

std::uint64_t cliques_rec(const Graph& g, const std::vector<Vertex>& cands,
                          std::uint32_t need) {
  if (need == 0) return 1;
  if (cands.size() < need) return 0;
  if (need == 1) return cands.size();
  std::uint64_t total = 0;
  std::vector<Vertex> next;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    next.clear();
    for (std::size_t j = i + 1; j < cands.size(); ++j)
      if (g.has_edge(cands[i], cands[j])) next.push_back(cands[j]);
    total += cliques_rec(g, next, need - 1);
  }
  return total;
}

/// Enumerate, for every component and every window of `window_levels`
/// consecutive BFS levels, each k-combination of window vertices whose
/// minimum element lies in the window's first level; invoke `test` with
/// the global vertex ids.  This is the generic Section VIII machinery
/// behind both paper-style counters.
void for_each_window_combination(
    const Graph& g, std::uint32_t window_levels, std::uint32_t k,
    const std::function<void(std::span<const Vertex>)>& test) {
  const graph::Components comps = graph::connected_components(g);
  for (std::uint32_t c = 0; c < comps.count; ++c) {
    const graph::ComponentLevels levels = comps.levels(c);
    const std::size_t d = levels.num_levels();

    std::vector<Vertex> window;
    std::vector<std::uint32_t> suffix(k > 0 ? k - 1 : 0);
    std::vector<Vertex> combo(k);
    for (std::size_t i = 0; i < d; ++i) {
      window.clear();
      const std::size_t last = std::min(d - 1, i + window_levels - 1);
      for (std::size_t l = i; l <= last; ++l) {
        const auto lvl = levels.level(l);
        window.insert(window.end(), lvl.begin(), lvl.end());
      }
      const auto s = static_cast<std::uint32_t>(window.size());
      if (s < k) continue;
      const auto a = static_cast<std::uint32_t>(levels.level(i).size());
      const std::uint32_t x_max = std::min(a, s - k + 1);

      for (std::uint32_t x = 0; x < x_max; ++x) {
        if (k == 1) {
          combo[0] = window[x];
          test(combo);
          continue;
        }
        // (k-1)-combinations of (x, s), walked by successor over [0, s):
        // start at (x+1, ..., x+k-1); all successors stay above x.
        for (std::uint32_t j = 0; j + 1 < k; ++j) suffix[j] = x + 1 + j;
        for (;;) {
          combo[0] = window[x];
          for (std::uint32_t j = 0; j + 1 < k; ++j)
            combo[j + 1] = window[suffix[j]];
          test(combo);
          if (!combi::next_combination(suffix, s)) break;
        }
      }
    }
  }
}

bool is_clique(const Graph& g, std::span<const Vertex> vs) {
  for (std::size_t i = 0; i < vs.size(); ++i)
    for (std::size_t j = i + 1; j < vs.size(); ++j)
      if (!g.has_edge(vs[i], vs[j])) return false;
  return true;
}

bool induced_connected(const Graph& g, std::span<const Vertex> vs) {
  const std::size_t k = vs.size();
  if (k <= 1) return true;
  // BFS over the induced subgraph (k is small).
  std::vector<bool> seen(k, false);
  std::vector<std::size_t> stack{0};
  seen[0] = true;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    for (std::size_t j = 0; j < k; ++j) {
      if (!seen[j] && g.has_edge(vs[i], vs[j])) {
        seen[j] = true;
        ++reached;
        stack.push_back(j);
      }
    }
  }
  return reached == k;
}

}  // namespace

std::uint64_t count_kcliques(const Graph& g, std::uint32_t k) {
  LGG_CHECK(k >= 1, "count_kcliques: k must be >= 1");
  if (k == 1) return g.num_vertices();
  std::uint64_t total = 0;
  std::vector<Vertex> cands;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    cands.clear();
    for (const Vertex u : g.neighbors(v))
      if (u > v) cands.push_back(u);
    total += cliques_rec(g, cands, k - 1);
  }
  return total;
}

std::uint64_t count_kcliques_als(const Graph& g, std::uint32_t k) {
  LGG_CHECK(k >= 1, "count_kcliques_als: k must be >= 1");
  std::uint64_t total = 0;
  // Cliques span at most two adjacent levels -> window of 2.
  for_each_window_combination(g, 2, k, [&](std::span<const Vertex> vs) {
    if (is_clique(g, vs)) ++total;
  });
  return total;
}

namespace {

struct EsuState {
  const Graph* g = nullptr;
  std::uint32_t k = 0;
  Vertex root = 0;
  std::uint64_t count = 0;
  std::vector<bool> marked;  // in subgraph or adjacent to it
  std::vector<Vertex> sub;

  void extend(std::vector<Vertex>& ext) {
    if (sub.size() == k) {
      ++count;
      return;
    }
    while (!ext.empty()) {
      const Vertex w = ext.back();
      ext.pop_back();

      // Exclusive neighbourhood of w (not yet in sub ∪ N(sub)).
      std::vector<Vertex> newly;
      for (const Vertex u : g->neighbors(w))
        if (u > root && !marked[u]) {
          marked[u] = true;
          newly.push_back(u);
        }
      std::vector<Vertex> next_ext = ext;
      next_ext.insert(next_ext.end(), newly.begin(), newly.end());

      sub.push_back(w);
      extend(next_ext);
      sub.pop_back();
      for (const Vertex u : newly) marked[u] = false;
    }
  }
};

}  // namespace

std::uint64_t count_connected_subgraphs(const Graph& g, std::uint32_t k) {
  LGG_CHECK(k >= 1, "count_connected_subgraphs: k must be >= 1");
  if (k == 1) return g.num_vertices();
  EsuState state;
  state.g = &g;
  state.k = k;
  state.marked.assign(g.num_vertices(), false);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    state.root = v;
    state.sub.assign(1, v);
    state.marked[v] = true;
    std::vector<Vertex> ext;
    for (const Vertex u : g.neighbors(v))
      if (u > v) {
        state.marked[u] = true;
        ext.push_back(u);
      }
    state.extend(ext);
    // Unmark for the next root.
    state.marked[v] = false;
    for (const Vertex u : g.neighbors(v))
      if (u > v) state.marked[u] = false;
  }
  return state.count;
}

std::uint64_t count_connected_subgraphs_als(const Graph& g,
                                            std::uint32_t k) {
  LGG_CHECK(k >= 1, "count_connected_subgraphs_als: k must be >= 1");
  std::uint64_t total = 0;
  // Connected k-subgraphs span at most k consecutive levels.
  for_each_window_combination(g, k, k, [&](std::span<const Vertex> vs) {
    if (induced_connected(g, vs)) ++total;
  });
  return total;
}

}  // namespace lgg::core
