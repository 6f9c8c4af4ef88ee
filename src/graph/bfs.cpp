#include "graph/bfs.hpp"

#include <algorithm>
#include <deque>

#include "util/error.hpp"

namespace lgg::graph {

BfsTree bfs(const Graph& g, Vertex source) {
  LGG_CHECK(source < g.num_vertices(),
            "bfs: source " << source << " out of range");
  BfsTree tree;
  tree.source = source;
  tree.parent.assign(g.num_vertices(), kUnreached);
  tree.level.assign(g.num_vertices(), kUnreached);

  std::deque<Vertex> queue;
  tree.parent[source] = source;
  tree.level[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop_front();
    tree.depth = std::max(tree.depth, tree.level[u]);
    for (Vertex v : g.neighbors(u)) {
      if (tree.level[v] == kUnreached) {
        tree.level[v] = tree.level[u] + 1;
        tree.parent[v] = u;
        queue.push_back(v);
      }
    }
  }
  return tree;
}

Components connected_components(const Graph& g) {
  Components comps;
  comps.component_of.assign(g.num_vertices(), kUnreached);
  // The flat level array doubles as the BFS queue: a component's walk
  // appends its vertices in hop order, and what expanding one level
  // appends is the next level.
  auto& queue = comps.level_vertices;
  queue.reserve(g.num_vertices());
  comps.level_start.push_back(0);
  for (Vertex start = 0; start < g.num_vertices(); ++start) {
    if (comps.component_of[start] != kUnreached) continue;
    const std::uint32_t id = comps.count++;
    comps.first_level.push_back(
        static_cast<std::uint32_t>(comps.level_start.size() - 1));
    comps.component_of[start] = id;
    queue.push_back(start);
    for (std::size_t head = queue.size() - 1; head < queue.size();) {
      const std::size_t level_end = queue.size();
      for (; head < level_end; ++head)
        for (const Vertex v : g.neighbors(queue[head]))
          if (comps.component_of[v] == kUnreached) {
            comps.component_of[v] = id;
            queue.push_back(v);
          }
      std::sort(queue.begin() + static_cast<std::ptrdiff_t>(
                                    comps.level_start.back()),
                queue.begin() + static_cast<std::ptrdiff_t>(level_end));
      comps.level_start.push_back(level_end);
    }
  }
  comps.first_level.push_back(
      static_cast<std::uint32_t>(comps.level_start.size() - 1));
  return comps;
}

ComponentLevels Components::levels(std::uint32_t c) const {
  LGG_CHECK(c < count, "component " << c << " out of range");
  return {level_vertices,
          std::span<const std::size_t>(level_start)
              .subspan(first_level[c], first_level[c + 1] - first_level[c] + 1)};
}

std::vector<Vertex> Components::vertices_of(std::uint32_t c) const {
  const ComponentLevels lv = levels(c);  // contiguous in level_vertices
  std::vector<Vertex> result(lv.vertices.begin() + lv.bounds.front(),
                             lv.vertices.begin() + lv.bounds.back());
  std::sort(result.begin(), result.end());
  return result;
}

LevelDecomposition::LevelDecomposition(const BfsTree& tree) {
  if (tree.level.empty()) return;
  levels_.resize(tree.depth + 1);
  for (Vertex v = 0; v < tree.level.size(); ++v)
    if (tree.level[v] != kUnreached) levels_[tree.level[v]].push_back(v);
  // Vertices were visited in id order per level already, but be explicit:
  for (auto& lvl : levels_) std::sort(lvl.begin(), lvl.end());
}

std::size_t LevelDecomposition::total_vertices() const noexcept {
  std::size_t total = 0;
  for (const auto& lvl : levels_) total += lvl.size();
  return total;
}

}  // namespace lgg::graph
