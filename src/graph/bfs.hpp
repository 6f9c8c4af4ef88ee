// Breadth-first search, connected components, and the BFS-level machinery
// that drives the paper's algorithms.
//
// The key structural fact (paper Sections III, V, VII): every edge of G
// joins vertices whose BFS levels differ by at most 1, so any triangle is
// contained in the union of two consecutive BFS levels.  Algorithm 2
// therefore iterates over *adjacent level sets* (ALS): pairs
// (L_i, L_{i+1}), plus the final level alone (Fig. 3); core/als_plan.hpp
// turns a component's levels into those jobs.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace lgg::graph {

inline constexpr std::uint32_t kUnreached =
    std::numeric_limits<std::uint32_t>::max();

/// BFS tree of one source: parent pointers and levels; vertices in other
/// components keep level == kUnreached.
struct BfsTree {
  Vertex source = 0;
  std::vector<Vertex> parent;        // parent[source] == source
  std::vector<std::uint32_t> level;  // hop distance from source
  std::uint32_t depth = 0;           // max reached level
};

/// Standard queue BFS from `source`.
BfsTree bfs(const Graph& g, Vertex source);

/// One component's BFS levels, viewing flat storage that must outlive it:
/// level i is vertices[bounds[i], bounds[i+1]), ascending.
struct ComponentLevels {
  std::span<const Vertex> vertices;
  std::span<const std::size_t> bounds;  // num_levels() + 1 offsets

  [[nodiscard]] std::size_t num_levels() const noexcept {
    return bounds.size() - 1;
  }
  [[nodiscard]] std::span<const Vertex> level(std::size_t i) const noexcept {
    return vertices.subspan(bounds[i], bounds[i + 1] - bounds[i]);
  }
};

/// Connected components by repeated BFS; component ids are dense in
/// [0, count) and assigned in order of the smallest contained vertex.
/// Each BFS starts at the component's smallest vertex and keeps the
/// levels it walks, so Algorithm 2's planners need no BFS of their own.
struct Components {
  std::vector<std::uint32_t> component_of;  // per vertex
  std::uint32_t count = 0;
  // All levels back to back, component-major.  Level l (counted over all
  // components) is level_vertices[level_start[l], level_start[l+1]);
  // component c has levels [first_level[c], first_level[c+1]).
  std::vector<Vertex> level_vertices;
  std::vector<std::size_t> level_start;
  std::vector<std::uint32_t> first_level;

  /// Levels of component c: those of LevelDecomposition(bfs(g, smallest
  /// vertex of c)).  Valid while *this is.
  [[nodiscard]] ComponentLevels levels(std::uint32_t c) const;

  /// Vertices of component c, ascending; O(size log size).
  [[nodiscard]] std::vector<Vertex> vertices_of(std::uint32_t c) const;
};
Components connected_components(const Graph& g);

/// The vertices of one BFS tree bucketed by level (paper's
/// divIntoConsecutiveLvlSets).  Levels are vectors of vertex ids, ascending
/// within each level.
class LevelDecomposition {
 public:
  LevelDecomposition() = default;
  explicit LevelDecomposition(const BfsTree& tree);

  [[nodiscard]] std::size_t num_levels() const noexcept {
    return levels_.size();
  }
  [[nodiscard]] std::span<const Vertex> level(std::size_t i) const noexcept {
    return levels_[i];
  }
  [[nodiscard]] const std::vector<std::vector<Vertex>>& levels() const noexcept {
    return levels_;
  }

  /// Total vertices across all levels (the component size).
  [[nodiscard]] std::size_t total_vertices() const noexcept;

 private:
  std::vector<std::vector<Vertex>> levels_;
};

}  // namespace lgg::graph
