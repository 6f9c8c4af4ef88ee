#include <gtest/gtest.h>

#include <algorithm>

#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace lgg::graph {
namespace {

TEST(Bfs, PathLevels) {
  const Graph g = path(6);
  const BfsTree t = bfs(g, 0);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(t.level[v], v);
  EXPECT_EQ(t.depth, 5u);
  EXPECT_EQ(t.parent[0], 0u);
  for (Vertex v = 1; v < 6; ++v) EXPECT_EQ(t.parent[v], v - 1);
}

TEST(Bfs, StarFromCenterAndLeaf) {
  const Graph g = star(8);
  const BfsTree from_center = bfs(g, 0);
  EXPECT_EQ(from_center.depth, 1u);
  const BfsTree from_leaf = bfs(g, 3);
  EXPECT_EQ(from_leaf.depth, 2u);
  EXPECT_EQ(from_leaf.level[0], 1u);
}

TEST(Bfs, UnreachedVerticesMarked) {
  const Graph g = disjoint_union(path(3), path(3));
  const BfsTree t = bfs(g, 0);
  EXPECT_EQ(t.level[4], kUnreached);
  EXPECT_EQ(t.parent[4], kUnreached);
}

TEST(Bfs, SourceOutOfRangeThrows) {
  EXPECT_THROW(bfs(Graph(3), 3), lgg::Error);
}

// Property: every edge connects vertices at most one BFS level apart —
// the structural fact Algorithm 2 depends on.
class BfsEdgeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BfsEdgeProperty, EdgesSpanAdjacentLevels) {
  const Graph g = erdos_renyi(120, 0.03, GetParam());
  const Components comps = connected_components(g);
  for (std::uint32_t c = 0; c < comps.count; ++c) {
    const auto members = comps.vertices_of(c);
    const BfsTree t = bfs(g, members.front());
    for (const Vertex u : members)
      for (const Vertex v : g.neighbors(u)) {
        ASSERT_NE(t.level[u], kUnreached);
        ASSERT_NE(t.level[v], kUnreached);
        const auto lu = static_cast<std::int64_t>(t.level[u]);
        const auto lv = static_cast<std::int64_t>(t.level[v]);
        EXPECT_LE(std::abs(lu - lv), 1) << "edge " << u << "-" << v;
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsEdgeProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ConnectedComponents, CountsAndMembership) {
  const Graph g =
      disjoint_union(disjoint_union(complete(4), cycle(5)), Graph(3));
  const Components comps = connected_components(g);
  EXPECT_EQ(comps.count, 2u + 3u);  // K4, C5, and three isolated vertices
  EXPECT_EQ(comps.vertices_of(0).size(), 4u);
  EXPECT_EQ(comps.vertices_of(1).size(), 5u);
  EXPECT_EQ(comps.vertices_of(2).size(), 1u);
}

TEST(ConnectedComponents, IdsAssignedBySmallestVertex) {
  const Graph g = disjoint_union(Graph(1), complete(3));
  const Components comps = connected_components(g);
  EXPECT_EQ(comps.component_of[0], 0u);
  EXPECT_EQ(comps.component_of[1], 1u);
  EXPECT_EQ(comps.component_of[3], 1u);
}

TEST(LevelDecomposition, BucketsAllVertices) {
  const Graph g = erdos_renyi(100, 0.05, 42);
  const Components comps = connected_components(g);
  const auto members = comps.vertices_of(0);
  const BfsTree t = bfs(g, members.front());
  const LevelDecomposition levels(t);
  EXPECT_EQ(levels.num_levels(), t.depth + 1);
  EXPECT_EQ(levels.total_vertices(), members.size());
  for (std::size_t l = 0; l < levels.num_levels(); ++l) {
    EXPECT_FALSE(levels.level(l).empty());
    for (const Vertex v : levels.level(l)) EXPECT_EQ(t.level[v], l);
  }
}

// The levels connected_components keeps are the ones a second BFS from
// each component's smallest vertex would bucket: same count, same sets,
// each ascending.
TEST(ConnectedComponents, LevelsMatchBfsFromSmallestVertex) {
  const Graph graphs[] = {rmat(10, 8, 3),
                          disjoint_union(disjoint_union(complete(4), path(7)),
                                         disjoint_union(star(6), Graph(2))),
                          Graph(0), Graph(1)};
  for (const Graph& g : graphs) {
    const Components comps = connected_components(g);
    std::size_t covered = 0;
    for (std::uint32_t c = 0; c < comps.count; ++c) {
      const auto members = comps.vertices_of(c);
      ASSERT_FALSE(members.empty());
      EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
      for (const Vertex v : members) EXPECT_EQ(comps.component_of[v], c);
      const LevelDecomposition reference(bfs(g, members.front()));
      const ComponentLevels levels = comps.levels(c);
      ASSERT_EQ(levels.num_levels(), reference.num_levels());
      for (std::size_t l = 0; l < levels.num_levels(); ++l)
        EXPECT_TRUE(std::ranges::equal(levels.level(l), reference.level(l)))
            << "component " << c << " level " << l << " of "
            << g.num_vertices() << " vertices";
      covered += members.size();
    }
    EXPECT_EQ(covered, g.num_vertices());
  }
}

}  // namespace
}  // namespace lgg::graph
