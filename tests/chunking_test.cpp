#include <gtest/gtest.h>

#include <algorithm>

#include "graph/chunking.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"

namespace lgg::graph {
namespace {

ChunkingOptions opts_with_budget(std::uint64_t bits) {
  ChunkingOptions o;
  o.shared_mem_bits = bits;
  return o;
}

TEST(ChunkBits, Metrics) {
  EXPECT_EQ(chunk_bits(10, SizeMetric::kAdjacencyMatrix), 100u);
  EXPECT_EQ(chunk_bits(10, SizeMetric::kSutm), 45u);
}

TEST(Chunking, WholeComponentFitsSingleChunk) {
  const Graph g = complete(10);  // S-UTM = 45 bits
  const auto result = split_into_chunks(g, opts_with_budget(1000));
  ASSERT_EQ(result.chunks.size(), 1u);
  EXPECT_TRUE(result.chunks[0].fits_shared);
  EXPECT_EQ(result.chunks[0].vertices.size(), 10u);
  EXPECT_EQ(result.oversized_chunks, 0u);
}

TEST(Chunking, SplitsLongPathIntoFittingChunks) {
  const Graph g = path(100);
  // Budget for ~10 vertices per chunk: C(10,2)=45 bits.
  const auto result = split_into_chunks(g, opts_with_budget(45));
  EXPECT_GT(result.chunks.size(), 5u);
  for (const auto& chunk : result.chunks) {
    EXPECT_TRUE(chunk.fits_shared);
    EXPECT_LE(chunk.bits, 45u);
  }
  EXPECT_EQ(result.oversized_chunks, 0u);
}

TEST(Chunking, ConsecutiveChunksOverlapByOneLevel) {
  const Graph g = path(50);
  const auto result = split_into_chunks(g, opts_with_budget(45));
  for (std::size_t i = 1; i < result.chunks.size(); ++i) {
    EXPECT_EQ(result.chunks[i].first_level, result.chunks[i - 1].last_level)
        << "chunk " << i;
  }
}

TEST(Chunking, EveryVertexCoveredAndLevelsConsistent) {
  const Graph g = erdos_renyi(150, 0.02, 21);
  const auto result = split_into_chunks(g, opts_with_budget(50 * 49 / 2));
  std::vector<bool> seen(g.num_vertices(), false);
  for (const auto& chunk : result.chunks) {
    const BfsTree& tree = result.trees[chunk.component];
    for (const Vertex v : chunk.vertices) {
      seen[v] = true;
      ASSERT_NE(tree.level[v], kUnreached);
      EXPECT_GE(tree.level[v], chunk.first_level);
      EXPECT_LE(tree.level[v], chunk.last_level);
    }
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) EXPECT_TRUE(seen[v]) << v;
}

TEST(Chunking, EveryEdgeInsideSomeChunk) {
  // The overlap property must make every edge (and hence every triangle
  // via ALS pairs) visible within at least one chunk.
  const Graph g = erdos_renyi(120, 0.03, 8);
  const auto result = split_into_chunks(g, opts_with_budget(40 * 39 / 2));
  for (const auto& [u, v] : g.edges()) {
    bool covered = false;
    for (const auto& chunk : result.chunks) {
      const auto& vs = chunk.vertices;
      if (std::binary_search(vs.begin(), vs.end(), u) &&
          std::binary_search(vs.begin(), vs.end(), v)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "edge " << u << "-" << v;
  }
}

TEST(Chunking, StarCannotSplitReportsOversized) {
  // A star has 2 BFS levels from the centre; its only 2-level chunk is the
  // whole graph, which exceeds a tiny budget -> one oversized chunk.
  const Graph g = star(64);
  const auto result = split_into_chunks(g, opts_with_budget(10));
  EXPECT_GE(result.oversized_chunks, 1u);
  bool any_oversized = false;
  for (const auto& chunk : result.chunks)
    if (!chunk.fits_shared) any_oversized = true;
  EXPECT_TRUE(any_oversized);
}

TEST(Chunking, MultipleComponentsProcessedSeparately) {
  const Graph g = disjoint_union(path(30), complete(5));
  const auto result = split_into_chunks(g, opts_with_budget(36));  // 9 vertices
  ASSERT_EQ(result.trees.size(), 2u);
  std::vector<std::uint32_t> comps_seen;
  for (const auto& chunk : result.chunks) comps_seen.push_back(chunk.component);
  EXPECT_TRUE(std::find(comps_seen.begin(), comps_seen.end(), 0u) !=
              comps_seen.end());
  EXPECT_TRUE(std::find(comps_seen.begin(), comps_seen.end(), 1u) !=
              comps_seen.end());
}

TEST(Chunking, FragmentationAccountedOnlyForFittingChunks) {
  // The K5 (10 bits) fits the budget whole and takes the one-chunk fast
  // path; the path is split.  Both kinds of fitting chunk count.
  const ChunkingOptions opts = opts_with_budget(45);
  for (const Graph& g : {path(40), disjoint_union(path(40), complete(5))}) {
    const auto result = split_into_chunks(g, opts);
    std::uint64_t expect = 0;
    for (const auto& chunk : result.chunks)
      if (chunk.fits_shared) expect += opts.shared_mem_bits - chunk.bits;
    EXPECT_EQ(result.fragmentation_bits, expect)
        << g.num_vertices() << " vertices";
  }
}

TEST(Chunking, InvalidOptionsThrow) {
  ChunkingOptions bad;
  bad.shared_mem_bits = 0;
  EXPECT_THROW(split_into_chunks(path(5), bad), lgg::Error);
  bad.shared_mem_bits = 100;
  bad.max_start_trials = 0;
  EXPECT_THROW(split_into_chunks(path(5), bad), lgg::Error);
}

TEST(Chunking, AdjacencyMetricUsesSquares) {
  const Graph g = path(20);
  ChunkingOptions o;
  o.shared_mem_bits = 100;  // adj-matrix metric: at most 10 vertices
  o.metric = SizeMetric::kAdjacencyMatrix;
  const auto result = split_into_chunks(g, o);
  for (const auto& chunk : result.chunks)
    EXPECT_LE(chunk.vertices.size() * chunk.vertices.size(),
              o.shared_mem_bits);
}

}  // namespace
}  // namespace lgg::graph
