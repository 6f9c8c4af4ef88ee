#include <gtest/gtest.h>

#include "combi/binomial.hpp"
#include "core/kcount.hpp"
#include "core/triangle_cpu.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"

namespace lgg::core {
namespace {

using combi::binomial;
using graph::Graph;

// ---- k-cliques ----

TEST(KCliques, KnownValues) {
  // K_n has C(n, k) k-cliques.
  for (std::uint32_t k = 1; k <= 6; ++k)
    EXPECT_EQ(count_kcliques(graph::complete(6), k), binomial(6, k)) << k;
  // k=2 counts edges.
  const Graph g = graph::erdos_renyi(40, 0.2, 3);
  EXPECT_EQ(count_kcliques(g, 2), g.num_edges());
  // k=3 counts triangles.
  EXPECT_EQ(count_kcliques(g, 3), count_triangles_edge_iterator(g));
  // Triangle-free graphs have no 3-cliques.
  EXPECT_EQ(count_kcliques(graph::complete_bipartite(5, 5), 3), 0u);
  EXPECT_EQ(count_kcliques(graph::cycle(8), 3), 0u);
}

TEST(KCliques, ZeroKThrows) {
  EXPECT_THROW(count_kcliques(Graph(3), 0), lgg::Error);
}

class KCliqueAlsAgreement : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(KCliqueAlsAgreement, PaperStyleMatchesOracle) {
  const std::uint32_t k = GetParam();
  for (const std::uint64_t seed : {1ull, 2ull}) {
    const Graph g = graph::erdos_renyi(26, 0.35, seed);
    EXPECT_EQ(count_kcliques_als(g, k), count_kcliques(g, k))
        << "k=" << k << " seed=" << seed;
  }
  const Graph multi =
      graph::disjoint_union(graph::complete(6), graph::erdos_renyi(15, 0.4, 9));
  EXPECT_EQ(count_kcliques_als(multi, k), count_kcliques(multi, k));
}

INSTANTIATE_TEST_SUITE_P(K, KCliqueAlsAgreement, ::testing::Values(1, 2, 3, 4, 5));

// ---- connected subgraphs ----

TEST(ConnectedSubgraphs, KnownValues) {
  // Path P_n: connected k-subsets are exactly the n-k+1 subpaths.
  EXPECT_EQ(count_connected_subgraphs(graph::path(10), 4), 7u);
  // Cycle C_n (k < n): n arcs of length k.
  EXPECT_EQ(count_connected_subgraphs(graph::cycle(9), 3), 9u);
  // Complete graph: every k-subset is connected.
  EXPECT_EQ(count_connected_subgraphs(graph::complete(7), 4),
            binomial(7, 4));
  // Star: connected subsets must contain the centre.
  EXPECT_EQ(count_connected_subgraphs(graph::star(8), 3), binomial(7, 2));
  // k = 1: one per vertex.
  EXPECT_EQ(count_connected_subgraphs(graph::path(5), 1), 5u);
  // Disconnected pieces never mix.
  EXPECT_EQ(count_connected_subgraphs(
                graph::disjoint_union(graph::path(4), graph::path(4)), 2),
            6u);
}

class ConnSubgraphAgreement : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ConnSubgraphAgreement, PaperStyleMatchesEsu) {
  const std::uint32_t k = GetParam();
  for (const std::uint64_t seed : {3ull, 8ull}) {
    const Graph g = graph::erdos_renyi(18, 0.2, seed);
    EXPECT_EQ(count_connected_subgraphs_als(g, k),
              count_connected_subgraphs(g, k))
        << "k=" << k << " seed=" << seed;
  }
  const Graph grid = graph::grid2d(3, 4);
  EXPECT_EQ(count_connected_subgraphs_als(grid, k),
            count_connected_subgraphs(grid, k));
}

INSTANTIATE_TEST_SUITE_P(K, ConnSubgraphAgreement,
                         ::testing::Values(1, 2, 3, 4));

TEST(ConnectedSubgraphs, ZeroKThrows) {
  EXPECT_THROW(count_connected_subgraphs(Graph(2), 0), lgg::Error);
  EXPECT_THROW(count_connected_subgraphs_als(Graph(2), 0), lgg::Error);
  EXPECT_THROW(count_kcliques_als(Graph(2), 0), lgg::Error);
}

}  // namespace
}  // namespace lgg::core
