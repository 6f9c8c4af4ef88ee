#include <gtest/gtest.h>

#include <sstream>

#include "graph/formats.hpp"
#include "graph/generators.hpp"
#include "temp_path.hpp"
#include "util/error.hpp"

namespace lgg::graph {
namespace {

TEST(Dimacs, ParsesStandardFile) {
  std::istringstream in(
      "c sample clique instance\n"
      "p edge 4 4\n"
      "e 1 2\n"
      "e 2 3\n"
      "e 3 4\n"
      "e 4 1\n");
  const Graph g = read_dimacs(in);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(3, 0));
}

TEST(Dimacs, RejectsMalformedInput) {
  std::istringstream no_header("e 1 2\n");
  EXPECT_THROW(read_dimacs(no_header), lgg::Error);
  std::istringstream out_of_range("p edge 3 1\ne 1 4\n");
  EXPECT_THROW(read_dimacs(out_of_range), lgg::Error);
  std::istringstream junk("p edge 3 1\nx 1 2\n");
  EXPECT_THROW(read_dimacs(junk), lgg::Error);
  std::istringstream zero_id("p edge 3 1\ne 0 2\n");
  EXPECT_THROW(read_dimacs(zero_id), lgg::Error);
}

TEST(Dimacs, RoundTrip) {
  const Graph g = erdos_renyi(40, 0.15, 5);
  std::stringstream buffer;
  write_dimacs(buffer, g, "round trip");
  const Graph back = read_dimacs(buffer);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.edges(), g.edges());
}

TEST(Dimacs, FileRoundTrip) {
  const std::string path = testutil::temp_path("k5.dimacs");
  const Graph g = complete(5);
  write_dimacs_file(path, g, "K5");
  EXPECT_EQ(read_dimacs_file(path).num_edges(), 10u);
  EXPECT_THROW(read_dimacs_file("/nonexistent.dimacs"), lgg::Error);
}

TEST(Metis, ParsesStandardFile) {
  // Path 1-2-3 (1-based): each line lists the vertex's neighbours.
  std::istringstream in(
      "% comment\n"
      "3 2\n"
      "2\n"
      "1 3\n"
      "2\n");
  const Graph g = read_metis(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Metis, RejectsBadInput) {
  std::istringstream short_file("3 2\n2\n");
  EXPECT_THROW(read_metis(short_file), lgg::Error);
  std::istringstream bad_count("3 5\n2\n1 3\n2\n");
  EXPECT_THROW(read_metis(bad_count), lgg::Error);
  std::istringstream weighted("3 2 011\n2\n1 3\n2\n");
  EXPECT_THROW(read_metis(weighted), lgg::Error);
  std::istringstream out_of_range("2 1\n5\n\n");
  EXPECT_THROW(read_metis(out_of_range), lgg::Error);
}

TEST(Metis, RoundTrip) {
  const Graph g = barabasi_albert(60, 3, 9);
  std::stringstream buffer;
  write_metis(buffer, g);
  const Graph back = read_metis(buffer);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.edges(), g.edges());
}

TEST(Metis, IsolatedVerticesSurvive) {
  // METIS represents isolated vertices as empty lines — unlike edge lists.
  Graph g(4);
  std::stringstream buffer;
  write_metis(buffer, g);
  const Graph back = read_metis(buffer);
  EXPECT_EQ(back.num_vertices(), 4u);
  EXPECT_EQ(back.num_edges(), 0u);
}

TEST(Formats, CrossFormatConsistency) {
  const Graph g = erdos_renyi(30, 0.2, 7);
  std::stringstream dimacs, metis;
  write_dimacs(dimacs, g);
  write_metis(metis, g);
  EXPECT_EQ(read_dimacs(dimacs).edges(), read_metis(metis).edges());
}

}  // namespace
}  // namespace lgg::graph
