// The parallel ingest pipeline's determinism contract (DESIGN.md §13):
// the LoadedGraph it produces — graph, original_ids, comments,
// declared_nodes — is byte-identical to the serial loader at any thread
// count and any chunk size.  graph::loaded_graph_digest turns that into a
// one-string compare; these suites pin it across thread counts, chunk
// sizes that force lines/comments/headers to straddle chunk boundaries,
// sparse and dense id spaces, and the error paths (which must report the
// serial loader's exact message, global line number included).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "graph/digest.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "ingest/ingest.hpp"
#include "ingest/orient.hpp"
#include "core/triangle_cpu.hpp"
#include "temp_path.hpp"
#include "util/error.hpp"

namespace lgg::ingest {
namespace {

using graph::Graph;
using graph::LoadedGraph;

std::string snap_text(const Graph& g, const std::string& comment = {}) {
  std::ostringstream out;
  graph::write_snap_edge_list(out, g, comment);
  return out.str();
}

LoadedGraph serial_reference(const std::string& text,
                             bool pad = false) {
  std::istringstream in(text);
  graph::SnapReadOptions opts;
  opts.pad_to_declared_nodes = pad;
  return graph::read_snap_edge_list(in, opts);
}

/// Field-by-field equality plus the digest: a digest mismatch alone would
/// prove divergence, but comparing fields first localises the failure.
void expect_identical(const LoadedGraph& got, const LoadedGraph& want) {
  EXPECT_EQ(got.graph.num_vertices(), want.graph.num_vertices());
  EXPECT_EQ(got.graph.num_edges(), want.graph.num_edges());
  EXPECT_EQ(got.original_ids, want.original_ids);
  EXPECT_EQ(got.comments, want.comments);
  EXPECT_EQ(got.declared_nodes, want.declared_nodes);
  EXPECT_EQ(graph::loaded_graph_digest(got), graph::loaded_graph_digest(want));
}

void expect_parallel_matches_serial(const std::string& text,
                                    bool pad = false) {
  const LoadedGraph want = serial_reference(text, pad);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    for (const std::size_t chunk_bytes : {std::size_t{7}, std::size_t{64},
                                          std::size_t{4u << 20}}) {
      IngestOptions opts;
      opts.threads = threads;
      opts.chunk_bytes = chunk_bytes;
      opts.pad_to_declared_nodes = pad;
      const IngestResult got = load_snap_buffer(text, opts);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " chunk_bytes=" + std::to_string(chunk_bytes));
      expect_identical(got.loaded, want);
    }
  }
}

TEST(IngestDeterminism, MatchesSerialOnGenerators) {
  expect_parallel_matches_serial(snap_text(graph::gnm(400, 2000, 7)));
  expect_parallel_matches_serial(snap_text(graph::rmat(9, 8, 3)));
  expect_parallel_matches_serial(
      snap_text(graph::barabasi_albert(300, 5, 11)));
}

TEST(IngestDeterminism, SparseIdsFirstSeenOrder) {
  // Raw ids far above the edge count force the hashed compaction path;
  // interleaved magnitudes pin the first-seen-order id assignment.
  const std::string text =
      "900000000000 7\n"
      "7 31\n"
      "123456789123456789 900000000000\n"
      "2 123456789123456789\n"
      "31 2\n";
  expect_parallel_matches_serial(text);
  const IngestResult r = load_snap_buffer(text);
  EXPECT_EQ(r.loaded.original_ids,
            (std::vector<std::uint64_t>{900000000000ULL, 7, 31,
                                        123456789123456789ULL, 2}));
}

TEST(IngestDeterminism, CommentsAndHeadersStraddleChunks) {
  // With chunk_bytes as small as 7 every construct here crosses a chunk
  // boundary somewhere; headers must still merge last-one-wins and the
  // comments must come back in file order.
  const std::string text =
      "# Directed graph: example\n"
      "# Nodes: 4 Edges: 3\n"
      "10\t20\n"
      "20 30\n"
      "\n"
      "   # indented comment\n"
      "# Nodes: 6 Edges: 3\n"
      "30\t10\n";
  expect_parallel_matches_serial(text);
  expect_parallel_matches_serial(text, /*pad=*/true);
  const IngestResult r = load_snap_buffer(text);
  ASSERT_TRUE(r.loaded.declared_nodes.has_value());
  EXPECT_EQ(*r.loaded.declared_nodes, 6u);  // last header wins
  EXPECT_EQ(r.loaded.comments.size(), 4u);
}

TEST(IngestDeterminism, DuplicatesAndSelfLoops) {
  const std::string text = "1 2\n2 1\n1 2\n3 3\n2 3\n";
  expect_parallel_matches_serial(text);
  const IngestResult r = load_snap_buffer(text);
  EXPECT_EQ(r.loaded.graph.num_edges(), 2u);
  EXPECT_EQ(r.stats.duplicate_edges, 2u);
  EXPECT_EQ(r.stats.self_loops, 1u);
}

TEST(IngestDeterminism, EmptyAndAllCommentFiles) {
  expect_parallel_matches_serial("");
  expect_parallel_matches_serial("# only\n# comments\n\n");
  const IngestResult r = load_snap_buffer("# only\n# comments\n\n");
  EXPECT_EQ(r.loaded.graph.num_vertices(), 0u);
  EXPECT_EQ(r.loaded.comments.size(), 2u);
  EXPECT_EQ(r.stats.lines, 3u);
}

TEST(IngestErrors, MalformedLineReportsGlobalLineNumber) {
  // The bad line sits deep enough that with tiny chunks it lands in a
  // late chunk; the reported number must still be global, and the whole
  // message must equal the serial loader's.
  std::string text;
  for (int i = 0; i < 100; ++i)
    text += std::to_string(i) + " " + std::to_string(i + 1) + "\n";
  text += "not numbers\n";

  std::string serial_message;
  try {
    serial_reference(text);
    FAIL() << "serial loader accepted the malformed line";
  } catch (const lgg::Error& e) {
    serial_message = e.what();
  }
  EXPECT_NE(serial_message.find("malformed line 101"), std::string::npos);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    IngestOptions opts;
    opts.threads = threads;
    opts.chunk_bytes = 16;
    try {
      load_snap_buffer(text, opts);
      FAIL() << "parallel loader accepted the malformed line";
    } catch (const lgg::Error& e) {
      EXPECT_EQ(std::string(e.what()), serial_message);
    }
  }
}

TEST(IngestErrors, FirstMalformedLineWinsAcrossChunks) {
  IngestOptions opts;
  opts.threads = 8;
  opts.chunk_bytes = 4;  // both bad lines parse in different chunks
  try {
    load_snap_buffer("1 2\nbad early\n3 4\nbad late\n", opts);
    FAIL() << "malformed input accepted";
  } catch (const lgg::Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2: 'bad early'"),
              std::string::npos);
  }
}

TEST(IngestFile, LoadsWhatItWrites) {
  const Graph g = graph::gnm(200, 900, 5);
  const std::string path = testutil::temp_path("gnm.txt");
  graph::write_snap_edge_list_file(path, g, "ingest file test");

  const LoadedGraph want = graph::read_snap_edge_list_file(path);
  IngestOptions opts;
  opts.threads = 4;
  const IngestResult got = load_snap_file(path, opts);
  expect_identical(got.loaded, want);
  EXPECT_GT(got.stats.bytes, 0u);
  EXPECT_EQ(got.stats.edge_lines, g.num_edges());
  EXPECT_THROW(load_snap_file("/nonexistent/graph.txt"), lgg::Error);
}

TEST(IngestCsr, MatchesFromEdgesIncludingErrors) {
  const std::vector<graph::Edge> edges = {{0, 1}, {1, 2}, {2, 0}, {2, 0},
                                          {3, 3}, {1, 3}};
  const Graph want = Graph::from_edges(5, edges);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    const Graph got = build_csr_parallel(5, edges, &pool);
    EXPECT_EQ(graph::graph_digest(got), graph::graph_digest(want));
  }
  const Graph serial_path = build_csr_parallel(5, edges, nullptr);
  EXPECT_EQ(graph::graph_digest(serial_path), graph::graph_digest(want));

  // Out-of-range endpoints must throw the exact from_edges message.
  const std::vector<graph::Edge> bad = {{0, 1}, {9, 1}, {8, 0}};
  std::string want_message;
  try {
    Graph::from_edges(3, bad);
    FAIL() << "from_edges accepted an out-of-range edge";
  } catch (const lgg::Error& e) {
    want_message = e.what();
  }
  ThreadPool pool(4);
  try {
    build_csr_parallel(3, bad, &pool);
    FAIL() << "build_csr_parallel accepted an out-of-range edge";
  } catch (const lgg::Error& e) {
    EXPECT_EQ(std::string(e.what()), want_message);
  }
}

TEST(Orient, TriangleCountMatchesForward) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Graph g = graph::gnm(300, 2400, seed);
    const std::uint64_t want = core::count_triangles_forward(g);
    const OrientedGraph serial = orient_by_degree(g, nullptr);
    EXPECT_EQ(count_triangles_oriented(serial, nullptr), want);
    ThreadPool pool(4);
    const OrientedGraph parallel = orient_by_degree(g, &pool);
    ASSERT_EQ(parallel.offsets, serial.offsets);
    ASSERT_EQ(parallel.targets, serial.targets);
    EXPECT_EQ(count_triangles_oriented(parallel, &pool), want);
  }
}

TEST(Orient, OutDegreeIsBounded) {
  // Degree-ordered orientation bounds out-degrees by O(sqrt(2m)) even on
  // a star, where the natural orientation has a degree-n hub.
  const Graph star = graph::star(500);
  const OrientedGraph og = orient_by_degree(star, nullptr);
  EXPECT_EQ(og.num_arcs(), star.num_edges());
  // Every leaf has degree 1 < hub degree, so all arcs point at the hub.
  EXPECT_LE(og.max_out_degree, 1u);
  EXPECT_EQ(count_triangles_oriented(og, nullptr), 0u);
}

TEST(IngestDigest, DistinguishesLoadedGraphFields) {
  const std::string base = "# c\n1 2\n2 3\n";
  const auto digest_of = [](const std::string& text) {
    return graph::loaded_graph_digest(load_snap_buffer(text).loaded);
  };
  EXPECT_NE(digest_of(base), digest_of("# d\n1 2\n2 3\n"));  // comment text
  EXPECT_NE(digest_of(base), digest_of("# c\n5 2\n2 3\n"));  // original ids
  EXPECT_NE(digest_of(base), digest_of("# c\n# Nodes: 3\n1 2\n2 3\n"));
  EXPECT_EQ(digest_of(base), digest_of(base));
}

}  // namespace
}  // namespace lgg::ingest
