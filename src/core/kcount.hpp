// Counting problems of size k (paper Section III, extending [5]):
// k-cliques and connected induced subgraphs of size k.  Each problem has
// an efficient direct oracle plus a paper-style counter that walks
// BFS-level windows with combination generation, so tests can prove the
// level-restriction arguments:
//
//  * a k-clique spans at most TWO adjacent BFS levels (mutually adjacent
//    vertices differ by at most one level) — same windowing as triangles;
//  * a connected subgraph of size k spans at most k consecutive levels.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"

namespace lgg::core {

/// Number of k-cliques, by ordered backtracking over sorted neighbour
/// lists (exact, efficient oracle).  k >= 1; k == 3 equals the triangle
/// count.
std::uint64_t count_kcliques(const graph::Graph& g, std::uint32_t k);

/// Paper-style k-clique counter: per component, per adjacent level set,
/// enumerate k-combinations with >= 1 vertex in the first level (plus the
/// within-last-level combinations), testing all C(k,2) edges.
/// Exponential in window size — intended for the correctness argument and
/// modest graphs.
std::uint64_t count_kcliques_als(const graph::Graph& g, std::uint32_t k);

/// Number of connected induced subgraphs on exactly k vertices, via the
/// ESU (FANMOD) enumeration — exact oracle.
std::uint64_t count_connected_subgraphs(const graph::Graph& g,
                                        std::uint32_t k);

/// Paper-style connected-subgraph counter: enumerate k-combinations inside
/// every window of k consecutive BFS levels whose minimum-level vertex
/// lies in the window's first level, then test connectivity of the induced
/// subgraph.  Exponential in window size.
std::uint64_t count_connected_subgraphs_als(const graph::Graph& g,
                                            std::uint32_t k);

}  // namespace lgg::core
