#include "graph/chunking.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace lgg::graph {

std::uint64_t chunk_bits(std::uint64_t c, SizeMetric metric) noexcept {
  switch (metric) {
    case SizeMetric::kAdjacencyMatrix:
      return c * c;
    case SizeMetric::kSutm:
      return c * (c - 1) / 2;
  }
  return c * c;  // unreachable
}

namespace {

/// Greedy split of one component's level decomposition into maximal runs of
/// consecutive levels whose footprint fits the budget; adjacent runs share
/// one boundary level.  A run that exceeds the budget even as a single
/// level-pair is emitted anyway (it will live in global memory).
std::vector<Chunk> greedy_split(const LevelDecomposition& levels,
                                std::uint32_t component,
                                const ChunkingOptions& opts) {
  std::vector<Chunk> chunks;
  const std::size_t d = levels.num_levels();
  LGG_ASSERT(d > 0);

  std::size_t lo = 0;
  while (lo < d) {
    // Take at least the pair (lo, lo+1) — ALS processing needs two
    // consecutive levels — even if that pair alone exceeds the budget;
    // then extend while the union still fits.
    std::size_t hi = lo;
    std::uint64_t count = levels.level(lo).size();
    if (hi + 1 < d) {
      ++hi;
      count += levels.level(hi).size();
    }
    while (hi + 1 < d) {
      const std::uint64_t next_count = count + levels.level(hi + 1).size();
      if (chunk_bits(next_count, opts.metric) > opts.shared_mem_bits) break;
      ++hi;
      count = next_count;
    }

    Chunk chunk;
    chunk.component = component;
    chunk.first_level = static_cast<std::uint32_t>(lo);
    chunk.last_level = static_cast<std::uint32_t>(hi);
    for (std::size_t l = lo; l <= hi; ++l) {
      const auto lvl = levels.level(l);
      chunk.vertices.insert(chunk.vertices.end(), lvl.begin(), lvl.end());
    }
    std::sort(chunk.vertices.begin(), chunk.vertices.end());
    chunk.bits = chunk_bits(chunk.vertices.size(), opts.metric);
    chunk.fits_shared = chunk.bits <= opts.shared_mem_bits;
    chunks.push_back(std::move(chunk));

    if (hi + 1 >= d) break;
    lo = hi;  // overlap: next chunk starts at this chunk's last level
  }
  return chunks;
}

struct Split {
  std::vector<Chunk> chunks;
  BfsTree tree;
  std::size_t oversized = 0;
  std::uint64_t fragmentation = 0;
};

Split try_split(const Graph& g, Vertex root, std::uint32_t component,
                const ChunkingOptions& opts) {
  Split s;
  s.tree = bfs(g, root);
  const LevelDecomposition levels(s.tree);
  s.chunks = greedy_split(levels, component, opts);
  for (const auto& chunk : s.chunks) {
    if (!chunk.fits_shared)
      ++s.oversized;
    else
      s.fragmentation += opts.shared_mem_bits - chunk.bits;
  }
  return s;
}

}  // namespace

ChunkingResult split_into_chunks(const Graph& g, const ChunkingOptions& opts) {
  LGG_CHECK(opts.shared_mem_bits > 0, "shared_mem_bits must be positive");
  LGG_CHECK(opts.max_start_trials > 0, "max_start_trials must be positive");

  ChunkingResult result;
  const Components comps = connected_components(g);
  result.trees.resize(comps.count);

  for (std::uint32_t c = 0; c < comps.count; ++c) {
    const std::vector<Vertex> members = comps.vertices_of(c);
    LGG_ASSERT(!members.empty());

    // Whole-component footprint check first (the "CCi fits" fast path).
    const std::uint64_t whole = chunk_bits(members.size(), opts.metric);
    if (whole <= opts.shared_mem_bits) {
      result.trees[c] = bfs(g, members.front());
      Chunk chunk;
      chunk.component = c;
      chunk.first_level = 0;
      chunk.last_level = result.trees[c].depth;
      chunk.vertices = members;
      chunk.bits = whole;
      chunk.fits_shared = true;
      result.fragmentation_bits += opts.shared_mem_bits - whole;
      result.chunks.push_back(std::move(chunk));
      continue;
    }

    // Try several BFS roots, keep the best split per Eq. 5 + fragmentation.
    const std::size_t trials = std::min(opts.max_start_trials, members.size());
    Split best;
    bool have_best = false;
    for (std::size_t t = 0; t < trials; ++t) {
      // Spread trial roots across the component deterministically.
      const Vertex root = members[t * members.size() / trials];
      Split s = try_split(g, root, c, opts);
      const bool better =
          !have_best || s.oversized < best.oversized ||
          (s.oversized == best.oversized &&
           s.fragmentation < best.fragmentation);
      if (better) {
        best = std::move(s);
        have_best = true;
      }
      if (have_best && best.oversized == 0) break;  // cannot improve Eq. 5
    }
    LGG_ASSERT(have_best);
    result.trees[c] = std::move(best.tree);
    result.oversized_chunks += best.oversized;
    result.fragmentation_bits += best.fragmentation;
    for (auto& chunk : best.chunks) result.chunks.push_back(std::move(chunk));
  }
  return result;
}

}  // namespace lgg::graph
