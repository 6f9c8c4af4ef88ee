// The adjacent-level-set (ALS) work plan shared by the CPU and GPU
// triangle counters (paper Algorithm 2 + Section VIII).
//
// Test-space construction.  For one ALS with first level A (|A| = a) and
// second level B (|B| = b), put the vertices in local order A then B,
// s = a + b.  A combination {x < y < z} of local ids contains >= 1 vertex
// of A exactly when x < a, so Algorithm 2's three GenNxtComb families
// (firstLvl / bothLvls / secondLvl-on-last) collapse into one clean space:
//
//     tests = { (x, y, z) : 0 <= x < x_max, x < y < z < s }
//     x_max = s - 2              for the component's last ALS
//           = min(a, s - 2)      otherwise
//
// Every triangle of G is counted exactly once: a triangle's lowest BFS
// level i puts it in ALS_i with its minimum local id inside A, except
// triangles entirely inside the last level, which the widened x_max of the
// final ALS picks up.  Index <-> (x, y, z) conversion is closed-form
// (hockey-stick identity), which is what lets simulated GPU threads jump
// straight to their work range — the Section VIII-D strategy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/graph.hpp"

namespace lgg::core {

/// One ALS turned into a flat triangle-test space.
struct AlsJob {
  std::uint32_t component = 0;
  std::uint32_t first_level = 0;
  std::vector<graph::Vertex> local_to_global;  // A's vertices, then B's
  std::uint32_t a = 0;      // |A|
  std::uint32_t s = 0;      // |A| + |B|
  std::uint32_t x_max = 0;  // first-element bound (see header comment)
  std::uint64_t tests = 0;  // total tests in this job
  std::uint64_t test_offset = 0;  // prefix sum over the whole plan
};

/// The full plan: every ALS of every connected component.
struct AlsPlan {
  std::vector<AlsJob> jobs;
  std::uint64_t total_tests = 0;
  std::size_t num_components = 0;
  std::uint64_t bfs_edges_visited = 0;  // preprocessing cost (Algorithm 1)
};

/// Build the plan: take each component's BFS levels (from its smallest
/// vertex, as graph::connected_components walks them), form the ALS
/// sequence, compute test counts and offsets.  Jobs with fewer than three
/// vertices are kept (tests == 0) so job indices match ALS indices.
AlsPlan build_als_plan(const graph::Graph& g);

/// Append the ALS jobs of consecutive levels [first, last] of one
/// component: (L_i, L_{i+1}) for i in [first, last), the job reaching the
/// last level widened to x_max = s - 2.  Offsets continue from
/// `total_tests`, which is advanced.  [0, num_levels - 1] is a whole
/// component, a chunk's range its owned work.  Defined for
/// graph::ComponentLevels and graph::LevelDecomposition.
template <class Levels>
void append_als_jobs(std::uint32_t component, const Levels& levels,
                     std::uint32_t first, std::uint32_t last,
                     std::vector<AlsJob>& jobs, std::uint64_t& total_tests);

/// Number of tests with first local id x: C(s-1-x, 2).
std::uint64_t als_tests_for_x(std::uint32_t s, std::uint32_t x) noexcept;

/// Total tests for bounds (s, x_max): C(s,3) - C(s-x_max,3).
std::uint64_t als_total_tests(std::uint32_t s, std::uint32_t x_max) noexcept;

/// Decode a flat local test index into (x, y, z), 0-based local ids,
/// x < y < z < s, using binary search on x plus a closed-form pair unrank.
/// O(log s).  Inverse of als_test_index.
struct TestTriple {
  std::uint32_t x = 0, y = 0, z = 0;
};
TestTriple als_decode_test(const AlsJob& job, std::uint64_t local_index);

/// Encode (x, y, z) back to the flat local index (property-test inverse).
std::uint64_t als_test_index(const AlsJob& job, const TestTriple& t);

/// Advance a decoded triple to the next test in index order without a full
/// decode (z, then y, then x).  Returns false past the last test.
bool als_advance_test(const AlsJob& job, TestTriple& t) noexcept;

/// Strided walk over the flat test space of consecutive jobs (an AlsPlan's,
/// or a chunk's with chunk-relative offsets): visits first, first + stride,
/// first + 2*stride, ... up to the end of the last job.  This is Section
/// VIII-D's "unrank the first combination once, then step": the cursor
/// decodes (job lookup + als_decode_test) only at construction and on
/// entering another job.  Inside a job a step hops z-rows of length s-1-y;
/// a step that runs out of rows skips whole x blocks of C(s-1-x, 2) tests
/// and unranks the landing pair, with no binomial search.  Each visited
/// triple equals als_decode_test(job, local index).
class StridedTestCursor {
 public:
  /// `jobs` must outlive the cursor; their test_offsets must be prefix sums
  /// starting at 0.  A `first` past the end gives a cursor that is done().
  StridedTestCursor(std::span<const AlsJob> jobs, std::uint64_t first,
                    std::uint64_t stride);

  /// True once the walk has left the last job.
  [[nodiscard]] bool done() const noexcept { return job_ == jobs_.size(); }
  [[nodiscard]] std::size_t job_index() const noexcept { return job_; }
  [[nodiscard]] const AlsJob& job() const noexcept { return jobs_[job_]; }
  [[nodiscard]] const TestTriple& triple() const noexcept { return t_; }

  /// Move `stride` tests forward.  Requires !done().
  void advance();

 private:
  void seek(std::uint64_t flat);

  std::span<const AlsJob> jobs_;
  std::uint64_t stride_;
  std::size_t job_ = 0;
  std::uint64_t local_ = 0;  // index within jobs_[job_]
  TestTriple t_{};
};

}  // namespace lgg::core
