#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "combi/binomial.hpp"
#include "core/als_plan.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace lgg::core {
namespace {

using combi::binomial;
using graph::Graph;

TEST(AlsCounts, ClosedFormsAgree) {
  for (std::uint32_t s = 3; s <= 40; ++s)
    for (std::uint32_t x_max = 1; x_max + 2 <= s; ++x_max) {
      std::uint64_t manual = 0;
      for (std::uint32_t x = 0; x < x_max; ++x)
        manual += als_tests_for_x(s, x);
      EXPECT_EQ(als_total_tests(s, x_max), manual)
          << "s=" << s << " x_max=" << x_max;
    }
}

TEST(AlsPlan, CompleteGraphSingleAls) {
  // K_n from any root: levels {root}, {rest} -> one ALS, last, covering
  // all C(n,3) tests.
  const Graph g = graph::complete(10);
  const AlsPlan plan = build_als_plan(g);
  ASSERT_EQ(plan.jobs.size(), 1u);
  EXPECT_EQ(plan.jobs[0].s, 10u);
  EXPECT_EQ(plan.jobs[0].a, 1u);
  EXPECT_EQ(plan.jobs[0].x_max, 8u);  // s - 2: last ALS widens the bound
  EXPECT_EQ(plan.total_tests, binomial(10, 3));
}

TEST(AlsPlan, PathPlanShape) {
  // Path 0-1-2-3-4: levels are singletons; ALS r = {r, r+1} has s=2 ->
  // zero tests each, but jobs still exist.
  const Graph g = graph::path(5);
  const AlsPlan plan = build_als_plan(g);
  EXPECT_EQ(plan.jobs.size(), 4u);
  EXPECT_EQ(plan.total_tests, 0u);
}

TEST(AlsPlan, IsolatedVerticesAreEmptyJobs) {
  const Graph g(3);
  const AlsPlan plan = build_als_plan(g);
  EXPECT_EQ(plan.num_components, 3u);
  EXPECT_EQ(plan.total_tests, 0u);
  for (const AlsJob& job : plan.jobs) EXPECT_EQ(job.tests, 0u);
}

TEST(AlsPlan, OffsetsArePrefixSums) {
  const Graph g = graph::erdos_renyi(80, 0.06, 3);
  const AlsPlan plan = build_als_plan(g);
  std::uint64_t expect = 0;
  for (const AlsJob& job : plan.jobs) {
    EXPECT_EQ(job.test_offset, expect);
    expect += job.tests;
  }
  EXPECT_EQ(plan.total_tests, expect);
}

TEST(AlsPlan, LocalVerticesAreFirstThenSecondLevel) {
  const Graph g = graph::star(6);  // root BFS: {0}, {1..5}
  const AlsPlan plan = build_als_plan(g);
  ASSERT_EQ(plan.jobs.size(), 1u);
  const AlsJob& job = plan.jobs[0];
  EXPECT_EQ(job.a, 1u);
  EXPECT_EQ(job.local_to_global[0], 0u);
  EXPECT_EQ(job.local_to_global.size(), 6u);
}

TEST(AlsDecode, RoundTripExhaustiveSmall) {
  AlsJob job;
  job.s = 9;
  job.a = 4;
  job.x_max = 4;
  job.tests = als_total_tests(job.s, job.x_max);
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> seen;
  for (std::uint64_t i = 0; i < job.tests; ++i) {
    const TestTriple t = als_decode_test(job, i);
    EXPECT_LT(t.x, t.y);
    EXPECT_LT(t.y, t.z);
    EXPECT_LT(t.z, job.s);
    EXPECT_LT(t.x, job.x_max);
    EXPECT_EQ(als_test_index(job, t), i);
    seen.insert({t.x, t.y, t.z});
  }
  EXPECT_EQ(seen.size(), job.tests);
}

TEST(AlsDecode, RoundTripLargeRandom) {
  AlsJob job;
  job.s = 50000;
  job.a = 20000;
  job.x_max = 20000;
  job.tests = als_total_tests(job.s, job.x_max);
  Xoshiro256 rng(12);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint64_t i = rng.uniform(job.tests);
    const TestTriple t = als_decode_test(job, i);
    EXPECT_EQ(als_test_index(job, t), i);
  }
}

TEST(AlsDecode, OutOfRangeThrows) {
  AlsJob job;
  job.s = 5;
  job.a = 2;
  job.x_max = 2;
  job.tests = als_total_tests(5, 2);
  EXPECT_THROW(als_decode_test(job, job.tests), lgg::Error);
}

TEST(AlsAdvance, MatchesDecodeSequence) {
  AlsJob job;
  job.s = 12;
  job.a = 5;
  job.x_max = 5;
  job.tests = als_total_tests(job.s, job.x_max);
  TestTriple t = als_decode_test(job, 0);
  for (std::uint64_t i = 1; i < job.tests; ++i) {
    ASSERT_TRUE(als_advance_test(job, t)) << "i=" << i;
    const TestTriple want = als_decode_test(job, i);
    EXPECT_EQ(t.x, want.x);
    EXPECT_EQ(t.y, want.y);
    EXPECT_EQ(t.z, want.z);
  }
  EXPECT_FALSE(als_advance_test(job, t));
}

/// Jobs with random (s, a, is_last), zero-test jobs included, laid out
/// with prefix-sum offsets like an AlsPlan or a multi-job chunk.
std::vector<AlsJob> random_jobs(Xoshiro256& rng, std::size_t count) {
  std::vector<AlsJob> jobs(count);
  std::uint64_t offset = 0;
  for (AlsJob& job : jobs) {
    job.s = static_cast<std::uint32_t>(rng.uniform(31));  // 0..30
    job.a = static_cast<std::uint32_t>(rng.uniform(job.s + 1));
    const bool is_last = rng.uniform(4) == 0;
    if (job.s >= 3) {
      job.x_max = is_last ? job.s - 2 : std::min(job.a, job.s - 2);
      job.tests = als_total_tests(job.s, job.x_max);
    }
    job.test_offset = offset;
    offset += job.tests;
  }
  return jobs;
}

TEST(StridedCursor, EveryStepMatchesDecode) {
  Xoshiro256 rng(2013);
  for (int trial = 0; trial < 40; ++trial) {
    const std::vector<AlsJob> jobs = random_jobs(rng, 1 + rng.uniform(6));
    // Reference: (job, local) of every flat index.
    std::vector<std::pair<std::size_t, std::uint64_t>> where;
    for (std::size_t j = 0; j < jobs.size(); ++j)
      for (std::uint64_t l = 0; l < jobs[j].tests; ++l) where.push_back({j, l});
    const std::uint64_t total = where.size();
    for (const std::uint64_t stride : {1u, 32u, 128u, 1024u}) {
      for (std::uint64_t start = 0; start < stride; ++start) {
        StridedTestCursor cursor(jobs, start, stride);
        std::uint64_t flat = start;
        for (; flat < total; flat += stride, cursor.advance()) {
          ASSERT_FALSE(cursor.done())
              << "trial " << trial << " stride " << stride << " flat " << flat;
          const auto [j, local] = where[flat];
          const TestTriple want = als_decode_test(jobs[j], local);
          const TestTriple& got = cursor.triple();
          ASSERT_EQ(cursor.job_index(), j) << "flat " << flat;
          ASSERT_EQ(std::tie(got.x, got.y, got.z),
                    std::tie(want.x, want.y, want.z))
              << "trial " << trial << " stride " << stride << " start "
              << start << " flat " << flat;
        }
        // Stops exactly at the end of the plan.
        EXPECT_TRUE(cursor.done()) << "trial " << trial << " stride "
                                   << stride << " start " << start;
      }
    }
  }
}

TEST(StridedCursor, LargeJobStridesAcrossXBlocks) {
  AlsJob job;
  job.s = 160;
  job.a = 60;
  job.x_max = 60;
  job.tests = als_total_tests(job.s, job.x_max);
  for (const std::uint64_t stride : {1u, 7u, 128u, 1024u, 40000u}) {
    StridedTestCursor cursor(std::span<const AlsJob>(&job, 1), stride / 2,
                             stride);
    std::uint64_t flat = stride / 2;
    for (; flat < job.tests; flat += stride, cursor.advance()) {
      const TestTriple want = als_decode_test(job, flat);
      ASSERT_EQ(std::tie(cursor.triple().x, cursor.triple().y,
                         cursor.triple().z),
                std::tie(want.x, want.y, want.z))
          << "stride " << stride << " flat " << flat;
    }
    EXPECT_TRUE(cursor.done());
  }
}

TEST(StridedCursor, EmptyAndPastEndAreDone) {
  EXPECT_TRUE(StridedTestCursor({}, 0, 1).done());
  Xoshiro256 rng(5);
  const std::vector<AlsJob> jobs = random_jobs(rng, 4);
  const std::uint64_t total = jobs.back().test_offset + jobs.back().tests;
  EXPECT_TRUE(StridedTestCursor(jobs, total, 32).done());
  EXPECT_THROW(StridedTestCursor(jobs, 0, 0), lgg::Error);
}

TEST(AlsPlan, DisconnectedComponentsAllPlanned) {
  const Graph g =
      graph::disjoint_union(graph::complete(5), graph::complete(4));
  const AlsPlan plan = build_als_plan(g);
  EXPECT_EQ(plan.num_components, 2u);
  EXPECT_EQ(plan.total_tests, binomial(5, 3) + binomial(4, 3));
}

TEST(AlsPlan, BfsEdgeAccounting) {
  const Graph g = graph::cycle(10);
  const AlsPlan plan = build_als_plan(g);
  EXPECT_EQ(plan.bfs_edges_visited, 2 * g.num_edges());
}

TEST(AlsPlan, PairsShareBoundaryLevel) {
  // Path 0-1-2-3-4: levels {0},{1},{2},{3},{4} -> ALS (L_i, L_{i+1}) for
  // i = 0..3; consecutive jobs share a level.
  const AlsPlan plan = build_als_plan(graph::path(5));
  ASSERT_EQ(plan.jobs.size(), 4u);
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    const AlsJob& job = plan.jobs[i];
    EXPECT_EQ(job.first_level, i);
    EXPECT_EQ(job.a, 1u);
    EXPECT_EQ(job.s, 2u);
    EXPECT_EQ(job.local_to_global, (std::vector<graph::Vertex>{
                                       static_cast<graph::Vertex>(i),
                                       static_cast<graph::Vertex>(i + 1)}));
    if (i > 0) {  // this job's first level is the previous job's second
      const AlsJob& prev = plan.jobs[i - 1];
      EXPECT_EQ(job.local_to_global[0], prev.local_to_global[prev.a]);
    }
  }
  // Only the component's last ALS widens x_max to s - 2.  Levels {0},
  // {1,2,3}, {4,5,6}: the first ALS keeps x_max = min(a, s - 2) = 1, the
  // last one covers x < s - 2 = 4.
  const Graph broom = Graph::from_edges(
      7, std::vector<graph::Edge>{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {1, 5},
                                  {1, 6}});
  const AlsPlan two = build_als_plan(broom);
  ASSERT_EQ(two.jobs.size(), 2u);
  EXPECT_EQ(two.jobs[0].x_max, 1u);
  EXPECT_EQ(two.jobs[1].a, 3u);
  EXPECT_EQ(two.jobs[1].x_max, 4u);
}

TEST(AlsPlan, SingleLevelComponentIsOneWidenedJob) {
  const AlsPlan plan = build_als_plan(Graph(4));  // four isolated vertices
  ASSERT_EQ(plan.jobs.size(), 4u);
  for (std::uint32_t c = 0; c < 4; ++c) {
    const AlsJob& job = plan.jobs[c];
    EXPECT_EQ(job.component, c);
    EXPECT_EQ(job.first_level, 0u);
    EXPECT_EQ(job.local_to_global, std::vector<graph::Vertex>{c});
    EXPECT_EQ(job.a, 1u);
    EXPECT_EQ(job.s, 1u);
  }
  // A level run of one is one job over that level alone, widened as the
  // component's last.
  const std::vector<graph::Vertex> vertices{2, 5, 7, 9};
  const std::vector<std::size_t> bounds{0, 4};
  std::vector<AlsJob> jobs;
  std::uint64_t total = 10;
  append_als_jobs(3, graph::ComponentLevels{vertices, bounds}, 0, 0, jobs,
                  total);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].local_to_global, (std::vector<graph::Vertex>{2, 5, 7, 9}));
  EXPECT_EQ(jobs[0].a, 4u);
  EXPECT_EQ(jobs[0].x_max, 2u);
  EXPECT_EQ(jobs[0].tests, binomial(4, 3));
  EXPECT_EQ(jobs[0].test_offset, 10u);
  EXPECT_EQ(total, 10 + binomial(4, 3));
}

TEST(AlsPlan, JobsCoverEveryVertex) {
  const Graph g = graph::erdos_renyi(90, 0.04, 5);
  const AlsPlan plan = build_als_plan(g);
  std::vector<bool> seen(g.num_vertices(), false);
  for (const AlsJob& job : plan.jobs)
    for (const graph::Vertex v : job.local_to_global) seen[v] = true;
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v)
    EXPECT_TRUE(seen[v]) << "vertex " << v;
}

}  // namespace
}  // namespace lgg::core
