#include "core/als_plan.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "combi/binomial.hpp"
#include "util/error.hpp"

namespace lgg::core {

using combi::binomial;

std::uint64_t als_tests_for_x(std::uint32_t s, std::uint32_t x) noexcept {
  return binomial(s - 1 - x, 2);
}

std::uint64_t als_total_tests(std::uint32_t s, std::uint32_t x_max) noexcept {
  // Hockey stick: sum_{x=0}^{x_max-1} C(s-1-x, 2) = C(s,3) - C(s-x_max,3).
  return binomial(s, 3) - binomial(s - x_max, 3);
}

template <class Levels>
void append_als_jobs(std::uint32_t component, const Levels& levels,
                     std::uint32_t first, std::uint32_t last,
                     std::vector<AlsJob>& jobs, std::uint64_t& total_tests) {
  const std::size_t depth = levels.num_levels();
  LGG_ASSERT(first <= last && last < depth);
  // One job per first level in [first, last); a one-level run, which only
  // a one-level component has, is one job over that level.
  for (std::uint32_t l = first; l == first || l < last; ++l) {
    const auto lvl_a = levels.level(l);
    const auto lvl_b = l + 1 < depth ? levels.level(l + 1)
                                     : std::span<const graph::Vertex>{};
    AlsJob job;
    job.component = component;
    job.first_level = l;
    job.local_to_global.reserve(lvl_a.size() + lvl_b.size());
    job.local_to_global.insert(job.local_to_global.end(), lvl_a.begin(),
                               lvl_a.end());
    job.local_to_global.insert(job.local_to_global.end(), lvl_b.begin(),
                               lvl_b.end());
    job.a = static_cast<std::uint32_t>(lvl_a.size());
    job.s = static_cast<std::uint32_t>(job.local_to_global.size());
    if (job.s >= 3) {
      const bool is_last = l + 2 >= depth;  // L_{l+1} is the last level
      job.x_max = is_last ? job.s - 2 : std::min(job.a, job.s - 2);
      job.tests = als_total_tests(job.s, job.x_max);
    }
    job.test_offset = total_tests;
    LGG_CHECK(job.tests != combi::kBinomialOverflow &&
                  total_tests <= ~std::uint64_t{0} - job.tests,
              "ALS test count overflows 64 bits");
    total_tests += job.tests;
    jobs.push_back(std::move(job));
  }
}

template void append_als_jobs(std::uint32_t, const graph::ComponentLevels&,
                              std::uint32_t, std::uint32_t,
                              std::vector<AlsJob>&, std::uint64_t&);
template void append_als_jobs(std::uint32_t, const graph::LevelDecomposition&,
                              std::uint32_t, std::uint32_t,
                              std::vector<AlsJob>&, std::uint64_t&);

AlsPlan build_als_plan(const graph::Graph& g) {
  AlsPlan plan;
  const graph::Components comps = graph::connected_components(g);
  plan.num_components = comps.count;
  // BFS touches each component edge twice plus each vertex once.
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v)
    plan.bfs_edges_visited += g.degree(v);
  for (std::uint32_t c = 0; c < comps.count; ++c) {
    const graph::ComponentLevels levels = comps.levels(c);
    const auto last = static_cast<std::uint32_t>(levels.num_levels() - 1);
    append_als_jobs(c, levels, 0, last, plan.jobs, plan.total_tests);
  }
  return plan;
}

namespace {

/// Unrank a 2-combination of [0, m) from its lexicographic index:
/// pairs with first element f occupy a block of (m - 1 - f) indices.
/// Closed-form via the quadratic formula, with integer fix-up.
void unrank_pair(std::uint64_t index, std::uint32_t m, std::uint32_t& first,
                 std::uint32_t& second) {
  // cumulative(f) = sum_{t<f} (m-1-t) = f*m - f(f+1)/2; find the largest f
  // with cumulative(f) <= index.
  const double mf = static_cast<double>(m);
  const double disc = (2.0 * mf - 1.0) * (2.0 * mf - 1.0) -
                      8.0 * static_cast<double>(index);
  auto f = static_cast<std::int64_t>(
      (2.0 * mf - 1.0 - std::sqrt(std::max(disc, 0.0))) / 2.0);
  f = std::max<std::int64_t>(f - 2, 0);
  auto cumulative = [m](std::uint64_t t) {
    return t * m - t * (t + 1) / 2;
  };
  while (f + 1 < m && cumulative(static_cast<std::uint64_t>(f + 1)) <= index)
    ++f;
  first = static_cast<std::uint32_t>(f);
  second = static_cast<std::uint32_t>(
      f + 1 +
      (index - cumulative(static_cast<std::uint64_t>(f))));
}

}  // namespace

TestTriple als_decode_test(const AlsJob& job, std::uint64_t local_index) {
  LGG_CHECK(local_index < job.tests,
            "als_decode_test: index " << local_index << " >= " << job.tests);
  // cumulative(x) = C(s,3) - C(s-x,3); binary search the largest x with
  // cumulative(x) <= local_index.
  const std::uint64_t c_s3 = binomial(job.s, 3);
  std::uint32_t lo = 0, hi = job.x_max;  // invariant: cum(lo) <= idx < cum(hi)
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const std::uint64_t cum = c_s3 - binomial(job.s - mid, 3);
    if (cum <= local_index)
      lo = mid;
    else
      hi = mid;
  }
  TestTriple t;
  t.x = lo;
  const std::uint64_t before = c_s3 - binomial(job.s - lo, 3);
  const std::uint64_t pair_index = local_index - before;

  // (y, z) is the pair_index-th 2-combination of (x, s) — shift by x+1.
  std::uint32_t first = 0, second = 0;
  unrank_pair(pair_index, job.s - 1 - t.x, first, second);
  t.y = t.x + 1 + first;
  t.z = t.x + 1 + second;
  return t;
}

std::uint64_t als_test_index(const AlsJob& job, const TestTriple& t) {
  LGG_CHECK(t.x < t.y && t.y < t.z && t.z < job.s && t.x < job.x_max,
            "als_test_index: invalid triple (" << t.x << "," << t.y << ","
                                               << t.z << ") for s=" << job.s
                                               << " x_max=" << job.x_max);
  const std::uint64_t before = binomial(job.s, 3) - binomial(job.s - t.x, 3);
  const std::uint32_t m = job.s - 1 - t.x;  // pair domain size
  const std::uint64_t f = t.y - t.x - 1;
  const std::uint64_t pair_index =
      f * m - f * (f + 1) / 2 + (t.z - t.y - 1);
  return before + pair_index;
}

bool als_advance_test(const AlsJob& job, TestTriple& t) noexcept {
  if (t.z + 1 < job.s) {
    ++t.z;
    return true;
  }
  if (t.y + 2 < job.s) {
    ++t.y;
    t.z = t.y + 1;
    return true;
  }
  if (t.x + 1 < job.x_max && t.x + 3 < job.s + 0u) {
    ++t.x;
    t.y = t.x + 1;
    t.z = t.x + 2;
    return true;
  }
  return false;
}

StridedTestCursor::StridedTestCursor(std::span<const AlsJob> jobs,
                                     std::uint64_t first, std::uint64_t stride)
    : jobs_(jobs), stride_(stride) {
  LGG_CHECK(stride > 0, "StridedTestCursor: stride must be positive");
  seek(first);
}

void StridedTestCursor::seek(std::uint64_t flat) {
  // Last job at or after the current one with test_offset <= flat; that
  // job covers flat whenever flat is inside the plan (zero-test jobs have
  // empty intervals and are skipped by the same rule).
  const auto it = std::upper_bound(
      jobs_.begin() + static_cast<std::ptrdiff_t>(job_), jobs_.end(), flat,
      [](std::uint64_t f, const AlsJob& j) { return f < j.test_offset; });
  if (it == jobs_.begin() + static_cast<std::ptrdiff_t>(job_) ||
      flat - std::prev(it)->test_offset >= std::prev(it)->tests) {
    job_ = jobs_.size();  // past the last test
    return;
  }
  job_ = static_cast<std::size_t>(std::prev(it) - jobs_.begin());
  local_ = flat - jobs_[job_].test_offset;
  t_ = als_decode_test(jobs_[job_], local_);
}

void StridedTestCursor::advance() {
  LGG_ASSERT(!done());
  const AlsJob& job = jobs_[job_];
  if (stride_ >= job.tests - local_) {
    seek(job.test_offset + local_ + stride_);
    return;
  }
  local_ += stride_;
  // Hop whole z-rows: from (y, z) the next row's first test (y+1, y+2) is
  // s - z steps away.
  std::uint64_t rest = stride_;
  while (rest >= job.s - t_.z) {
    rest -= job.s - t_.z;
    ++t_.y;
    t_.z = t_.y + 1;
    if (t_.z == job.s) {
      // Out of rows: `rest` steps past the first test of x block x+1.  Skip
      // whole blocks (block x holds C(s-1-x, 2) pairs), then unrank the
      // pair exactly as als_decode_test does.  The job still covers
      // local_, so the walk stops inside a block below x_max.
      ++t_.x;
      std::uint32_t m = job.s - 1 - t_.x;
      while (rest >= std::uint64_t{m} * (m - 1) / 2) {
        rest -= std::uint64_t{m} * (m - 1) / 2;
        ++t_.x;
        --m;
      }
      std::uint32_t first = 0, second = 0;
      unrank_pair(rest, m, first, second);
      t_.y = t_.x + 1 + first;
      t_.z = t_.x + 1 + second;
      return;
    }
  }
  t_.z += static_cast<std::uint32_t>(rest);
}

}  // namespace lgg::core
