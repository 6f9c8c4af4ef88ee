#include "core/subgraph_gpu.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <span>
#include <utility>

#include "combi/binomial.hpp"
#include "combi/combinadic.hpp"
#include "combi/strategies.hpp"
#include "graph/bfs.hpp"
#include "gpusim/calibration.hpp"
#include "gpusim/executor.hpp"
#include "gpusim/memory.hpp"
#include "util/error.hpp"

namespace lgg::core {

namespace cal = gpusim::calibration;
using combi::binomial;
using graph::Graph;
using graph::Vertex;

namespace {

/// One BFS-level window turned into a flat candidate space: choose the
/// first (minimum) local id x < x_max, then a (k-1)-combination above it.
struct WindowJob {
  std::vector<Vertex> locals;  // window levels concatenated, level-major
  std::uint32_t s = 0;
  std::uint32_t x_max = 0;
  std::uint64_t tests = 0;
  std::uint64_t offset = 0;  // prefix sum over all windows
};

std::uint64_t window_tests(std::uint32_t s, std::uint32_t x_max,
                           std::uint32_t k) {
  // Hockey stick: sum_{x < x_max} C(s-1-x, k-1) = C(s, k) - C(s-x_max, k).
  const std::uint64_t all = binomial(s, k);
  LGG_CHECK(all != combi::kBinomialOverflow,
            "window candidate count overflows 64 bits");
  return all - binomial(s - x_max, k);
}

std::vector<WindowJob> build_windows(const Graph& g,
                                     std::uint32_t window_levels,
                                     std::uint32_t k,
                                     std::uint64_t& total_tests) {
  std::vector<WindowJob> windows;
  total_tests = 0;
  const graph::Components comps = graph::connected_components(g);
  for (std::uint32_t c = 0; c < comps.count; ++c) {
    const auto members = comps.vertices_of(c);
    const graph::BfsTree tree = graph::bfs(g, members.front());
    const graph::LevelDecomposition levels(tree);
    const std::size_t d = levels.num_levels();
    for (std::size_t i = 0; i < d; ++i) {
      WindowJob w;
      const std::size_t last = std::min(d - 1, i + window_levels - 1);
      for (std::size_t l = i; l <= last; ++l) {
        const auto lvl = levels.level(l);
        w.locals.insert(w.locals.end(), lvl.begin(), lvl.end());
      }
      w.s = static_cast<std::uint32_t>(w.locals.size());
      if (w.s >= k) {
        const auto a = static_cast<std::uint32_t>(levels.level(i).size());
        w.x_max = std::min(a, w.s - k + 1);
        w.tests = window_tests(w.s, w.x_max, k);
      }
      w.offset = total_tests;
      total_tests += w.tests;
      windows.push_back(std::move(w));
    }
  }
  return windows;
}

/// Decode a window-local candidate index into k strictly increasing local
/// ids (combo[0] < x_max).
void decode_candidate(const WindowJob& w, std::uint32_t k,
                      std::uint64_t index,
                      std::span<std::uint32_t> combo) {
  LGG_ASSERT(index < w.tests);
  const std::uint64_t c_sk = binomial(w.s, k);
  std::uint32_t lo = 0, hi = w.x_max;  // cum(lo) <= index < cum(hi)
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const std::uint64_t cum = c_sk - binomial(w.s - mid, k);
    if (cum <= index)
      lo = mid;
    else
      hi = mid;
  }
  combo[0] = lo;
  const std::uint64_t before = c_sk - binomial(w.s - lo, k);
  combi::combination_from_index(index - before, w.s - 1 - lo, k - 1,
                                combo.subspan(1));
  for (std::uint32_t j = 1; j < k; ++j) combo[j] += lo + 1;
}

const WindowJob& window_for(const std::vector<WindowJob>& windows,
                            std::uint64_t flat) {
  auto it = std::upper_bound(
      windows.begin(), windows.end(), flat,
      [](std::uint64_t f, const WindowJob& w) { return f < w.offset; });
  LGG_ASSERT(it != windows.begin());
  --it;
  LGG_ASSERT(flat - it->offset < it->tests);
  return *it;
}

bool induced_connected(const Graph& g, std::span<const Vertex> vs) {
  const std::size_t k = vs.size();
  if (k <= 1) return true;
  std::uint32_t seen_mask = 1;  // k <= 16 in practice; assert below
  LGG_ASSERT(k <= 16);
  std::uint32_t stack_mask = 1;
  std::size_t reached = 1;
  while (stack_mask != 0) {
    const auto i = static_cast<std::size_t>(
        std::countr_zero(stack_mask));
    stack_mask &= stack_mask - 1;
    for (std::size_t j = 0; j < k; ++j) {
      if (!(seen_mask >> j & 1) && g.has_edge(vs[i], vs[j])) {
        seen_mask |= 1u << j;
        stack_mask |= 1u << j;
        ++reached;
      }
    }
  }
  return reached == k;
}

/// Shared implementation: enumerate window candidates on the simulator,
/// probing all C(k,2) pairs; `accept(candidate, global_warp)` decides
/// whether a candidate counts.  The simulator replays warps concurrently,
/// so accept hooks must only read shared state and write to per-warp
/// slots indexed by the passed warp id.  `charge`, when set, adds
/// analytic post-launch traffic to the (rescaled) report before anything
/// reads it.
template <typename Accept>
GpuKCountResult run_kcount(
    const Graph& g, std::uint32_t k, std::uint32_t window_levels,
    const GpuKCountOptions& opts, const Accept& accept,
    const std::function<void(gpusim::KernelReport&)>& charge = nullptr) {
  LGG_CHECK(k >= 1 && k <= 16, "GPU k-count supports 1 <= k <= 16");
  const gpusim::DeviceSpec& dev = opts.device_spec();
  const std::uint32_t blocks = opts.blocks ? opts.blocks : 2 * dev.sm_count;
  const std::uint32_t tpb = opts.threads_per_block;
  LGG_CHECK(tpb >= dev.warp_size && tpb % dev.warp_size == 0,
            "threads_per_block must be a positive multiple of the warp size");

  GpuKCountResult result;
  std::uint64_t total = 0;
  const std::vector<WindowJob> windows =
      build_windows(g, window_levels, k, total);
  result.total_tests = total;

  // Single whole-graph matrix in device memory (global vertex ids).
  gpusim::DeviceMemory mem(dev, opts.faults);
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t row_bytes = ((n + 31) / 32) * 4;
  const gpusim::Buffer matrix =
      mem.alloc(std::max<std::uint64_t>(n * row_bytes, 4));
  const gpusim::Simulator sim(dev, opts.faults);
  obs::Scope driver(opts.obs, "gpu/subgraph", "driver");
  if (driver) {
    driver.arg("k", static_cast<std::uint64_t>(k));
    driver.arg("total_tests", total);
  }
  result.transfer = transfer(opts, sim, matrix.bytes);

  if (total == 0) {
    // Nothing launches, but the caller's charge still prices its report.
    if (charge) charge(result.kernel);
    result.total_time_s = result.transfer.time_s + cal::kDispatchOverheadS +
                          cal::kDeviceInitOverheadS +
                          result.kernel.kernel_time_s;
    driver.model_s(cal::kDispatchOverheadS + cal::kDeviceInitOverheadS);
    return result;
  }

  const std::uint64_t warps =
      static_cast<std::uint64_t>(blocks) * tpb / dev.warp_size;
  const auto ranges = combi::divide_work(total, warps);
  std::uint64_t budget_per_thread = ~std::uint64_t{0};
  if (opts.max_simulated_tests > 0 && opts.max_simulated_tests < total)
    budget_per_thread = std::max<std::uint64_t>(
        1, opts.max_simulated_tests /
               (static_cast<std::uint64_t>(blocks) * tpb));

  // Per-warp functional output slots (simulator thread-safety contract).
  std::vector<std::uint64_t> warp_found(warps, 0);
  std::vector<std::uint64_t> warp_simulated(warps, 0);
  const double instr_per_test =
      cal::kGpuInstructionsPerTest * (static_cast<double>(k) *
                                      static_cast<double>(k - 1) / 6.0);

  const gpusim::KernelFn kernel = [&](const gpusim::ThreadCtx& ctx,
                                      gpusim::ThreadRecorder& rec) {
    const std::uint64_t warp_id = ctx.global_id / dev.warp_size;
    const auto& range = ranges[warp_id];
    const std::uint64_t warp_budget =
        budget_per_thread == ~std::uint64_t{0}
            ? range.size()
            : std::min<std::uint64_t>(range.size(),
                                      budget_per_thread * dev.warp_size);

    std::uint32_t combo[16];
    Vertex verts[16];
    for (std::uint64_t pos = ctx.lane; pos < warp_budget;
         pos += dev.warp_size) {
      const std::uint64_t flat = range.begin + pos;
      const WindowJob& w = window_for(windows, flat);
      decode_candidate(w, k, flat - w.offset,
                       std::span<std::uint32_t>(combo, k));
      for (std::uint32_t j = 0; j < k; ++j) verts[j] = w.locals[combo[j]];

      rec.compute(instr_per_test);
      for (std::uint32_t a = 0; a < k; ++a)
        for (std::uint32_t b = a + 1; b < k; ++b)
          rec.global_read(
              matrix,
              static_cast<std::uint64_t>(verts[a]) * row_bytes +
                  (static_cast<std::uint64_t>(verts[b]) >> 5) * 4,
              4);
      if (accept(std::span<const Vertex>(verts, k), ctx.global_warp))
        ++warp_found[ctx.global_warp];
      ++warp_simulated[ctx.global_warp];
    }
  };

  gpusim::KernelConfig config;
  config.name = "kcount";
  config.blocks = blocks;
  config.threads_per_block = tpb;

  {
    obs::Scope span(opts.obs, config.name, "launch");
    // The adjacency matrix is staged by the host.
    result.kernel = launch(opts, sim, mem, kernel, config, {matrix});

    // Deterministic reduction: fold per-warp slots in warp order.
    std::uint64_t found = 0, simulated = 0;
    for (std::uint64_t wid = 0; wid < warps; ++wid) {
      found += warp_found[wid];
      simulated += warp_simulated[wid];
    }
    result.simulated_tests = simulated;
    result.count = found;
    result.exact = simulated == total;
    if (!result.exact && simulated > 0)
      rescale(opts, result.kernel,
              static_cast<double>(total) / static_cast<double>(simulated));
    // Post-launch analytic charges (the listing's appends) land before
    // the span, the counters and the profile read the report.
    if (charge) {
      charge(result.kernel);
      if (opts.prof != nullptr) opts.prof->rescale_last(1.0, result.kernel);
    }

    // Span duration and counters use the final (post-rescale) report.
    span.model_s(result.kernel.kernel_time_s);
    if (span) span.arg("transactions", result.kernel.transactions);
  }
  obs::record_kernel(opts.obs, result.kernel);
  driver.model_s(cal::kDispatchOverheadS + cal::kDeviceInitOverheadS);

  result.total_time_s = result.transfer.time_s + cal::kDispatchOverheadS +
                        cal::kDeviceInitOverheadS +
                        result.kernel.kernel_time_s;
  return result;
}

}  // namespace

sancheck::FootprintSpec subgraph_footprint_spec(
    const Graph& g, std::uint32_t k, std::uint32_t window_levels,
    const GpuKCountOptions& opts) {
  LGG_CHECK(k >= 1 && k <= 16, "GPU k-count supports 1 <= k <= 16");
  LGG_CHECK(window_levels >= 1, "window_levels must be positive");
  const gpusim::DeviceSpec& dev = opts.device_spec();
  const std::uint32_t blocks = opts.blocks ? opts.blocks : 2 * dev.sm_count;
  const std::uint32_t tpb = opts.threads_per_block;
  LGG_CHECK(tpb >= dev.warp_size && tpb % dev.warp_size == 0,
            "threads_per_block must be a positive multiple of the warp size");

  std::uint64_t total = 0;
  const std::vector<WindowJob> windows =
      build_windows(g, window_levels, k, total);

  gpusim::DeviceMemory mem(dev);  // scratch: only the addresses matter
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t row_bytes = ((n + 31) / 32) * 4;
  const gpusim::Buffer matrix =
      mem.alloc(std::max<std::uint64_t>(n * row_bytes, 4));

  sancheck::FootprintSpec spec;
  spec.name = "gpu/subgraph";
  spec.total_tests = total;
  spec.warp_size = dev.warp_size;
  spec.warp_interleaved = true;
  spec.division = sancheck::WorkDivision::kDivideWork;
  spec.workers = static_cast<std::uint64_t>(blocks) * tpb / dev.warp_size;
  spec.blocks.push_back({matrix.base, matrix.bytes, row_bytes});
  spec.jobs.reserve(windows.size());
  for (const WindowJob& w : windows) {
    sancheck::FootprintJob fj;
    fj.test_offset = w.offset;
    fj.tests = w.tests;
    fj.s = w.s;
    fj.x_max = w.x_max;
    fj.k = k;
    // The C(k,2) pair probes use GLOBAL vertex ids against the shared
    // matrix, so the whole-graph vertex count bounds the addressing.
    fj.index_bound = n;
    fj.block = 0;
    spec.jobs.push_back(fj);
  }
  return spec;
}

GpuKCountResult count_kcliques_gpu(const Graph& g, std::uint32_t k,
                                   const GpuKCountOptions& opts) {
  return run_kcount(g, k, /*window_levels=*/2, opts,
                    [&](std::span<const Vertex> vs, std::uint64_t) {
                      for (std::size_t a = 0; a < vs.size(); ++a)
                        for (std::size_t b = a + 1; b < vs.size(); ++b)
                          if (!g.has_edge(vs[a], vs[b])) return false;
                      return true;
                    });
}

GpuKCountResult count_connected_subgraphs_gpu(const Graph& g,
                                              std::uint32_t k,
                                              const GpuKCountOptions& opts) {
  return run_kcount(g, k, /*window_levels=*/k, opts,
                    [&](std::span<const Vertex> vs, std::uint64_t) {
                      return induced_connected(g, vs);
                    });
}

GpuTriangleListing list_triangles_gpu(const Graph& g,
                                      const GpuKCountOptions& opts) {
  const gpusim::DeviceSpec& dev = opts.device_spec();

  // Reuse the k-count machinery with k = 3 and an accept hook that also
  // records the output write traffic.  The output buffer is allocated
  // address space only; appends go to consecutive 12-byte slots, which
  // coalesce well when neighbouring lanes find triangles together.
  gpusim::DeviceMemory scratch(dev);
  const std::uint64_t out_capacity = 64ull << 20;  // 64 MiB listing buffer
  // Reserve the matrix region first so the output buffer's addresses do
  // not alias it (mirrors the real allocation order in run_kcount).
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t row_bytes = ((n + 31) / 32) * 4;
  (void)scratch.alloc(std::max<std::uint64_t>(n * row_bytes, 4));
  const gpusim::Buffer out_buffer = scratch.alloc(out_capacity);

  // The accept hook needs per-thread recorders; easiest faithful
  // approach: run the counting kernel, then account the output writes
  // analytically (3 coalesced 4-byte writes per found triangle; one
  // 64-byte transaction per half-warp-worth of finds).
  //
  // The hook appends into a per-warp listing slot (warps replay
  // concurrently); the slots are concatenated in warp order below,
  // which reproduces the serial append order exactly.
  const std::uint32_t list_blocks =
      opts.blocks ? opts.blocks : 2 * dev.sm_count;
  const std::uint64_t list_warps = static_cast<std::uint64_t>(list_blocks) *
                                   opts.threads_per_block / dev.warp_size;
  std::vector<std::vector<std::array<Vertex, 3>>> warp_out(list_warps);
  std::uint64_t output_bytes = 0;
  const auto accept = [&](std::span<const Vertex> vs,
                          std::uint64_t global_warp) {
    if (g.has_edge(vs[0], vs[1]) && g.has_edge(vs[1], vs[2]) &&
        g.has_edge(vs[0], vs[2])) {
      std::array<Vertex, 3> tri{vs[0], vs[1], vs[2]};
      std::sort(tri.begin(), tri.end());
      warp_out[global_warp].push_back(tri);
      return true;
    }
    return false;
  };
  // Charge the append traffic: 12 bytes per triangle, written through
  // 64-byte coalesced transactions, then re-price the DRAM term.
  const auto charge_appends = [&](gpusim::KernelReport& k) {
    for (const auto& w : warp_out) output_bytes += w.size() * 12;
    LGG_CHECK(output_bytes <= out_capacity,
              "triangle listing exceeds the 64 MiB output buffer");
    const std::uint64_t extra_txns = (output_bytes + 63) / 64;
    k.transactions += extra_txns;
    k.bytes += output_bytes;
    const gpusim::PartitionModel pm(dev);
    for (std::uint64_t t = 0; t < extra_txns; ++t)
      k.partition_histogram.add(pm, out_buffer.base + t * 64);
    k.camping_factor = k.partition_histogram.camping_factor();
    const std::uint64_t dram_steps =
        dev.has_cached_global() ? k.partition_histogram.ideal_steps()
                                : k.partition_histogram.serialized_steps();
    k.dram_cycles =
        static_cast<double>(dram_steps) * cal::kTransactionServiceCycles;
    const double cycles =
        std::max({k.compute_cycles, k.latency_cycles, k.dram_cycles});
    k.kernel_time_s =
        cycles / (dev.core_clock_ghz * 1e9) + cal::kKernelLaunchOverheadS;
  };
  const GpuKCountResult base =
      run_kcount(g, 3, 2, opts, accept, charge_appends);

  GpuTriangleListing listing;
  listing.exact = base.exact;
  listing.total_tests = base.total_tests;
  listing.transfer = base.transfer;
  listing.kernel = base.kernel;
  listing.output_bytes = output_bytes;
  listing.total_time_s = base.total_time_s;
  if (base.exact) {
    for (const auto& w : warp_out)
      listing.triangles.insert(listing.triangles.end(), w.begin(), w.end());
    std::sort(listing.triangles.begin(), listing.triangles.end());
  }
  return listing;
}

}  // namespace lgg::core
