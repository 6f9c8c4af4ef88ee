#include "core/intersect_gpu.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "combi/strategies.hpp"
#include "gpusim/calibration.hpp"
#include "gpusim/executor.hpp"
#include "gpusim/memory.hpp"
#include "util/error.hpp"

namespace lgg::core {

namespace cal = gpusim::calibration;
using graph::Graph;
using graph::Vertex;

namespace {

/// Low-degree orientation (same ranking as count_triangles_forward): every
/// triangle appears exactly once as u -> v -> w with rank(u) < rank(v) <
/// rank(w).
struct Oriented {
  std::vector<std::uint64_t> offsets;  // n + 1
  std::vector<Vertex> out;             // sorted by id within each list
  std::vector<std::pair<Vertex, Vertex>> edges;  // all oriented edges
};

Oriented orient(const Graph& g) {
  const std::size_t n = g.num_vertices();
  std::vector<std::uint32_t> rank(n);
  {
    std::vector<Vertex> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](Vertex x, Vertex y) {
      const auto dx = g.degree(x), dy = g.degree(y);
      return dx != dy ? dx < dy : x < y;
    });
    for (std::uint32_t r = 0; r < n; ++r) rank[order[r]] = r;
  }
  Oriented result;
  result.offsets.assign(n + 1, 0);
  for (Vertex u = 0; u < n; ++u)
    for (const Vertex v : g.neighbors(u))
      if (rank[u] < rank[v]) ++result.offsets[u + 1];
  for (std::size_t v = 0; v < n; ++v)
    result.offsets[v + 1] += result.offsets[v];
  result.out.resize(result.offsets[n]);
  result.edges.reserve(result.offsets[n]);
  std::vector<std::uint64_t> cursor(result.offsets.begin(),
                                    result.offsets.end() - 1);
  for (Vertex u = 0; u < n; ++u)
    for (const Vertex v : g.neighbors(u))
      if (rank[u] < rank[v]) {
        result.out[cursor[u]++] = v;
        result.edges.emplace_back(u, v);
      }
  return result;
}

std::uint64_t merge_count(std::span<const Vertex> a,
                          std::span<const Vertex> b) {
  std::uint64_t count = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j])
      ++i;
    else if (b[j] < a[i])
      ++j;
    else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

}  // namespace

GpuIntersectResult count_triangles_gpu_intersect(
    const Graph& g, const GpuIntersectOptions& opts) {
  const gpusim::DeviceSpec& dev = opts.device_spec();
  const std::uint32_t blocks = opts.blocks ? opts.blocks : 2 * dev.sm_count;
  const std::uint32_t tpb = opts.threads_per_block;
  LGG_CHECK(tpb >= dev.warp_size && tpb % dev.warp_size == 0,
            "threads_per_block must be a positive multiple of the warp size");

  const Oriented oriented = orient(g);
  const std::uint64_t n = g.num_vertices();

  GpuIntersectResult result;
  result.total_edges = oriented.edges.size();

  gpusim::DeviceMemory mem(dev, opts.faults);
  const gpusim::Buffer offsets_buf =
      mem.alloc(std::max<std::uint64_t>((n + 1) * 8, 8));
  const gpusim::Buffer adj_buf =
      mem.alloc(std::max<std::uint64_t>(oriented.out.size() * 4, 4));
  result.device_bytes = offsets_buf.bytes + adj_buf.bytes;
  const gpusim::Simulator sim(dev, opts.faults);
  obs::Scope driver(opts.obs, "gpu/intersect", "driver");
  if (driver) driver.arg("edges", result.total_edges);
  {
    obs::Scope span(opts.obs, "transfer/h2d", "transfer");
    result.transfer = sim.transfer(result.device_bytes);
    span.model_s(result.transfer.time_s);
    if (span) span.arg("bytes", result.transfer.bytes);
  }
  obs::record_transfer(opts.obs, result.transfer);

  if (oriented.edges.empty()) {
    result.total_time_s = result.transfer.time_s + cal::kDispatchOverheadS +
                          cal::kDeviceInitOverheadS;
    driver.model_s(cal::kDispatchOverheadS + cal::kDeviceInitOverheadS);
    return result;
  }

  const std::uint64_t warps =
      static_cast<std::uint64_t>(blocks) * tpb / dev.warp_size;
  const auto ranges = combi::divide_work(oriented.edges.size(), warps);

  std::uint64_t per_warp_budget = ~std::uint64_t{0};
  if (opts.max_simulated_edges > 0 &&
      opts.max_simulated_edges < oriented.edges.size())
    per_warp_budget =
        std::max<std::uint64_t>(1, opts.max_simulated_edges / warps);

  std::uint64_t total_work = 0;
  for (const auto& [u, v] : oriented.edges)
    total_work += (oriented.offsets[u + 1] - oriented.offsets[u]) +
                  (oriented.offsets[v + 1] - oriented.offsets[v]);

  // Per-warp functional output slots (simulator thread-safety contract:
  // warps may replay concurrently; lane 0 of each warp owns its slot, all
  // other captures below are read-only for the launch).
  std::vector<std::uint64_t> warp_triangles(warps, 0);
  std::vector<std::uint64_t> warp_edges(warps, 0);
  std::vector<std::uint64_t> warp_work(warps, 0);

  const gpusim::KernelFn kernel = [&](const gpusim::ThreadCtx& ctx,
                                      gpusim::ThreadRecorder& rec) {
    const std::uint64_t warp_id = ctx.global_id / dev.warp_size;
    const auto& range = ranges[warp_id];
    const std::uint64_t count =
        std::min<std::uint64_t>(range.size(), per_warp_budget);
    for (std::uint64_t e = 0; e < count; ++e) {
      const auto [u, v] = oriented.edges[range.begin + e];

      // Every lane reads the two offset words (same address: a broadcast,
      // one transaction on CC >= 1.2).
      rec.global_read(offsets_buf, static_cast<std::uint64_t>(u) * 8, 8);
      rec.global_read(offsets_buf, static_cast<std::uint64_t>(v) * 8, 8);

      // Lane-parallel coalesced streaming of both adjacency lists: lane l
      // reads elements l, l+32, ...; trailing lanes clamp to the last
      // element (same segment) so the warp tapes stay slot-aligned.
      for (const Vertex x : {u, v}) {
        const std::uint64_t begin = oriented.offsets[x];
        const std::uint64_t len = oriented.offsets[x + 1] - begin;
        const std::uint64_t slots = (len + dev.warp_size - 1) / dev.warp_size;
        for (std::uint64_t s = 0; s < slots; ++s) {
          std::uint64_t idx = begin + s * dev.warp_size + ctx.lane;
          if (idx >= begin + len) idx = begin + len - 1;  // clamp
          rec.global_read(adj_buf, idx * 4, 4);
        }
        rec.compute(static_cast<double>(slots));  // merge-step issue cost
      }

      if (ctx.lane == 0) {
        const std::span<const Vertex> lu(
            oriented.out.data() + oriented.offsets[u],
            oriented.offsets[u + 1] - oriented.offsets[u]);
        const std::span<const Vertex> lv(
            oriented.out.data() + oriented.offsets[v],
            oriented.offsets[v + 1] - oriented.offsets[v]);
        warp_triangles[ctx.global_warp] += merge_count(lu, lv);
        ++warp_edges[ctx.global_warp];
        warp_work[ctx.global_warp] += lu.size() + lv.size();
      }
    }
  };

  gpusim::KernelConfig config;
  config.name = "triangles/intersect";
  config.blocks = blocks;
  config.threads_per_block = tpb;

  obs::Scope launch_span(opts.obs, config.name, "launch");
  // The CSR (offsets + neighbours) is staged by the host.
  result.kernel =
      launch(opts, sim, mem, kernel, config, {offsets_buf, adj_buf});

  // Deterministic reduction: fold per-warp slots in warp order.
  std::uint64_t triangles = 0, simulated_edges = 0, simulated_work = 0;
  for (std::uint64_t wid = 0; wid < warps; ++wid) {
    triangles += warp_triangles[wid];
    simulated_edges += warp_edges[wid];
    simulated_work += warp_work[wid];
  }
  result.simulated_edges = simulated_edges;
  result.triangles = triangles;
  result.exact = simulated_edges == oriented.edges.size();

  if (!result.exact && simulated_work > 0) {
    const double f = static_cast<double>(total_work) /
                     static_cast<double>(simulated_work);
    auto scale_u64 = [f](std::uint64_t x) {
      return static_cast<std::uint64_t>(static_cast<double>(x) * f);
    };
    gpusim::KernelReport& k = result.kernel;
    k.global_slots = scale_u64(k.global_slots);
    k.transactions = scale_u64(k.transactions);
    k.bytes = scale_u64(k.bytes);
    k.warp_instructions *= f;
    for (auto& c : k.partition_histogram.count) c = scale_u64(c);
    k.partition_histogram.total = scale_u64(k.partition_histogram.total);
    k.camping_factor = k.partition_histogram.camping_factor();
    k.compute_cycles *= f;
    k.latency_cycles *= f;
    k.dram_cycles *= f;
    const double cycles =
        std::max({k.compute_cycles, k.latency_cycles, k.dram_cycles});
    k.kernel_time_s =
        cycles / (dev.core_clock_ghz * 1e9) + cal::kKernelLaunchOverheadS;
    k.sample_fraction = 1.0 / f;
    // Keep the recorded profile matching the caller-visible report.
    if (opts.prof) opts.prof->rescale_last(f);
  }

  // Span duration and counters use the final (post-rescale) report.
  launch_span.model_s(result.kernel.kernel_time_s);
  if (launch_span)
    launch_span.arg("transactions", result.kernel.transactions);
  launch_span.close();
  obs::record_kernel(opts.obs, result.kernel);
  driver.model_s(cal::kDispatchOverheadS + cal::kDeviceInitOverheadS);

  result.total_time_s = result.transfer.time_s + cal::kDispatchOverheadS +
                        cal::kDeviceInitOverheadS +
                        result.kernel.kernel_time_s;
  return result;
}

sancheck::FootprintSpec intersect_footprint_spec(
    const Graph& g, const GpuIntersectOptions& opts) {
  const gpusim::DeviceSpec& dev = opts.device_spec();
  const std::uint32_t blocks = opts.blocks ? opts.blocks : 2 * dev.sm_count;
  const std::uint32_t tpb = opts.threads_per_block;
  LGG_CHECK(tpb >= dev.warp_size && tpb % dev.warp_size == 0,
            "threads_per_block must be a positive multiple of the warp size");

  const Oriented oriented = orient(g);
  const std::uint64_t n = g.num_vertices();
  gpusim::DeviceMemory mem(dev);  // scratch: only the addresses matter
  const gpusim::Buffer offsets_buf =
      mem.alloc(std::max<std::uint64_t>((n + 1) * 8, 8));
  const gpusim::Buffer adj_buf =
      mem.alloc(std::max<std::uint64_t>(oriented.out.size() * 4, 4));

  sancheck::FootprintSpec spec;
  spec.name = "gpu/intersect";
  spec.total_tests = oriented.edges.size();
  spec.warp_size = dev.warp_size;
  spec.warp_interleaved = true;
  spec.division = sancheck::WorkDivision::kDivideWork;
  spec.workers = static_cast<std::uint64_t>(blocks) * tpb / dev.warp_size;
  spec.blocks.push_back({offsets_buf.base, offsets_buf.bytes, 8});
  spec.blocks.push_back({adj_buf.base, adj_buf.bytes, 4});
  // Offset reads: the kernel touches words u * 8 and v * 8 for oriented
  // edge endpoints, all < n.  Neighbour reads (including the trailing-lane
  // clamp) stay below the CSR length.
  spec.accesses.push_back({n, 8, 8, 0, "csr offsets"});
  spec.accesses.push_back({oriented.out.size(), 4, 4, 1, "csr neighbours"});
  return spec;
}

}  // namespace lgg::core
