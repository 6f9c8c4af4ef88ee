#include "core/bfs_gpu.hpp"

#include <algorithm>

#include "gpusim/calibration.hpp"
#include "gpusim/executor.hpp"
#include "gpusim/memory.hpp"
#include "util/error.hpp"

namespace lgg::core {

namespace cal = gpusim::calibration;
using graph::Graph;
using graph::Vertex;

GpuBfsResult bfs_gpu(const Graph& g, Vertex source,
                     const GpuBfsOptions& opts) {
  LGG_CHECK(source < g.num_vertices(), "bfs_gpu: source out of range");
  const gpusim::DeviceSpec& dev = opts.device_spec();
  const std::uint32_t tpb = opts.threads_per_block;
  LGG_CHECK(tpb >= dev.warp_size && tpb % dev.warp_size == 0,
            "threads_per_block must be a positive multiple of the warp size");

  const std::uint64_t n = g.num_vertices();
  gpusim::DeviceMemory mem(dev, opts.faults);
  const gpusim::Buffer levels_buf = mem.alloc(std::max<std::uint64_t>(n, 1) * 4);
  const gpusim::Buffer offsets_buf =
      mem.alloc(std::max<std::uint64_t>((n + 1) * 8, 8));
  const gpusim::Buffer adj_buf = mem.alloc(
      std::max<std::uint64_t>(g.raw_adjacency().size() * 4, 4));
  const gpusim::Simulator sim(dev, opts.faults);

  GpuBfsResult result;
  result.tree.source = source;
  result.tree.parent.assign(n, graph::kUnreached);
  result.tree.level.assign(n, graph::kUnreached);
  result.tree.parent[source] = source;
  result.tree.level[source] = 0;

  obs::Scope driver(opts.obs, "gpu/bfs", "driver");
  if (driver) {
    driver.arg("vertices", n);
    driver.arg("source", static_cast<std::uint64_t>(source));
  }

  gpusim::TransferReport transfer;
  {
    obs::Scope span(opts.obs, "transfer/h2d", "transfer");
    transfer = sim.transfer(levels_buf.bytes + offsets_buf.bytes +
                            adj_buf.bytes);
    span.model_s(transfer.time_s);
    if (span) span.arg("bytes", transfer.bytes);
  }
  obs::record_transfer(opts.obs, transfer);

  const auto blocks = static_cast<std::uint32_t>((n + tpb - 1) / tpb);
  auto& tree = result.tree;

  bool advanced = true;
  std::uint32_t current = 0;
  while (advanced) {
    advanced = false;
    // Thread-safe under the simulator's parallel replay: the kernel only
    // reads `tree` (frozen for the duration of the launch — the level
    // update below runs strictly after sim.run returns) and records
    // through its per-thread recorder.
    const gpusim::KernelFn kernel = [&](const gpusim::ThreadCtx& ctx,
                                        gpusim::ThreadRecorder& rec) {
      const std::uint64_t v = ctx.global_id;
      if (v >= n) return;
      // Coalesced frontier-flag read (thread v -> word v).
      rec.global_read(levels_buf, v * 4, 4);
      rec.compute(2);
      if (tree.level[v] != current) return;

      // Frontier vertex: fetch its CSR slice, then walk neighbours —
      // serial, scattered reads (the HN'07 pattern).
      rec.global_read(offsets_buf, v * 8, 8);
      const auto nbrs = g.neighbors(static_cast<Vertex>(v));
      const std::uint64_t begin = g.raw_offsets()[v];
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        rec.global_read(adj_buf, (begin + i) * 4, 4);
        rec.global_read(levels_buf, static_cast<std::uint64_t>(nbrs[i]) * 4,
                        4);
        rec.compute(3);
        if (tree.level[nbrs[i]] == graph::kUnreached) {
          // Functional update applied after the pass below; traffic is
          // charged here.  Recorded as an atomic (atomicMin in HN'07-style
          // codes): several frontier threads may discover one vertex in
          // the same level, and that race is benign by construction.
          rec.global_atomic(levels_buf,
                            static_cast<std::uint64_t>(nbrs[i]) * 4, 4);
        }
      }
    };

    gpusim::KernelConfig config;
    config.name = "bfs/level" + std::to_string(current);
    config.blocks = std::max<std::uint32_t>(blocks, 1);
    config.threads_per_block = tpb;
    obs::Scope span(opts.obs, config.name, "launch");
    // Levels, offsets and adjacency are all staged before the first launch.
    const gpusim::KernelReport report = launch(
        opts, sim, mem, kernel, config, {levels_buf, offsets_buf, adj_buf});
    span.model_s(report.kernel_time_s);
    if (span) span.arg("transactions", report.transactions);
    span.close();
    obs::record_kernel(opts.obs, report);
    result.kernel_time_s += report.kernel_time_s;
    result.transactions += report.transactions;
    result.bytes += report.bytes;
    result.hazards.merge(report.hazards);
    ++result.iterations;

    // Apply the level-synchronous update on the host side (the kernel
    // recorded the corresponding write traffic above).
    for (Vertex v = 0; v < n; ++v) {
      if (tree.level[v] != current) continue;
      for (const Vertex w : g.neighbors(v)) {
        if (tree.level[w] == graph::kUnreached) {
          tree.level[w] = current + 1;
          tree.parent[w] = v;
          advanced = true;
        }
      }
    }
    if (advanced) tree.depth = ++current;
  }

  driver.model_s(cal::kDispatchOverheadS + cal::kDeviceInitOverheadS);
  result.total_time_s = transfer.time_s + cal::kDispatchOverheadS +
                        cal::kDeviceInitOverheadS + result.kernel_time_s;
  return result;
}

sancheck::FootprintSpec bfs_footprint_spec(const Graph& g,
                                           const GpuBfsOptions& opts) {
  const gpusim::DeviceSpec& dev = opts.device_spec();
  const std::uint32_t tpb = opts.threads_per_block;
  LGG_CHECK(tpb >= dev.warp_size && tpb % dev.warp_size == 0,
            "threads_per_block must be a positive multiple of the warp size");

  const std::uint64_t n = g.num_vertices();
  gpusim::DeviceMemory mem(dev);  // scratch: only the addresses matter
  const gpusim::Buffer levels_buf =
      mem.alloc(std::max<std::uint64_t>(n, 1) * 4);
  const gpusim::Buffer offsets_buf =
      mem.alloc(std::max<std::uint64_t>((n + 1) * 8, 8));
  const gpusim::Buffer adj_buf =
      mem.alloc(std::max<std::uint64_t>(g.raw_adjacency().size() * 4, 4));

  sancheck::FootprintSpec spec;
  spec.name = "gpu/bfs";
  spec.total_tests = n;  // one item per vertex, every level
  spec.warp_size = dev.warp_size;
  spec.warp_interleaved = false;
  spec.division = sancheck::WorkDivision::kThreadPerItem;
  const auto launch_blocks =
      std::max<std::uint32_t>(static_cast<std::uint32_t>((n + tpb - 1) / tpb), 1);
  spec.workers = static_cast<std::uint64_t>(launch_blocks) * tpb;
  spec.blocks.push_back({levels_buf.base, levels_buf.bytes, 4});
  spec.blocks.push_back({offsets_buf.base, offsets_buf.bytes, 8});
  spec.blocks.push_back({adj_buf.base, adj_buf.bytes, 4});
  // Frontier flags are read per own-vertex and per-neighbour (and updated
  // via atomics at the same addresses); offsets per frontier vertex;
  // adjacency by CSR position.  All three are vertex/position-indexed.
  spec.accesses.push_back({n, 4, 4, 0, "level flags"});
  spec.accesses.push_back({n, 8, 8, 1, "csr offsets"});
  spec.accesses.push_back(
      {g.raw_adjacency().size(), 4, 4, 2, "csr neighbours"});
  return spec;
}

}  // namespace lgg::core
