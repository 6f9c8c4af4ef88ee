// Determinism and correctness of the multi-threaded simulator path:
// KernelReport must be bit-identical between serial and N-thread parallel
// execution for every kernel shape, and the functional
// outputs of the core kernels must keep matching the CPU oracles when the
// default (parallel) policy is active.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/intersect_gpu.hpp"
#include "core/subgraph_gpu.hpp"
#include "core/triangle_cpu.hpp"
#include "core/triangle_gpu.hpp"
#include "graph/generators.hpp"
#include "gpusim/executor.hpp"

namespace lgg::gpusim {
namespace {

/// Field-by-field equality, exact on doubles: the parallel path must
/// reproduce the serial report bit-for-bit, not approximately.
void expect_reports_identical(const KernelReport& a, const KernelReport& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.threads_per_block, b.threads_per_block);
  EXPECT_EQ(a.warps, b.warps);
  EXPECT_EQ(a.global_slots, b.global_slots);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.partition_histogram.count, b.partition_histogram.count);
  EXPECT_EQ(a.partition_histogram.total, b.partition_histogram.total);
  EXPECT_EQ(a.camping_factor, b.camping_factor);
  EXPECT_EQ(a.shared_slots, b.shared_slots);
  EXPECT_EQ(a.bank_conflict_steps, b.bank_conflict_steps);
  EXPECT_EQ(a.warp_instructions, b.warp_instructions);
  EXPECT_EQ(a.compute_cycles, b.compute_cycles);
  EXPECT_EQ(a.latency_cycles, b.latency_cycles);
  EXPECT_EQ(a.dram_cycles, b.dram_cycles);
  EXPECT_EQ(a.kernel_time_s, b.kernel_time_s);
  EXPECT_EQ(a.sample_fraction, b.sample_fraction);
}

/// A kernel with non-uniform per-thread work: varying compute (so per-SM
/// floating-point sums are order-sensitive), strided global reads, and
/// shared accesses with occasional bank conflicts.
KernelFn mixed_kernel(const Buffer& buf) {
  return [&buf](const ThreadCtx& ctx, ThreadRecorder& rec) {
    const std::uint64_t salt = ctx.global_id * 2654435761u;
    rec.compute(1.0 + static_cast<double>(salt % 17) * 0.37);
    const std::uint64_t reads = 1 + ctx.global_id % 3;
    for (std::uint64_t r = 0; r < reads; ++r)
      rec.global_read(buf, (salt + r * 4096) % ((1 << 22) - 16) / 4 * 4, 4);
    if (ctx.global_id % 2 == 0)
      rec.shared_read(64ull * (ctx.lane % 8));  // some conflicts
  };
}

TEST(ExecutorParallel, BitIdenticalAcrossThreadCounts) {
  const Simulator sim(tesla_c1060());
  DeviceMemory mem(tesla_c1060());
  const Buffer buf = mem.alloc(1 << 22);
  const KernelFn kernel = mixed_kernel(buf);

  // Shapes: uneven last warp (tpb 40), partial second warp (tpb 33),
  // more blocks than SMs, fewer blocks than SMs.
  const KernelConfig shapes[] = {
      {"uneven", 4, 40},  {"tiny", 1, 33},      {"wide", 67, 128},
      {"partial", 3, 96}, {"one-warp", 1, 32},
  };
  for (const KernelConfig& cfg : shapes) {
    const KernelReport serial = sim.run(kernel, cfg, ExecPolicy::serial());
    for (const std::size_t threads : {1u, 2u, 5u, 13u}) {
      SCOPED_TRACE(cfg.name + "/threads" + std::to_string(threads));
      const KernelReport parallel =
          sim.run(kernel, cfg, ExecPolicy::parallel(threads));
      expect_reports_identical(serial, parallel);
    }
    // Default policy (shared pool) must agree too.
    const KernelReport def = sim.run(kernel, cfg);
    expect_reports_identical(serial, def);
  }
}

TEST(ExecutorParallel, CachedDeviceAlsoBitIdentical) {
  const Simulator sim(tesla_c2050());
  DeviceMemory mem(tesla_c2050());
  const Buffer buf = mem.alloc(1 << 22);
  const KernelFn kernel = mixed_kernel(buf);
  const KernelConfig cfg{"fermi", 29, 64};
  const KernelReport serial = sim.run(kernel, cfg, ExecPolicy::serial());
  const KernelReport parallel =
      sim.run(kernel, cfg, ExecPolicy::parallel(4));
  expect_reports_identical(serial, parallel);
}

TEST(ExecutorParallel, PerWarpSlotsMatchSerialFunctionalResult) {
  const Simulator sim(tesla_c1060());
  const KernelConfig cfg{"slots", 9, 64};
  const std::uint64_t warps = cfg.total_warps(32);
  auto run_once = [&](const ExecPolicy& policy) {
    std::vector<std::uint64_t> slots(warps, 0);
    sim.run(
        [&](const ThreadCtx& ctx, ThreadRecorder& rec) {
          rec.compute(1);
          slots[ctx.global_warp] += ctx.global_id + 1;
        },
        cfg, policy);
    return slots;
  };
  const auto serial = run_once(ExecPolicy::serial());
  const auto parallel = run_once(ExecPolicy::parallel(6));
  EXPECT_EQ(serial, parallel);
}

TEST(ExecutorParallel, KernelExceptionPropagates) {
  const Simulator sim(tesla_c1060());
  const KernelFn boom = [](const ThreadCtx& ctx, ThreadRecorder&) {
    if (ctx.global_id == 777) throw std::runtime_error("kernel boom");
  };
  EXPECT_THROW(
      sim.run(boom, {"boom", 30, 64}, ExecPolicy::parallel(4)),
      std::runtime_error);
  EXPECT_THROW(sim.run(boom, {"boom", 30, 64}, ExecPolicy::serial()),
               std::runtime_error);
}

TEST(ExecutorParallel, TriangleCountsMatchCpuOracleUnderParallelDefault) {
  const graph::Graph g = graph::layered_random(600, 60, 0.08, 0.04, 99);
  const std::uint64_t oracle = core::count_triangles_forward(g);

  for (const auto layout :
       {core::GpuLayout::kNaive, core::GpuLayout::kCoalesced,
        core::GpuLayout::kCoalescedAntiCamping}) {
    core::GpuTriangleOptions opts;
    opts.layout = layout;  // default opts.exec == parallel
    const auto r = core::count_triangles_gpu(g, opts);
    EXPECT_TRUE(r.exact);
    EXPECT_EQ(r.triangles, oracle);

    core::GpuTriangleOptions serial_opts = opts;
    serial_opts.exec = gpusim::ExecPolicy::serial();
    const auto s = core::count_triangles_gpu(g, serial_opts);
    EXPECT_EQ(s.triangles, r.triangles);
    expect_reports_identical(s.kernel, r.kernel);
  }

  core::GpuIntersectOptions iopts;  // parallel default
  const auto ir = core::count_triangles_gpu_intersect(g, iopts);
  EXPECT_TRUE(ir.exact);
  EXPECT_EQ(ir.triangles, oracle);

  core::GpuKCountOptions kopts;  // parallel default
  const auto kr = core::count_kcliques_gpu(g, 3, kopts);
  EXPECT_TRUE(kr.exact);
  EXPECT_EQ(kr.count, oracle);
}

}  // namespace
}  // namespace lgg::gpusim
