// The one way policy and hooks reach a simulated kernel (DESIGN.md §18).
//
// Every kernel family — Algorithm 2 ALS triangles, the hybrid chunks of
// Sections V-VI, BFS levels, the intersection baseline and the
// combinadic k-subgraph kernels — takes an option struct derived from
// RunContext, and every launch goes through launch() below, so the
// device default, the sancheck inspector and the profiler are wired in
// exactly one place.  A driver that samples its launch scales the report
// with rescale() below, the one copy of that arithmetic.
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/executor.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/report.hpp"
#include "obs/obs.hpp"
#include "sancheck/sancheck.hpp"

namespace lgg::core {

struct RunContext {
  /// Device to simulate; nullptr selects the paper's C1060.
  const gpusim::DeviceSpec* device = nullptr;
  /// Host-side simulator execution policy (parallel by default; every
  /// report, trace and profile is bit-identical to serial — DESIGN.md §8).
  gpusim::ExecPolicy exec;
  /// Hazard analysis of every launch (DESIGN.md §9): kReport attaches a
  /// HazardReport to the KernelReport, kStrict throws lgg::Error on the
  /// first hazard.
  sancheck::SancheckMode sancheck = sancheck::SancheckMode::kOff;
  /// Optional observability session (non-owning): driver/transfer/launch
  /// spans plus gpusim counters (DESIGN.md §12).
  obs::Session* obs = nullptr;
  /// Optional profiler hook (non-owning): every launch deposits modelled
  /// hardware counters, rescaled alongside the KernelReport when a driver
  /// samples (DESIGN.md §17).
  gpusim::ProfilerHook* prof = nullptr;

  /// The device to simulate: `*device`, or the C1060 when unset.
  [[nodiscard]] const gpusim::DeviceSpec& device_spec() const;
};

/// Launch `kernel` on `sim` under the context's policy and hooks.  When
/// sancheck is armed, a TapeAnalyzer over `mem` treats `staged` as the
/// buffers the host copied in before the launch.
gpusim::KernelReport launch(const RunContext& ctx, const gpusim::Simulator& sim,
                            const gpusim::DeviceMemory& mem,
                            const gpusim::KernelFn& kernel,
                            const gpusim::KernelConfig& config,
                            std::vector<gpusim::Buffer> staged);

/// Price a host-to-device copy of `bytes` on `sim` (which consults its
/// fault hook) inside a "transfer/h2d" span, and record it in the
/// context's obs session.
gpusim::TransferReport transfer(const RunContext& ctx,
                                const gpusim::Simulator& sim,
                                std::uint64_t bytes);

/// Scale a launch's report by `factor` (> 1) to the full launch a
/// test-sampled or truncated run stands for: every charge grows linearly
/// with the work, so the counters, the DRAM histogram and the cycle terms
/// scale together and the kernel time is re-derived from them.  Then
/// hands the scaled report to the context's profiler (rescale_last), so
/// the last recorded profile keeps matching what the caller sees.
void rescale(const RunContext& ctx, gpusim::KernelReport& report,
             double factor);

}  // namespace lgg::core
