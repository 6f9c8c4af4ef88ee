#include "core/run_context.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "gpusim/calibration.hpp"

namespace lgg::core {

const gpusim::DeviceSpec& RunContext::device_spec() const {
  return device != nullptr ? *device : gpusim::tesla_c1060();
}

gpusim::KernelReport launch(const RunContext& ctx, const gpusim::Simulator& sim,
                            const gpusim::DeviceMemory& mem,
                            const gpusim::KernelFn& kernel,
                            const gpusim::KernelConfig& config,
                            std::vector<gpusim::Buffer> staged) {
  std::optional<sancheck::TapeAnalyzer> analyzer;
  if (ctx.sancheck != sancheck::SancheckMode::kOff) {
    sancheck::SancheckConfig sc;
    sc.mode = ctx.sancheck;
    sc.staged = std::move(staged);
    analyzer.emplace(std::move(sc), mem);
  }
  return sim.run(kernel, config, ctx.exec, analyzer ? &*analyzer : nullptr,
                 ctx.prof);
}

gpusim::TransferReport transfer(const RunContext& ctx,
                                const gpusim::Simulator& sim,
                                std::uint64_t bytes) {
  gpusim::TransferReport report;
  {
    obs::Scope span(ctx.obs, "transfer/h2d", "transfer");
    report = sim.transfer(bytes);
    span.model_s(report.time_s);
    if (span) span.arg("bytes", report.bytes);
  }
  obs::record_transfer(ctx.obs, report);
  return report;
}

void rescale(const RunContext& ctx, gpusim::KernelReport& report,
             double factor) {
  const auto scale_u64 = [factor](std::uint64_t v) {
    return static_cast<std::uint64_t>(static_cast<double>(v) * factor);
  };
  report.global_slots = scale_u64(report.global_slots);
  report.transactions = scale_u64(report.transactions);
  report.bytes = scale_u64(report.bytes);
  report.shared_slots = scale_u64(report.shared_slots);
  report.bank_conflict_steps = scale_u64(report.bank_conflict_steps);
  report.warp_instructions *= factor;
  for (auto& c : report.partition_histogram.count) c = scale_u64(c);
  report.partition_histogram.total =
      scale_u64(report.partition_histogram.total);
  report.camping_factor = report.partition_histogram.camping_factor();
  report.compute_cycles *= factor;
  report.latency_cycles *= factor;
  report.dram_cycles *= factor;
  const double cycles = std::max(
      {report.compute_cycles, report.latency_cycles, report.dram_cycles});
  report.kernel_time_s = cycles / (ctx.device_spec().core_clock_ghz * 1e9) +
                         gpusim::calibration::kKernelLaunchOverheadS;
  report.sample_fraction /= factor;
  if (ctx.prof != nullptr) ctx.prof->rescale_last(factor, report);
}

}  // namespace lgg::core
