#include "core/run_context.hpp"

#include <optional>
#include <utility>

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
  return sim.run(kernel, config, 1, ctx.exec, analyzer ? &*analyzer : nullptr,
                 ctx.prof);
}

}  // namespace lgg::core
