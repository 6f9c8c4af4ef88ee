#include "gpusim/executor.hpp"

#include <algorithm>

#include "gpusim/banks.hpp"
#include "gpusim/calibration.hpp"
#include "gpusim/coalescing.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace lgg::gpusim {

namespace {

struct SmAccumulator {
  double warp_instructions = 0.0;
  std::uint64_t bank_conflict_steps = 0;
  std::uint64_t global_slots = 0;
  std::uint64_t warps = 0;
};

/// Private accumulation state of one shard.  Shard s owns every block
/// mapped to SM s (block % sm_count == s) and replays those warps in
/// increasing warp order, so each SM's floating-point compute sum folds in
/// exactly the serial-iteration order no matter which host worker runs the
/// shard — the basis of the bit-identical-report guarantee.
struct ShardState {
  SmAccumulator sm;
  PartitionHistogram hist;
  std::uint64_t transactions = 0;
  std::uint64_t bytes = 0;
  std::uint64_t shared_slots = 0;
  // Profiler counters (see LaunchCounters); accumulated unconditionally —
  // a few integer adds per slot — so the replay path is identical whether
  // or not a ProfilerHook is attached.
  std::uint64_t coalesced_slots = 0;
  std::uint64_t uncoalesced_slots = 0;
  std::uint64_t coalesced_transactions = 0;
  std::uint64_t uncoalesced_transactions = 0;
  std::uint64_t ideal_transactions = 0;
  std::uint64_t shared_accesses = 0;
  std::uint64_t divergent_warps = 0;
  /// Retained lane tapes (inspector runs only); later merged and sorted
  /// into (block, thread) order, so the collection order here is free.
  std::vector<ThreadTrace> traces;
};

/// CC-minimal transaction count for one warp slot (the denominator of the
/// coalesced/uncoalesced split).  CC < 2.0 issues per half-warp, so the
/// floor is one aligned segment per non-empty half (16 lanes x <= 8 bytes
/// always fits one 128-byte segment); CC 2.0 issues whole cache lines, so
/// the floor is the lines strictly needed to carry the active words.
std::uint64_t ideal_slot_transactions(ComputeCapability cc,
                                      const std::vector<LaneAccess>& slot,
                                      std::uint32_t word_bytes) {
  if (slot.empty()) return 0;
  if (cc >= ComputeCapability::k20) {
    const std::uint64_t need =
        static_cast<std::uint64_t>(slot.size()) * word_bytes;
    return std::max<std::uint64_t>(1, (need + 127) / 128);
  }
  bool half[2] = {false, false};
  for (const LaneAccess& a : slot) half[a.lane >= 16 ? 1 : 0] = true;
  return static_cast<std::uint64_t>(half[0]) +
         static_cast<std::uint64_t>(half[1]);
}

/// Per-host-worker scratch reused across every warp the worker replays:
/// lane tapes keep their heap capacity across clear(), and the coalescing
/// slot / bank half-warp buffers are hoisted out of the warp loop, so
/// steady-state replay performs no allocations.
struct WorkerScratch {
  std::vector<ThreadRecorder> lanes;
  std::vector<LaneAccess> slot;
  std::vector<std::uint64_t> half_addrs;

  // Lane tapes are reserved by the caller (ThreadRecorder::reserve is
  // simulator-private, and this struct lives outside the friendship).
  explicit WorkerScratch(std::uint32_t warp_size) : lanes(warp_size) {
    slot.reserve(warp_size);
    half_addrs.reserve(16);
  }
};

}  // namespace

KernelReport Simulator::run(const KernelFn& kernel, const KernelConfig& config,
                            const ExecPolicy& policy,
                            const LaunchInspector* inspector,
                            ProfilerHook* profiler) const {
  LGG_CHECK(config.blocks > 0 && config.threads_per_block > 0,
            "Simulator::run: empty launch configuration");
  LGG_CHECK(config.threads_per_block <= 1024,
            "Simulator::run: threads_per_block " << config.threads_per_block
                                                 << " exceeds 1024");

  if (faults_ != nullptr && faults_->on_launch(config)) {
    throw DeviceFault(FaultSite::kLaunch, "injected fault: launch of '" +
                                              config.name +
                                              "' failed (transient error)");
  }

  const DeviceSpec& dev = *spec_;
  const std::uint32_t warp_size = dev.warp_size;
  const std::uint32_t warps_per_block = config.warps_per_block(warp_size);
  const std::uint64_t total_warps = config.total_warps(warp_size);

  KernelReport report;
  report.name = config.name;
  report.blocks = config.blocks;
  report.threads_per_block = config.threads_per_block;
  report.warps = total_warps;
  report.partition_histogram.count.assign(dev.partitions, 0);

  const PartitionModel partition_model(dev);
  std::vector<ShardState> shards(dev.sm_count);

  // SM-abort fault sweep: decided host-serially for every OCCUPIED SM
  // (sm < min(blocks, sm_count)) before any shard runs, so the hook's
  // consultation sequence never depends on the host thread count.  An
  // aborted SM replays only the first half of its warps (watchdog-style
  // mid-kernel death); the launch throws after all shards finish — by
  // then partial per-warp outputs may exist, so callers must treat the
  // outputs of a faulted launch as garbage.
  std::vector<std::uint8_t> aborted(dev.sm_count, 0);
  std::vector<std::uint64_t> shard_warp_count(dev.sm_count, 0);
  for (std::uint32_t sm = 0; sm < dev.sm_count; ++sm) {
    const std::uint64_t blocks_in_shard =
        config.blocks > sm
            ? (static_cast<std::uint64_t>(config.blocks) - 1 - sm) /
                      dev.sm_count +
                  1
            : 0;
    shard_warp_count[sm] = blocks_in_shard * warps_per_block;
  }
  bool any_abort = false;
  if (faults_ != nullptr) {
    const std::uint32_t occupied = std::min(config.blocks, dev.sm_count);
    for (std::uint32_t sm = 0; sm < occupied; ++sm) {
      if (faults_->on_sm_abort(config, sm)) {
        aborted[sm] = 1;
        any_abort = true;
      }
    }
  }

  const auto make_scratch = [warp_size]() {
    WorkerScratch scratch(warp_size);
    for (auto& lane : scratch.lanes) lane.reserve(64);
    return scratch;
  };

  // Replays every warp of shard `sm` (blocks sm, sm + sm_count, ... in
  // increasing order) into that shard's private state.  Pure function of
  // (sm, launch config): safe and deterministic under any worker mapping.
  const auto run_shard = [&](std::uint32_t sm, WorkerScratch& scratch) {
    ShardState& sh = shards[sm];
    sh.hist.count.assign(dev.partitions, 0);
    auto& lanes = scratch.lanes;
    // An aborted SM dies after replaying half its warps (in program order).
    std::uint64_t warp_budget = ~std::uint64_t{0};
    if (aborted[sm] != 0) warp_budget = shard_warp_count[sm] / 2;
    for (std::uint32_t block = sm; block < config.blocks;
         block += dev.sm_count) {
      for (std::uint32_t w = 0; w < warps_per_block; ++w) {
        if (sh.sm.warps == warp_budget) return;
        ++sh.sm.warps;
        const std::uint64_t warp_index =
            static_cast<std::uint64_t>(block) * warps_per_block + w;

        // Run the warp's lanes, collecting tapes.
        const std::uint32_t first_thread = w * warp_size;
        const std::uint32_t lanes_in_warp =
            std::min(warp_size, config.threads_per_block - first_thread);
        double warp_compute = 0.0;
        std::size_t max_global = 0, max_shared = 0;
        std::size_t min_global = ~std::size_t{0}, min_shared = ~std::size_t{0};
        for (std::uint32_t lane = 0; lane < lanes_in_warp; ++lane) {
          lanes[lane].clear();
          ThreadCtx ctx;
          ctx.block = block;
          ctx.thread = first_thread + lane;
          ctx.global_id = static_cast<std::uint64_t>(block) *
                              config.threads_per_block +
                          ctx.thread;
          ctx.lane = lane;
          ctx.warp = w;
          ctx.global_warp = warp_index;
          kernel(ctx, lanes[lane]);
          warp_compute = std::max(warp_compute, lanes[lane].compute_);
          max_global = std::max(max_global, lanes[lane].global_.size());
          max_shared = std::max(max_shared, lanes[lane].shared_.size());
          min_global = std::min(min_global, lanes[lane].global_.size());
          min_shared = std::min(min_shared, lanes[lane].shared_.size());
          if (inspector != nullptr)
            sh.traces.push_back(
                {ctx, lanes[lane].global_, lanes[lane].shared_,
                 lanes[lane].syncs_});
        }
        sh.sm.warp_instructions += warp_compute;
        if (min_global != max_global || min_shared != max_shared)
          ++sh.divergent_warps;

        // Global slots: coalesce the s-th access of every lane together.
        for (std::size_t s = 0; s < max_global; ++s) {
          scratch.slot.clear();
          std::uint32_t word_bytes = 0;
          for (std::uint32_t lane = 0; lane < lanes_in_warp; ++lane) {
            if (s >= lanes[lane].global_.size()) continue;
            const auto& access = lanes[lane].global_[s];
            if (word_bytes == 0) word_bytes = access.word_bytes;
            LGG_ASSERT(word_bytes == access.word_bytes);
            scratch.slot.push_back({lane, access.addr});
          }
          const CoalesceResult coalesced =
              coalesce_warp(dev.cc, scratch.slot, word_bytes);
          sh.transactions += coalesced.count();
          sh.bytes += coalesced.bytes();
          sh.hist.add_transactions(partition_model, coalesced.transactions);
          ++sh.sm.global_slots;
          const std::uint64_t ideal =
              ideal_slot_transactions(dev.cc, scratch.slot, word_bytes);
          sh.ideal_transactions += ideal;
          if (coalesced.count() == ideal) {
            ++sh.coalesced_slots;
            sh.coalesced_transactions += coalesced.count();
          } else {
            ++sh.uncoalesced_slots;
            sh.uncoalesced_transactions += coalesced.count();
          }
        }

        // Shared slots: bank conflicts per half-warp.
        for (std::size_t s = 0; s < max_shared; ++s) {
          ++sh.shared_slots;
          for (std::uint32_t half = 0; half < 2; ++half) {
            scratch.half_addrs.clear();
            const std::uint32_t lo = half * 16;
            const std::uint32_t hi = std::min(lanes_in_warp, lo + 16);
            for (std::uint32_t lane = lo; lane < hi; ++lane)
              if (s < lanes[lane].shared_.size())
                scratch.half_addrs.push_back(lanes[lane].shared_[s].addr);
            if (scratch.half_addrs.empty()) continue;
            ++sh.shared_accesses;
            const std::uint32_t degree =
                bank_conflict_degree(scratch.half_addrs, dev.shared_banks);
            sh.sm.bank_conflict_steps += degree;
          }
        }
      }
    }
  };

  if (policy.mode == ExecPolicy::Mode::kSerial || dev.sm_count <= 1) {
    WorkerScratch scratch = make_scratch();
    for (std::uint32_t sm = 0; sm < dev.sm_count; ++sm)
      run_shard(sm, scratch);
  } else {
    // One parallel_for chunk == one contiguous shard range on one host
    // thread; shard contents are independent of the chunking, so any
    // worker count (including 1) produces byte-identical shard states.
    const auto shard_range = [&](std::size_t lo, std::size_t hi) {
      WorkerScratch scratch = make_scratch();
      for (std::size_t sm = lo; sm < hi; ++sm)
        run_shard(static_cast<std::uint32_t>(sm), scratch);
    };
    ThreadPool& pool = policy.threads > 0
                           ? ThreadPool::with_workers(policy.threads)
                           : ThreadPool::shared();
    pool.parallel_for(dev.sm_count, shard_range);
  }

  // A decided SM abort surfaces only after every shard has finished its
  // (possibly truncated) replay: the throw point is deterministic, and no
  // host worker is ever interrupted mid-warp.  The fault carries each
  // aborted SM's abort boundary (warps completed before the death) so a
  // recovery layer can salvage the completed warps' output slots.
  if (any_abort) {
    std::string which;
    std::vector<SmAbortInfo> infos;
    for (std::uint32_t sm = 0; sm < dev.sm_count; ++sm) {
      if (aborted[sm] != 0) {
        if (!which.empty()) which += ",";
        which += std::to_string(sm);
        infos.push_back(
            {sm, shard_warp_count[sm] / 2, shard_warp_count[sm]});
      }
    }
    throw SmAbortFault("injected fault: SM(s) " + which +
                           " aborted mid-kernel in '" + config.name + "'",
                       std::move(infos));
  }

  // Merge shards in fixed SM order (integer sums are order-free; the FP
  // compute sums never cross shards, so this order fixes everything else).
  const bool profiling = profiler != nullptr;
  LaunchCounters counters;
  if (profiling) counters.sms.assign(dev.sm_count, SmCounters{});
  for (std::uint32_t sm = 0; sm < dev.sm_count; ++sm) {
    const ShardState& sh = shards[sm];
    report.transactions += sh.transactions;
    report.bytes += sh.bytes;
    report.global_slots += sh.sm.global_slots;
    report.shared_slots += sh.shared_slots;
    report.bank_conflict_steps += sh.sm.bank_conflict_steps;
    report.warp_instructions += sh.sm.warp_instructions;
    report.partition_histogram.merge(sh.hist);
    if (profiling) {
      counters.coalesced_slots += sh.coalesced_slots;
      counters.uncoalesced_slots += sh.uncoalesced_slots;
      counters.coalesced_transactions += sh.coalesced_transactions;
      counters.uncoalesced_transactions += sh.uncoalesced_transactions;
      counters.ideal_transactions += sh.ideal_transactions;
      counters.shared_accesses += sh.shared_accesses;
      counters.divergent_warps += sh.divergent_warps;
      SmCounters& c = counters.sms[sm];
      c.sm = sm;
      c.warps = sh.sm.warps;
      c.global_slots = sh.sm.global_slots;
      c.transactions = sh.transactions;
      c.warp_instructions = sh.sm.warp_instructions;
      c.bank_conflict_steps = sh.sm.bank_conflict_steps;
    }
  }
  report.camping_factor = report.partition_histogram.camping_factor();

  // Sancheck hook: merge the retained tapes into (block, thread) order —
  // deterministic for every ExecPolicy — and hand them to the inspector.
  // Runs before the timing derivation so a strict-mode throw leaves no
  // half-priced report behind.
  if (inspector != nullptr) {
    std::vector<ThreadTrace> traces;
    std::size_t count = 0;
    for (const ShardState& sh : shards) count += sh.traces.size();
    traces.reserve(count);
    for (ShardState& sh : shards)
      for (ThreadTrace& t : sh.traces) traces.push_back(std::move(t));
    std::sort(traces.begin(), traces.end(),
              [](const ThreadTrace& a, const ThreadTrace& b) {
                return a.ctx.block != b.ctx.block
                           ? a.ctx.block < b.ctx.block
                           : a.ctx.thread < b.ctx.thread;
              });
    inspector->inspect(config, dev, traces, report);
  }

  // --- timing (see header comment) ---
  namespace cal = calibration;
  double max_sm_compute = 0.0, max_sm_latency = 0.0;
  for (std::uint32_t i = 0; i < dev.sm_count; ++i) {
    const SmAccumulator& sm = shards[i].sm;
    if (sm.warps == 0) continue;
    const double compute =
        (sm.warp_instructions + static_cast<double>(sm.bank_conflict_steps)) *
        cal::kCyclesPerWarpInstruction;
    const double resident = static_cast<double>(
        std::min<std::uint64_t>(sm.warps, dev.max_warps_per_sm));
    const double latency = static_cast<double>(sm.global_slots) *
                           static_cast<double>(dev.global_latency_cycles) /
                           resident;
    max_sm_compute = std::max(max_sm_compute, compute);
    max_sm_latency = std::max(max_sm_latency, latency);
    if (profiling) {
      SmCounters& c = counters.sms[i];
      c.compute_cycles = compute;
      c.latency_cycles = latency;
      c.busy_cycles = std::max(compute, latency);
    }
  }
  report.compute_cycles = max_sm_compute;
  report.latency_cycles = max_sm_latency;

  const std::uint64_t dram_steps =
      dev.has_cached_global() ? report.partition_histogram.ideal_steps()
                              : report.partition_histogram.serialized_steps();
  report.dram_cycles =
      static_cast<double>(dram_steps) * cal::kTransactionServiceCycles;

  const double cycles = std::max(
      {report.compute_cycles, report.latency_cycles, report.dram_cycles});
  report.kernel_time_s =
      cycles / (dev.core_clock_ghz * 1e9) + cal::kKernelLaunchOverheadS;

  if (profiling) {
    counters.memory_replays =
        report.transactions -
        std::min(counters.ideal_transactions, report.transactions);
    counters.shared_replays =
        report.bank_conflict_steps -
        std::min(counters.shared_accesses, report.bank_conflict_steps);
    profiler->on_launch(config, dev, counters, report);
  }
  return report;
}

TransferReport Simulator::transfer(std::uint64_t bytes) const {
  TransferReport t{bytes, transfer_time_s(*spec_, bytes), false};
  t.corrupted = faults_ != nullptr && faults_->on_transfer(bytes);
  return t;
}

}  // namespace lgg::gpusim
