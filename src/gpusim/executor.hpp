// The simulated CUDA executor: runs kernels thread-by-thread on the host,
// records every memory access, and prices the launch with the coalescing /
// partition / bank models plus the calibrated cycle accounting.
//
// Execution model
// ---------------
// A kernel is a host callable invoked once per simulated thread.  Threads
// are grouped into 32-lane warps; blocks are assigned to SMs round-robin
// (block b runs on SM b % sm_count), matching the paper's Section VI view
// of chunk jobs on identical machines.
//
// Memory-access semantics: each thread records a *tape* of global/shared
// accesses.  Within a warp, the i-th global access of every lane is
// treated as one SIMT instruction slot and coalesced across the warp
// (lockstep assumption — correct for the uniform-control-flow kernels in
// this library, and the standard approximation elsewhere).
//
// Timing model (cycles at the device core clock; see calibration.hpp)
//   per SM:  compute = Σ_warp (warp_instructions + bank penalty) * 4
//            latency = Σ_warp global_slots * L / min(warps, max_resident)
//            sm_time = max(compute, latency)
//   global:  dram = serialized_partition_steps * t_service   (CC < 2.0)
//                 = ideal_partition_steps     * t_service   (CC >= 2.0,
//                   camping neutralised by the cache — paper Section X)
//   kernel  = max(max_sm sm_time, dram) / clock + launch overhead
//
// Sampling is the drivers' business: a test-sampled launch simulates a
// prefix of each thread's work, and the driver scales the returned report
// to the full launch with core::rescale (DESIGN.md §18).
//
// Host-side parallel execution (DESIGN.md §8)
// -------------------------------------------
// Simulated warps are independent by construction, so run() shards the
// launch across host threads: shard s owns every block mapped to SM s and
// replays its warps in increasing warp order into private accumulators.
// Shards are merged in fixed SM order, so the returned KernelReport is
// bit-identical regardless of host thread count (including serial): the
// shard decomposition — and therefore every floating-point summation
// order — depends only on the launch configuration, never on the worker
// count.
//
// Thread-safety contract for kernels: run() may invoke the kernel
// concurrently from multiple host threads, one warp at a time per thread
// (lanes of one warp always execute sequentially on one thread).  A kernel
// must therefore only (a) read captured state that stays immutable for the
// duration of the launch, (b) record through its ThreadRecorder, and
// (c) write per-warp results into output slots indexed by ctx.global_warp
// (or per-thread slots indexed by ctx.global_id).  The core/ kernels
// (triangle_gpu, intersect_gpu, subgraph_gpu, bfs_gpu, hybrid) all follow
// this contract.  Pass ExecPolicy::serial() as an escape hatch for
// kernels that cannot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/report.hpp"

namespace lgg::gpusim {

struct KernelConfig {
  std::string name = "kernel";
  std::uint32_t blocks = 1;
  std::uint32_t threads_per_block = 32;

  /// Warps per block for the given warp size (last warp may be partial).
  [[nodiscard]] std::uint32_t warps_per_block(
      std::uint32_t warp_size) const noexcept {
    return (threads_per_block + warp_size - 1) / warp_size;
  }
  /// Total warps in the launch; kernels size per-warp output-slot arrays
  /// (indexed by ThreadCtx::global_warp) with this.
  [[nodiscard]] std::uint64_t total_warps(
      std::uint32_t warp_size) const noexcept {
    return static_cast<std::uint64_t>(blocks) * warps_per_block(warp_size);
  }
};

/// How run() uses host threads.  The report is bit-identical across all
/// policies; this only trades wall-clock time on the simulating host.
struct ExecPolicy {
  enum class Mode : std::uint8_t { kSerial, kParallel };
  Mode mode = Mode::kParallel;
  /// kParallel only: 0 uses the process-wide shared pool (sized to the
  /// hardware concurrency); > 0 runs on the process-wide pool of exactly
  /// that many workers (ThreadPool::with_workers), built on first use.
  std::size_t threads = 0;

  [[nodiscard]] static ExecPolicy serial() noexcept {
    return {Mode::kSerial, 0};
  }
  [[nodiscard]] static ExecPolicy parallel(std::size_t threads = 0) noexcept {
    return {Mode::kParallel, threads};
  }
};

/// Identity of one simulated thread.
struct ThreadCtx {
  std::uint32_t block = 0;
  std::uint32_t thread = 0;      // within block
  std::uint64_t global_id = 0;   // block * threads_per_block + thread
  std::uint32_t lane = 0;        // thread % 32
  std::uint32_t warp = 0;        // thread / 32 (within block)
  /// block * warps_per_block + warp: unique warp id across the launch.
  /// Per-warp kernel output slots are indexed by this (all lanes of a
  /// warp run on one host thread, so such slots need no synchronisation).
  std::uint64_t global_warp = 0;
};

/// What a recorded access does to its location.  Reads, writes and
/// atomics all cost the same transaction machinery on this hardware; the
/// distinction exists for the sancheck hazard analysis (atomics are exempt
/// from the write-write conflict check, like atomicMin in a real frontier
/// update).
enum class AccessKind : std::uint8_t { kRead, kWrite, kAtomic };

/// One global-memory tape entry (addresses drive coalescing/partitions;
/// kind and sync epoch drive the hazard analysis).
struct GlobalAccess {
  std::uint64_t addr;
  std::uint32_t word_bytes;
  std::uint32_t epoch;  // __syncthreads() count when issued
  AccessKind kind;
};

/// One shared-memory tape entry (address drives the bank model).
struct SharedAccess {
  std::uint64_t addr;
  std::uint32_t epoch;
  AccessKind kind;
};

/// Tape recorder handed to each simulated thread.  Tape storage is owned
/// per host worker and reused across every warp the worker replays:
/// clear() drops the contents but keeps the heap capacity, so steady-state
/// warp replay performs no allocations.
class ThreadRecorder {
 public:
  /// Record a read of `word_bytes` at byte `offset` inside `buf`.
  /// All lanes of a warp must use the same word size per slot.
  void global_read(const Buffer& buf, std::uint64_t offset,
                   std::uint32_t word_bytes) {
    global_.push_back({buf.addr(offset), word_bytes, epoch_, AccessKind::kRead});
  }
  /// Writes share the transaction machinery with reads on this hardware.
  void global_write(const Buffer& buf, std::uint64_t offset,
                    std::uint32_t word_bytes) {
    global_.push_back(
        {buf.addr(offset), word_bytes, epoch_, AccessKind::kWrite});
  }
  /// An atomic read-modify-write (atomicOr/atomicMin-style): priced like
  /// any other transaction, but exempt from sancheck's cross-warp
  /// write-write conflict check — concurrent atomics to one word are
  /// well-defined on the device.
  void global_atomic(const Buffer& buf, std::uint64_t offset,
                     std::uint32_t word_bytes) {
    global_.push_back(
        {buf.addr(offset), word_bytes, epoch_, AccessKind::kAtomic});
  }
  /// Record a shared-memory read at byte address `addr` (bank model).
  void shared_read(std::uint64_t addr) {
    shared_.push_back({addr, epoch_, AccessKind::kRead});
  }
  /// Record a shared-memory write at byte address `addr`.
  void shared_write(std::uint64_t addr) {
    shared_.push_back({addr, epoch_, AccessKind::kWrite});
  }
  /// A __syncthreads() barrier: accesses before and after a sync are in
  /// different epochs, which is what licenses shared-memory reuse across
  /// block phases in the sancheck race analysis.  Free in the timing model
  /// (barrier latency hides under the warp round-robin).
  void sync() {
    ++epoch_;
    ++syncs_;
  }
  /// Charge `n` warp instructions of pure compute.
  void compute(double n = 1.0) { compute_ += n; }

 private:
  friend class Simulator;
  std::vector<GlobalAccess> global_;
  std::vector<SharedAccess> shared_;
  double compute_ = 0.0;
  std::uint32_t epoch_ = 0;
  std::uint32_t syncs_ = 0;

  void clear() {
    global_.clear();
    shared_.clear();
    compute_ = 0.0;
    epoch_ = 0;
    syncs_ = 0;
  }
  void reserve(std::size_t accesses) {
    global_.reserve(accesses);
    shared_.reserve(accesses);
  }
};

using KernelFn = std::function<void(const ThreadCtx&, ThreadRecorder&)>;

/// The full recorded tape of one simulated thread, kept only when a
/// LaunchInspector is attached to the launch.
struct ThreadTrace {
  ThreadCtx ctx;
  std::vector<GlobalAccess> global;
  std::vector<SharedAccess> shared;
  std::uint32_t syncs = 0;
};

/// Post-launch analysis hook (implemented by lgg::sancheck).  When one is
/// passed to Simulator::run, every simulated thread's tape is retained and
/// the hook runs once after the replay and merge, with the traces sorted
/// by (block, thread) — an order independent of the host thread count, so
/// anything the inspector derives is bit-identical across ExecPolicies.
/// The inspector may throw (strict sancheck) or annotate the report.
class LaunchInspector {
 public:
  virtual ~LaunchInspector() = default;
  virtual void inspect(const KernelConfig& config, const DeviceSpec& dev,
                       const std::vector<ThreadTrace>& traces,
                       KernelReport& report) const = 0;
};

/// Per-SM row of the profiler counter harvest, in fixed SM order.  The
/// busy-cycle columns are the executor's own timing terms, exposed per SM
/// so a profiler can draw the occupancy timeline on the modelled clock.
struct SmCounters {
  std::uint32_t sm = 0;
  std::uint64_t warps = 0;
  std::uint64_t global_slots = 0;
  std::uint64_t transactions = 0;
  double warp_instructions = 0.0;
  std::uint64_t bank_conflict_steps = 0;
  double compute_cycles = 0.0;
  double latency_cycles = 0.0;
  /// max(compute, latency): when this SM retires its last warp.
  double busy_cycles = 0.0;
};

/// Modelled hardware counters for one launch, harvested alongside the
/// KernelReport when a ProfilerHook is attached.  Accumulated per shard
/// during the replay and merged in fixed SM order, so every field is
/// bit-identical across ExecPolicies.  Invariants (also after a driver's
/// sampling rescale; see ProfilerHook::rescale_last):
///   coalesced_transactions + uncoalesced_transactions == transactions
///   coalesced_slots + uncoalesced_slots == global_slots
///   ideal_transactions + memory_replays == transactions
///   shared_accesses + shared_replays   == bank_conflict_steps
struct LaunchCounters {
  /// Global slots whose transaction count equals the CC's minimum (Table
  /// III): CC < 2.0 one aligned segment per non-empty half-warp, CC 2.0
  /// ceil(active_lanes * word_bytes / 128) cache lines.
  std::uint64_t coalesced_slots = 0;
  std::uint64_t uncoalesced_slots = 0;
  /// The same split in transaction units; sums to KernelReport::transactions.
  std::uint64_t coalesced_transactions = 0;
  std::uint64_t uncoalesced_transactions = 0;
  /// CC-minimal transactions over all slots; the excess is the modelled
  /// memory-replay count.
  std::uint64_t ideal_transactions = 0;
  std::uint64_t memory_replays = 0;
  /// Non-empty half-warp shared accesses; bank_conflict_steps beyond this
  /// are conflict replays.
  std::uint64_t shared_accesses = 0;
  std::uint64_t shared_replays = 0;
  /// Warps whose lanes recorded tapes of unequal length (lockstep broken).
  std::uint64_t divergent_warps = 0;
  std::vector<SmCounters> sms;
};

/// Post-launch profiling hook (implemented by lgg::prof).  Invoked from
/// host-serial code after the shard merge and timing derivation, with the
/// counters and the finished report — never from worker threads, so the
/// hook needs no synchronisation and the invocation order is independent
/// of the ExecPolicy.  Faulted launches (DeviceFault) never reach the
/// hook.
class ProfilerHook {
 public:
  virtual ~ProfilerHook() = default;
  virtual void on_launch(const KernelConfig& config, const DeviceSpec& dev,
                         const LaunchCounters& counters,
                         const KernelReport& report) = 0;
  /// Drivers that change the returned KernelReport after the launch call
  /// this with the final report (core::rescale for test sampling and
  /// chunk truncation, with the factor it scaled by; the triangle listing
  /// with factor 1 after charging its appends), so the last recorded
  /// profile keeps matching the caller-visible report.
  virtual void rescale_last(double factor, const KernelReport& report) = 0;
};

class Simulator {
 public:
  /// `faults` (optional, non-owning) is consulted at the launch, per-SM
  /// abort and transfer fault sites — always from host-serial code, so
  /// the consultation sequence is independent of the ExecPolicy (see
  /// gpusim/fault.hpp).  A firing launch/SM-abort hook makes run() throw
  /// DeviceFault; a firing transfer hook sets TransferReport::corrupted.
  explicit Simulator(const DeviceSpec& spec, FaultHook* faults = nullptr)
      : spec_(&spec), faults_(faults) {}

  [[nodiscard]] const DeviceSpec& spec() const noexcept { return *spec_; }

  /// Simulate one kernel launch: every warp runs (functional + timing).
  /// The policy selects serial or multi-thread host execution; the report
  /// is bit-identical either way (see the header comment), but the kernel
  /// must honour the thread-safety contract unless ExecPolicy::serial()
  /// is passed.  A non-null `inspector` makes the run retain every
  /// simulated thread's tape and invokes the hook after the merge
  /// (sancheck wiring; see LaunchInspector).  A non-null `profiler`
  /// additionally harvests the LaunchCounters and receives them
  /// (host-serially) with the finished report (lgg_prof wiring; see
  /// ProfilerHook).
  KernelReport run(const KernelFn& kernel, const KernelConfig& config,
                   const ExecPolicy& policy = {},
                   const LaunchInspector* inspector = nullptr,
                   ProfilerHook* profiler = nullptr) const;

  /// Price a host->device copy of `bytes`.
  [[nodiscard]] TransferReport transfer(std::uint64_t bytes) const;

 private:
  const DeviceSpec* spec_;
  FaultHook* faults_ = nullptr;
};

}  // namespace lgg::gpusim
