// Resilient chunked execution (DESIGN.md §11).
//
// The paper's chunk decomposition (Algorithm 1) is exactly the granularity
// at which real GPU runs fail and recover: each chunk's ALS test space is
// independent, so a failed chunk can be retried — or handed to a host
// fallback — without touching the rest of the run.  run_resilient executes
// the hybrid pipeline's chunk schedule as independently retryable units:
//
//   per chunk: fresh DeviceMemory + Simulator (faults installed) ->
//     transfer (corruption flagged) -> chunk kernel -> per-chunk CPU
//     recount invariant -> accept,
//   on DeviceFault / detected corruption: bounded deterministic
//     exponential backoff, then retry (fresh attempt, nothing reused),
//   after max_retries: graceful degradation to the CPU oracle or the
//     bounded-batch streaming recount (or give up, failover=off),
//   afterwards: SMs that aborted are treated as lost and the chunk
//     schedule is repaired with sched::reassign_after_loss.
//
// Determinism: the chunk loop is serial (each chunk's inner simulation
// still uses the configured ExecPolicy), fault decisions are pure hashes
// of (seed, site, draw), and backoff is accounted in modelled time, not
// slept.  The report's `log` therefore carries no timing and is
// byte-identical across host thread counts for a fixed injector seed.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/hybrid.hpp"
#include "core/run_context.hpp"
#include "gpusim/device.hpp"
#include "gpusim/executor.hpp"
#include "gpusim/report.hpp"
#include "graph/graph.hpp"
#include "resilience/fault.hpp"
#include "sched/makespan.hpp"

namespace lgg::resilience {

/// What happens to a chunk that exhausts its device retries.
enum class Failover : int {
  kOff = 0,     // give up: the run is marked inexact
  kCpu = 1,     // exact CPU oracle over the chunk's test space
  kStream = 2,  // bounded-batch streaming recount (oversized chunks)
};

[[nodiscard]] const char* failover_name(Failover f) noexcept;

/// How a chunk's final count was produced.
enum class ChunkOutcome : int {
  kGpu = 0,             // first device attempt succeeded
  kGpuRetried = 1,      // device succeeded after >= 1 retry
  kCpuFailover = 2,     // device gave up; CPU oracle
  kStreamFailover = 3,  // device gave up; streaming batches
  kFailed = 4,          // device gave up and failover was off
  kSalvaged = 5,        // SM abort: completed warps kept, rest recounted
};

[[nodiscard]] const char* chunk_outcome_name(ChunkOutcome o) noexcept;

/// Bounded deterministic exponential backoff between device attempts.
/// Accounted in modelled time (never slept): retrying is not free on real
/// hardware, and charging it keeps the time model honest.
struct RetryPolicy {
  std::uint32_t max_retries = 3;   // device attempts = max_retries + 1
  double base_backoff_s = 1e-3;    // before the first retry
  double max_backoff_s = 0.25;     // cap (bounded backoff)

  /// Backoff charged before retry number `retry` (0-based):
  /// min(base * 2^retry, max).
  [[nodiscard]] double backoff_s(std::uint32_t retry) const noexcept;
};

/// The run context (core::RunContext) reaches every chunk launch.  The
/// report, log, spans, metrics and profile are bit-identical across
/// `exec` policies, fault pattern included; launches of retried or
/// discarded attempts are profiled too.  `prof` is not part of the
/// checkpoint fingerprint.
struct RunnerOptions : core::RunContext {
  graph::SizeMetric metric = graph::SizeMetric::kSutm;
  std::uint32_t threads_per_block = 128;
  core::SchedulerKind scheduler = core::SchedulerKind::kLpt;
  /// Fault injector (non-owning); nullptr runs fault-free (the runner
  /// then degenerates to a verified hybrid run).
  FaultInjector* faults = nullptr;
  RetryPolicy retry;
  Failover failover = Failover::kCpu;
  /// Per-chunk CPU recount invariant: catches silent transfer corruption
  /// and certifies every device count.  Off = trust the device (corrupted
  /// transfers then go undetected; the report is not certified).
  bool verify = true;
  /// Streaming failover batch size, in tests per batch (bounds the
  /// working set of the kStream path).
  std::uint64_t stream_batch_tests = 1u << 16;
  /// Optional precomputed Algorithm 1 plan (non-owning; see
  /// core::precompute_als).  When set, the runner skips chunking / level
  /// decomposition / per-chunk ALS work and charges ZERO modelled
  /// preprocessing — the resident-graph amortization (DESIGN.md §15).
  const core::AlsPrecomputed* prepared = nullptr;
  /// Partial-result salvage on SM abort (DESIGN.md §16): keep the output
  /// slots of warps that completed before the abort boundary (their
  /// replay is pure, so the slots equal a fault-free run's) and recount
  /// only the lost remainder on the host.  The chunk is then certified
  /// without a device retry.  Applies only to untruncated chunks whose
  /// staging transfer was clean.
  bool salvage = true;
  /// Durable checkpointing (DESIGN.md §16): when non-empty, the runner
  /// serializes its complete mid-run state to this path (write-to-temp +
  /// rename) every `checkpoint_every_chunks` chunk boundaries, and
  /// removes the file once the run completes.  resume_resilient continues
  /// from the first incomplete chunk with final outputs byte-identical to
  /// an uninterrupted run's.
  std::string checkpoint_path;
  std::uint32_t checkpoint_every_chunks = 1;
  /// Test/chaos hook invoked after each durable checkpoint write with the
  /// index of the last completed chunk (the kill-resume harness uses it
  /// to die at a precise boundary).
  std::function<void(std::uint32_t)> on_checkpoint;
};

/// Per-chunk accounting.
struct ChunkRecord {
  std::uint32_t chunk = 0;
  std::uint64_t tests = 0;
  std::uint64_t triangles = 0;
  bool shared_resident = false;
  ChunkOutcome outcome = ChunkOutcome::kGpu;
  std::uint32_t attempts = 0;     // device attempts made (0: empty chunk)
  std::uint32_t faults = 0;       // device faults + corruptions hit
  std::uint32_t corruptions = 0;  // corrupted transfers detected
  bool certified = false;         // recounted on CPU or computed there
  double backoff_s = 0.0;         // modelled backoff charged
  double time_s = 0.0;            // modelled job time of the final attempt
  std::uint32_t sm = 0;           // machine after any loss reassignment
  // Salvage accounting (outcome == kSalvaged only): tests whose device
  // results were kept vs tests recounted on the host; the two always sum
  // to `tests`.
  std::uint64_t salvaged_warps = 0;
  std::uint64_t salvaged_tests = 0;
  std::uint64_t recounted_tests = 0;
};

/// Whole-run recovery totals.  by_site matches the injector's FaultPlan
/// restricted to this run (the acceptance invariant the resilience tests
/// pin down).
struct RecoveryStats {
  std::uint64_t faults = 0;  // sum of by_site
  std::array<std::uint64_t, gpusim::kNumFaultSites> by_site{};
  std::uint64_t retries = 0;               // attempt transitions
  std::uint64_t corruptions_detected = 0;  // recount caught a bad count
  std::uint64_t cpu_failovers = 0;
  std::uint64_t stream_failovers = 0;
  std::uint64_t failed_chunks = 0;  // failover == off only
  double backoff_s = 0.0;           // total modelled backoff
  std::uint64_t salvaged_warps = 0;    // warps kept across all SM aborts
  std::uint64_t salvaged_tests = 0;    // device results kept by salvage
  std::uint64_t recounted_tests = 0;   // host-recounted lost remainder
};

struct RunnerReport {
  std::uint64_t triangles = 0;
  /// Every chunk produced a full count (false only when a chunk failed
  /// with failover off).
  bool exact = false;
  /// exact AND every non-empty chunk's count was either recomputed or
  /// recount-verified on the host — the "exact despite injected faults"
  /// certificate.
  bool certified = false;
  std::uint64_t total_tests = 0;

  std::vector<ChunkRecord> chunks;
  RecoveryStats recovery;

  /// Final chunk schedule (over modelled job times, repaired with
  /// reassign_after_loss when SMs were lost) and the lost SMs.
  sched::Assignment schedule;
  std::vector<std::uint32_t> lost_sms;
  double makespan_s = 0.0;
  /// End-to-end modelled time: preprocessing + transfers + makespan +
  /// overheads + backoff.
  double total_time_s = 0.0;

  /// Aggregated device accounting (successful launches; fault fields
  /// filled from RecoveryStats).
  gpusim::RunReport device;

  /// Deterministic per-chunk audit log: no timing, no thread counts —
  /// byte-identical across ExecPolicies for a fixed injector seed.
  std::string log;
};

std::ostream& operator<<(std::ostream& os, const RunnerReport& r);

/// Count triangles with full fault recovery (see the header comment).
RunnerReport run_resilient(const graph::Graph& g,
                           const RunnerOptions& opts = {});

/// Resume a checkpointed run from opts.checkpoint_path (which must be
/// non-empty): load + validate the checkpoint, restore the injector and
/// observability state, and continue from the first incomplete chunk.
/// The final RunnerReport — log, trace, and metrics included — is
/// byte-identical to an uninterrupted run's.  Throws
/// resilience::CheckpointError when the file is missing, corrupt, of
/// another version, or incompatible with (g, opts); the caller decides
/// whether to fall back to a cold run_resilient.
RunnerReport resume_resilient(const graph::Graph& g,
                              const RunnerOptions& opts);

}  // namespace lgg::resilience
