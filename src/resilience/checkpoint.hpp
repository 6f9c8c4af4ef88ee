// Durable checkpoint/restart for the resilient runner (DESIGN.md §16).
//
// A Checkpoint freezes everything a resumed process needs to finish a
// chunked run byte-identically to an uninterrupted one: the completed
// ChunkRecords and report accumulators, the deterministic log prefix, the
// fault injector's draw/replay position, and — when the run traces — the
// full observability state (span tree with its open-frame stack, metrics
// registry).  The file is a line-based text format with a version magic
// and an FNV-1a digest trailer; saves go through write-to-temp + rename
// so a crash mid-write leaves the previous checkpoint intact, and loads
// reject any truncation or tampering with a typed CheckpointError.
//
// Compatibility is checked on three axes before any state is restored:
// the graph digest (same input), an options fingerprint (same semantics —
// deliberately EXCLUDING the host ExecPolicy, which is free to vary), and
// a plan digest over the chunk test counts (same Algorithm 1 output).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "resilience/runner.hpp"
#include "util/error.hpp"

namespace lgg::resilience {

/// Typed checkpoint failure: callers branch on kind() to decide between
/// "cold start" (kMissing) and "refuse / warn then cold start" (the rest).
class CheckpointError : public Error {
 public:
  enum class Kind {
    kMissing = 0,        // no checkpoint file at the path
    kCorrupt = 1,        // truncated, tampered, or unparseable
    kVersion = 2,        // magic / format version mismatch
    kGraphMismatch = 3,  // checkpoint was taken for a different graph
    kPlanMismatch = 4,   // options fingerprint or chunk plan differ
  };

  CheckpointError(Kind kind, const std::string& what)
      : Error(what), kind_(kind) {}
  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

[[nodiscard]] const char* checkpoint_kind_name(
    CheckpointError::Kind k) noexcept;

/// Complete mid-run state of run_resilient at a chunk boundary.
struct Checkpoint {
  // -- compatibility preamble --
  std::uint64_t graph_digest = 0;
  std::uint64_t options_fp = 0;
  std::uint64_t plan_digest = 0;
  std::uint64_t n_chunks = 0;

  // -- resume position: first chunk the resumed run executes --
  std::uint64_t next_chunk = 0;

  // -- report accumulators over chunks [0, next_chunk) --
  std::uint64_t triangles = 0;
  bool exact = true;
  std::uint64_t total_tests = 0;
  double host_time_s = 0.0;
  double camping_sum = 0.0;
  double tps_sum = 0.0;
  std::uint64_t dev_kernels = 0;
  std::uint64_t dev_transactions = 0;
  double dev_kernel_time_s = 0.0;
  std::uint64_t h2d_bytes = 0;
  double h2d_time_s = 0.0;
  std::vector<ChunkRecord> chunks;
  RecoveryStats recovery;
  std::vector<std::uint8_t> sm_lost;
  std::vector<std::uint64_t> job_times_ns;
  std::string log;  // deterministic audit-log prefix

  // -- fault injector position (absent when the run is fault-free) --
  bool has_faults = false;
  std::uint64_t fault_seed = 0;
  FaultInjector::State faults;

  // -- observability snapshot (absent when the run has no session) --
  bool has_obs = false;
  obs::TracerState tracer;
  obs::MetricsState metrics;
};

/// Semantic fingerprint of the options a checkpoint depends on.  The host
/// ExecPolicy is excluded on purpose: the runner's outputs are
/// bit-identical across policies, so a run checkpointed at --threads 1
/// may resume at --threads 8.
[[nodiscard]] std::uint64_t runner_options_fingerprint(
    const RunnerOptions& opts);

/// FNV-1a over the per-chunk test counts — pins the Algorithm 1 plan.
[[nodiscard]] std::uint64_t plan_digest_of(
    const std::vector<std::uint64_t>& chunk_tests);

/// Serialize / parse the versioned text format.  decode throws
/// CheckpointError (kCorrupt / kVersion); it never partially fills.
[[nodiscard]] std::string encode_checkpoint(const Checkpoint& c);
[[nodiscard]] Checkpoint decode_checkpoint(std::string_view text);

/// Durable save: write to `path + ".tmp"`, fsync-free rename over `path`.
/// Throws lgg::Error on I/O failure.
void save_checkpoint(const std::string& path, const Checkpoint& c);

/// Load + digest-verify + parse.  Throws CheckpointError: kMissing when
/// the file does not exist, kCorrupt / kVersion from decode.
[[nodiscard]] Checkpoint load_checkpoint(const std::string& path);

// ---- low-level helpers (shared with the serving layer's checkpoint) ----

/// Percent-encode a string into a single whitespace-free token ('%', ' ',
/// control bytes escaped; the empty string encodes as "%-").
[[nodiscard]] std::string ckpt_encode(std::string_view s);
/// Inverse of ckpt_encode; throws CheckpointError(kCorrupt) on bad input.
[[nodiscard]] std::string ckpt_decode(std::string_view tok);

/// FNV-1a 64-bit over a byte string (the digest trailer primitive).
[[nodiscard]] std::uint64_t ckpt_fnv1a(std::string_view bytes);

/// Exact double round-trip via the IEEE-754 bit pattern in hex.
[[nodiscard]] std::string ckpt_double_bits(double v);

/// Write `content` to `path` atomically (temp file + rename).  Throws
/// lgg::Error on I/O failure.
void write_file_atomic(const std::string& path, const std::string& content);

}  // namespace lgg::resilience
