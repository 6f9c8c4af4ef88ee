// Minimal fixed-size thread pool with a parallel_for helper.
//
// Used by the CPU reference implementations when the host has more than one
// core, by the gpusim executor to shard independent warp work across host
// cores, and by tests that exercise concurrent access to shared read-only
// structures.  The pool follows the structured-parallelism idiom from the
// OpenMP examples guide: work is submitted as a batch and joined before the
// submitting scope exits; no detached tasks.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace lgg {

class ThreadPool {
 public:
  /// Creates `threads` worker threads (default: hardware concurrency, at
  /// least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Process-wide shared pool sized to the hardware concurrency.  Lazily
  /// constructed on first use; lives until process exit.  Intended for
  /// callers that need occasional bursts of parallelism (the gpusim
  /// executor) without paying thread creation per call.
  static ThreadPool& shared();

  /// Process-wide pool of exactly `threads` workers (>= 1), one per
  /// distinct count, built on first use and kept until process exit, so
  /// callers asking for a fixed worker count pay thread creation once.
  static ThreadPool& with_workers(std::size_t threads);

  /// Runs fn(chunk_begin, chunk_end) over [0, n) and waits for completion.
  /// [0, n) is split into balanced contiguous chunks, up to
  /// `chunks_per_worker` per executor (the workers plus the calling
  /// thread), and the executors claim chunks from a shared cursor.  Every
  /// chunk is non-empty, and when n >= grain every chunk holds at least
  /// `grain` elements (so tiny ranges produce few tasks instead of many
  /// one-element ones).  More than one chunk per worker rebalances badly
  /// skewed per-element cost (per-vertex adjacency sorts on power-law
  /// graphs), where one static chunk per executor strands the heavy chunk.
  /// The chunk boundaries depend only on (n, grain, chunks_per_worker,
  /// pool size), never on claim order, so callers writing to disjoint
  /// ranges stay deterministic.  Exceptions thrown by fn propagate to the
  /// caller (first one wins); the full range is still joined before
  /// rethrowing.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn,
                    std::size_t grain = 1, std::size_t chunks_per_worker = 1);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace lgg
