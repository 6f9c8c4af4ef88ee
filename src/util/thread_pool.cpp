#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <memory>

#include "util/error.hpp"

namespace lgg {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

ThreadPool& ThreadPool::with_workers(std::size_t threads) {
  LGG_CHECK(threads > 0, "ThreadPool::with_workers: threads must be positive");
  static std::mutex mutex;
  static std::map<std::size_t, std::unique_ptr<ThreadPool>> pools;
  const std::lock_guard lock(mutex);
  std::unique_ptr<ThreadPool>& pool = pools[threads];
  if (!pool) pool = std::make_unique<ThreadPool>(threads);
  return *pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

namespace {

/// Completion state of one parallel_for batch, a stack local of the
/// caller.  Every chunk records its exception and every queued task
/// arrives under the one mutex, and the notify happens before that mutex
/// is released — so once wait() has seen the last arrival, no worker
/// touches the batch again and the caller may destroy it.
class Batch {
 public:
  explicit Batch(std::size_t pending) : pending_(pending) {}

  /// Run one chunk, keeping the first exception for wait().
  void run(const std::function<void(std::size_t, std::size_t)>& fn,
           std::size_t begin, std::size_t end) {
    try {
      fn(begin, end);
    } catch (...) {
      const std::lock_guard lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }

  /// Called once by each queued task after its last chunk.
  void arrive() {
    const std::lock_guard lock(mutex_);
    if (--pending_ == 0) done_.notify_all();
  }

  /// Block until every queued task arrived, then rethrow the first error.
  void wait() {
    std::unique_lock lock(mutex_);
    done_.wait(lock, [this] { return pending_ == 0; });
    if (first_error_) std::rethrow_exception(first_error_);
  }

 private:
  std::mutex mutex_;
  std::condition_variable done_;
  std::size_t pending_;
  std::exception_ptr first_error_;
};

}  // namespace

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain, std::size_t chunks_per_worker) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (chunks_per_worker == 0) chunks_per_worker = 1;
  // chunks <= n / grain <= n guarantees every chunk is non-empty.
  const std::size_t executors = workers_.size() + 1;
  const std::size_t max_chunks = std::max<std::size_t>(1, n / grain);
  const std::size_t chunks = std::min(executors * chunks_per_worker, max_chunks);
  if (chunks <= 1) {
    fn(0, n);
    return;
  }

  // Balanced fixed boundaries: chunk c covers [c*base + min(c, extra), +len).
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;

  // One claiming task per worker (never more tasks than chunks); the
  // calling thread claims chunks too, so every chunk is joined before the
  // scope exits even if the queue is busy.
  const std::size_t tasks = std::min(workers_.size(), chunks - 1);
  Batch batch(tasks);
  std::atomic<std::size_t> next{0};
  auto run_chunks = [&] {
    for (;;) {
      const std::size_t c = next.fetch_add(1);
      if (c >= chunks) return;
      const std::size_t begin = c * base + std::min(c, extra);
      batch.run(fn, begin, begin + base + (c < extra ? 1 : 0));
    }
  };
  {
    const std::lock_guard lock(mutex_);
    for (std::size_t t = 0; t < tasks; ++t) {
      tasks_.emplace([&] {
        run_chunks();
        batch.arrive();
      });
    }
  }
  cv_.notify_all();

  run_chunks();
  batch.wait();
}

}  // namespace lgg
