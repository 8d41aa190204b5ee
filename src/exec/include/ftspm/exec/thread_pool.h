// ftspm/exec: the worker pool.
//
// A fixed-size pool of worker threads draining one mutex-protected FIFO
// task queue. Deliberately minimal: campaigns and suites decompose into
// a known set of coarse tasks up front, so work stealing, priorities,
// and dynamic resizing buy nothing here. Exceptions thrown by a task
// are captured in its future and rethrown to the submitter —
// `run_all` rethrows the first failure in *task order*, keeping error
// reporting deterministic even when completion order is not.
//
// Determinism contract: the pool never influences results. Everything
// executed on it must be a pure function of its own inputs (campaign
// shards own their RNG; suite benchmarks are independent); the pool
// only decides *when* each task runs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ftspm::exec {

/// Worker count for "auto" (jobs = 0): the hardware concurrency,
/// floored at 1 when the runtime cannot report it.
std::uint32_t default_jobs() noexcept;

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = default_jobs()). A one-worker pool
  /// spawns no thread: it runs every task on the submitting thread, in
  /// submission order, before submit() returns.
  explicit ThreadPool(std::uint32_t threads = 0);
  /// Drains the queue, then joins every worker.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::uint32_t size() const noexcept { return size_; }

  /// Enqueues `fn`; the returned future rethrows whatever `fn` threw.
  std::future<void> submit(std::function<void()> fn);

  /// Submits every task, waits for all of them, and rethrows the first
  /// (by task order) exception, if any.
  void run_all(std::vector<std::function<void()>> tasks);

  /// Cumulative wall-clock busy time of worker `i` (task execution
  /// only, not queue waits). Utilization telemetry for the pool
  /// metrics; wall-clock-derived, so callers must keep it out of
  /// deterministic snapshots (registry timers do this by default).
  std::uint64_t worker_busy_ns(std::uint32_t i) const noexcept;
  std::uint64_t total_busy_ns() const noexcept;

 private:
  void worker_loop(std::uint32_t index);
  /// Runs `task`, booking its wall time to worker `index`.
  void run_timed(std::uint32_t index,
                 std::packaged_task<void()>& task) noexcept;

  std::uint32_t size_;
  std::vector<std::thread> workers_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> busy_ns_;
  std::deque<std::packaged_task<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Runs fn(i) for every i in [0, n) across the pool and waits for all
/// of them; exceptions are rethrown in index order.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace ftspm::exec
