#include "ftspm/exec/thread_pool.h"

#include <chrono>

#include "ftspm/util/error.h"

namespace ftspm::exec {

std::uint32_t default_jobs() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : static_cast<std::uint32_t>(n);
}

ThreadPool::ThreadPool(std::uint32_t threads)
    : size_(threads == 0 ? default_jobs() : threads) {
  busy_ns_ = std::make_unique<std::atomic<std::uint64_t>[]>(size_);
  for (std::uint32_t i = 0; i < size_; ++i)
    busy_ns_[i].store(0, std::memory_order_relaxed);
  // A one-job pool is the serial case: it runs each task on the
  // submitting thread, so a serial run pays for no thread start and no
  // cross-core hand-off of the campaign's working set.
  if (size_ == 1) return;
  workers_.reserve(size_);
  for (std::uint32_t i = 0; i < size_; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  FTSPM_REQUIRE(static_cast<bool>(fn), "cannot submit an empty task");
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  if (workers_.empty()) {
    run_timed(0, task);
    return future;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    FTSPM_CHECK(!stop_, "submit on a stopped pool");
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::run_all(std::vector<std::function<void()>> tasks) {
  std::vector<std::future<void>> futures;
  futures.reserve(tasks.size());
  for (std::function<void()>& t : tasks) futures.push_back(submit(std::move(t)));
  // Wait for everything before rethrowing so no task is left running
  // with dangling references to the caller's frame.
  for (std::future<void>& f : futures) f.wait();
  for (std::future<void>& f : futures) f.get();
}

std::uint64_t ThreadPool::worker_busy_ns(std::uint32_t i) const noexcept {
  if (i >= size_) return 0;
  return busy_ns_[i].load(std::memory_order_relaxed);
}

std::uint64_t ThreadPool::total_busy_ns() const noexcept {
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < size_; ++i)
    total += busy_ns_[i].load(std::memory_order_relaxed);
  return total;
}

void ThreadPool::worker_loop(std::uint32_t index) {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    run_timed(index, task);
  }
}

void ThreadPool::run_timed(std::uint32_t index,
                           std::packaged_task<void()>& task) noexcept {
  const auto start = std::chrono::steady_clock::now();
  task();  // exceptions land in the task's future
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start);
  busy_ns_[index].fetch_add(static_cast<std::uint64_t>(ns.count()),
                            std::memory_order_relaxed);
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  std::vector<std::function<void()>> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) tasks.push_back([&fn, i] { fn(i); });
  pool.run_all(std::move(tasks));
}

}  // namespace ftspm::exec
