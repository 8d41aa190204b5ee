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
  // calling thread, so a serial run pays for no thread start and no
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

void ThreadPool::run_all(std::vector<std::function<void()>> tasks) {
  for (const std::function<void()>& t : tasks)
    FTSPM_REQUIRE(static_cast<bool>(t), "cannot run an empty task");
  Batch batch;
  batch.tasks = std::move(tasks);
  const std::size_t n = batch.tasks.size();
  batch.errors.resize(n);
  if (workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i)
      batch.errors[i] = run_timed(0, batch.tasks[i]);
  } else if (n != 0) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      FTSPM_CHECK(!stop_, "run_all on a stopped pool");
      for (std::size_t i = 0; i < n; ++i) queue_.push_back(Job{&batch, i});
    }
    cv_.notify_all();
    // Wait for everything before rethrowing so no task is left running
    // with dangling references to the caller's frame.
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return batch.done == n; });
  }
  for (const std::exception_ptr& error : batch.errors)
    if (error) std::rethrow_exception(error);
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
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      job = queue_.front();
      queue_.pop_front();
    }
    std::exception_ptr error =
        run_timed(index, job.batch->tasks[job.index]);
    {
      // The batch may be gone the moment this lock drops: the slot and
      // the count are the last things this worker touches.
      const std::lock_guard<std::mutex> lock(mutex_);
      job.batch->errors[job.index] = std::move(error);
      ++job.batch->done;
    }
    done_cv_.notify_all();
  }
}

std::exception_ptr ThreadPool::run_timed(
    std::uint32_t index, const std::function<void()>& fn) noexcept {
  const auto start = std::chrono::steady_clock::now();
  std::exception_ptr error;
  try {
    fn();
  } catch (...) {
    error = std::current_exception();
  }
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start);
  busy_ns_[index].fetch_add(static_cast<std::uint64_t>(ns.count()),
                            std::memory_order_relaxed);
  return error;
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  std::vector<std::function<void()>> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) tasks.push_back([&fn, i] { fn(i); });
  pool.run_all(std::move(tasks));
}

}  // namespace ftspm::exec
