#include "ftspm/exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace ftspm::exec {
namespace {

TEST(ThreadPoolTest, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(default_jobs(), 1u);
  EXPECT_EQ(ThreadPool(0).size(), default_jobs());
  EXPECT_EQ(ThreadPool(3).size(), 3u);
}

TEST(ThreadPoolTest, ExecutesEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) tasks.push_back([&] { ran.fetch_add(1); });
  pool.run_all(std::move(tasks));
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, OneJobPoolRunsTasksInlineInOrder) {
  // The serial case: no worker thread, every task on the caller's
  // thread in task order — a failure included, which is rethrown only
  // after the later tasks ran.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  bool all_inline = true;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 6; ++i)
    tasks.push_back([&, i] {
      all_inline = all_inline && std::this_thread::get_id() == caller;
      order.push_back(i);
      if (i == 2) throw std::runtime_error("inline failure");
    });
  EXPECT_THROW(pool.run_all(std::move(tasks)), std::runtime_error);
  EXPECT_TRUE(all_inline);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(ThreadPoolTest, RunAllRethrowsFirstFailureInTaskOrder) {
  ThreadPool pool(4);
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] {});
  tasks.push_back([] { throw std::runtime_error("first"); });
  tasks.push_back([] {});
  tasks.push_back([] { throw std::runtime_error("second"); });
  try {
    pool.run_all(std::move(tasks));
    FAIL() << "run_all should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ThreadPoolTest, RunAllWaitsForEveryTaskEvenAfterAFailure) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 16; ++i) tasks.push_back([&] { ran.fetch_add(1); });
  EXPECT_THROW(pool.run_all(std::move(tasks)), std::runtime_error);
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, MultipleProducersSubmitConcurrently) {
  // The serve daemon's scheduler is the multi-producer user: several
  // connection threads run batches on one shared pool. Every task must
  // run exactly once and every batch must return.
  ThreadPool pool(4);
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 200;
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&] {
      std::vector<std::function<void()>> tasks;
      for (int i = 0; i < kPerProducer; ++i)
        tasks.push_back([&] { ran.fetch_add(1); });
      pool.run_all(std::move(tasks));
    });
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(ran.load(), kProducers * kPerProducer);
}

TEST(ThreadPoolTest, MultipleProducersEachSeeOwnExceptions) {
  // Exceptions must route to the producer whose batch threw — one
  // failing client cannot poison another client's batch — and each
  // failing batch reports its own first failure by task order.
  ThreadPool pool(2);
  std::vector<std::thread> producers;
  std::atomic<int> ok_tasks{0};
  std::vector<std::string> seen(4);
  for (int p = 0; p < 4; ++p)
    producers.emplace_back([&, p] {
      std::vector<std::function<void()>> tasks;
      for (int i = 0; i < 50; ++i) {
        const bool fail = p % 2 == 0 && i % 10 == 0;
        tasks.push_back([&, p, i, fail] {
          if (fail)
            throw std::runtime_error("producer " + std::to_string(p) +
                                     " task " + std::to_string(i));
          ok_tasks.fetch_add(1);
        });
      }
      try {
        pool.run_all(std::move(tasks));
      } catch (const std::runtime_error& e) {
        seen[static_cast<std::size_t>(p)] = e.what();
      }
    });
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(seen, (std::vector<std::string>{"producer 0 task 0", "",
                                            "producer 2 task 0", ""}));
  EXPECT_EQ(ok_tasks.load(), 4 * 50 - 2 * 5);  // 2 failing producers × 5.
}

TEST(ThreadPoolTest, RunAllExceptionOrderHoldsUnderQueuePressure) {
  // Saturate a small pool with slow tasks so later failures complete
  // before earlier ones are even dequeued; the rethrow must still pick
  // the first failure by *task order*, not completion order.
  ThreadPool pool(2);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i)
    tasks.push_back(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(5)); });
  tasks.push_back([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    throw std::runtime_error("slow-early");
  });
  for (int i = 0; i < 8; ++i) tasks.push_back([] {});
  tasks.push_back([] { throw std::runtime_error("fast-late"); });
  try {
    pool.run_all(std::move(tasks));
    FAIL() << "run_all should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "slow-early");
  }
}

TEST(ThreadPoolTest, RunAllFromMultipleThreadsOnOneSharedPool) {
  // Two run_all batches interleaved on one pool (the daemon runs one
  // request's shards while another request's batch is being submitted).
  ThreadPool pool(4);
  std::atomic<int> a_ran{0};
  std::atomic<int> b_ran{0};
  std::thread a([&] {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 32; ++i) tasks.push_back([&] { a_ran.fetch_add(1); });
    pool.run_all(std::move(tasks));
  });
  std::thread b([&] {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 32; ++i) tasks.push_back([&] { b_ran.fetch_add(1); });
    pool.run_all(std::move(tasks));
  });
  a.join();
  b.join();
  EXPECT_EQ(a_ran.load(), 32);
  EXPECT_EQ(b_ran.load(), 32);
}

TEST(ThreadPoolTest, BusyTimeAccumulatesWhileTasksRun) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 4; ++i)
    tasks.push_back(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); });
  pool.run_all(std::move(tasks));
  EXPECT_GT(pool.total_busy_ns(), 0u);
  std::uint64_t summed = 0;
  for (std::uint32_t w = 0; w < pool.size(); ++w)
    summed += pool.worker_busy_ns(w);
  EXPECT_EQ(summed, pool.total_busy_ns());
}

}  // namespace
}  // namespace ftspm::exec
