// Unit tests of the work-stealing ThreadPool: every task runs exactly
// once, results are independent of the worker that ran them, a pool of
// size 1 degenerates to the sequential loop, and the busy/critical
// meters behave sanely.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace itg {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kTasks = 1000;
  std::vector<std::atomic<int>> counts(kTasks);
  pool.ParallelFor(kTasks, [&](size_t task, int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, pool.num_threads());
    counts[task].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, ParallelSumMatchesSequential) {
  ThreadPool pool(8);
  constexpr size_t kTasks = 512;
  std::vector<uint64_t> partial(kTasks, 0);
  pool.ParallelFor(kTasks, [&](size_t task, int /*worker*/) {
    partial[task] = task * task;
  });
  uint64_t total = std::accumulate(partial.begin(), partial.end(),
                                   uint64_t{0});
  uint64_t expected = 0;
  for (size_t i = 0; i < kTasks; ++i) expected += i * i;
  EXPECT_EQ(total, expected);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    pool.ParallelFor(static_cast<size_t>(round % 7 + 1),
                     [&](size_t, int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), round % 7 + 1);
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::thread::id main_id = std::this_thread::get_id();
  std::vector<size_t> order;
  pool.ParallelFor(16, [&](size_t task, int worker) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(std::this_thread::get_id(), main_id);
    order.push_back(task);
  });
  ASSERT_EQ(order.size(), 16u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(pool.steals(), 0u);
}

TEST(ThreadPoolTest, ZeroTasksIsANoop) {
  ThreadPool pool(4);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t, int) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, StealsBalanceSkewedWork) {
  // One contiguous range gets all the heavy tasks; idle workers must
  // steal to finish them. With sleeps as "work", steals are guaranteed
  // even on a single-core host because sleeping workers yield the CPU.
  ThreadPool pool(4);
  constexpr size_t kTasks = 16;
  pool.ParallelFor(kTasks, [&](size_t task, int /*worker*/) {
    if (task < kTasks / 4) {
      // Worker 0's dealt range: each task sleeps, so others catch up,
      // drain their own ranges, and steal from worker 0's back.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  // Meters are monotone and consistent: the per-worker meters plus the
  // caller lane sum to the total. A multi-thread pool with many tasks
  // never takes the sequential fast path, so the caller lane stays zero
  // here.
  EXPECT_GT(pool.total_busy_nanos(), 0u);
  uint64_t sum = 0;
  for (int w = 0; w < pool.num_threads(); ++w) sum += pool.busy_nanos(w);
  EXPECT_EQ(pool.caller_busy_nanos(), 0u);
  EXPECT_EQ(sum + pool.caller_busy_nanos(), pool.total_busy_nanos());
}

TEST(ThreadPoolTest, MetricsSinkReceivesCounters) {
  Metrics metrics;
  ThreadPool pool(2, &metrics);
  pool.ParallelFor(64, [&](size_t, int) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  });
  uint64_t total = 0;
  for (int t = 0; t < Metrics::kMaxTrackedThreads; ++t) {
    total += metrics.thread_cpu_nanos(t);
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(total + metrics.caller_cpu_nanos(), pool.total_busy_nanos());
  EXPECT_EQ(metrics.steals(), pool.steals());
}

TEST(ThreadPoolTest, SequentialFastPathChargesCallerLane) {
  // A pool of 1 (and a 1-task batch on any pool) runs inline on the
  // calling thread; that CPU goes to the dedicated caller lane, not to
  // worker 0's meter — inline execution must not masquerade as
  // worker-0 skew in busy-meter analysis.
  Metrics metrics;
  ThreadPool pool(1, &metrics);
  volatile uint64_t sink = 0;
  pool.ParallelFor(8, [&](size_t task, int) {
    uint64_t acc = 0;
    for (uint64_t i = 0; i < 200000; ++i) acc += i * (task + 1);
    sink = sink + acc;
  });
  EXPECT_EQ(pool.busy_nanos(0), 0u);
  EXPECT_GT(pool.caller_busy_nanos(), 0u);
  EXPECT_EQ(pool.caller_busy_nanos(), pool.total_busy_nanos());
  EXPECT_EQ(metrics.caller_cpu_nanos(), pool.caller_busy_nanos());
  EXPECT_EQ(metrics.thread_cpu_nanos(0), 0u);
}

TEST(ThreadPoolTest, DefaultThreadsHonorsEnv) {
  // DefaultThreads reads ITG_THREADS; the engine options default to it.
  setenv("ITG_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 3);
  setenv("ITG_THREADS", "100000", 1);
  EXPECT_EQ(ThreadPool::DefaultThreads(), Metrics::kMaxTrackedThreads);
  unsetenv("ITG_THREADS");
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

}  // namespace
}  // namespace itg
