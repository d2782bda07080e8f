#ifndef ITG_COMMON_THREAD_POOL_H_
#define ITG_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/timed_mutex.h"

namespace itg {

class ResourceContext;

/// A small work-stealing thread pool for data-parallel BSP supersteps
/// (the paper's "evaluate non-conflicting walks in parallel", §6.2).
///
/// The pool executes *indexed task batches*: ParallelFor(n, fn) runs
/// fn(task, worker) for every task in [0, n). Tasks are dealt to
/// per-worker deques as contiguous ranges (preserving start-vertex
/// locality in the shared buffer pool); a worker that drains its own
/// deque steals single tasks from the back of the busiest victim.
///
/// The calling thread participates as worker 0, so a pool of size N uses
/// exactly N threads while a batch runs and ParallelFor(n, fn) with a
/// pool of size 1 degenerates to a plain sequential loop (no handoff, no
/// synchronization beyond the function call).
///
/// Accounting: the pool meters per-worker busy nanos (thread CPU time,
/// so time a worker spends descheduled on an oversubscribed host is not
/// billed as work) and the number of steals. When a Metrics sink is
/// attached, per-worker busy nanos and steals are also pushed there
/// after every batch. The sequential fast path (pool of 1 / single task)
/// is metered into a dedicated *caller lane* (`caller_busy_nanos()`,
/// `Metrics::AddCallerCpuNanos`) rather than worker 0's meter, so inline
/// execution cannot masquerade as worker-0 skew.
///
/// Attribution: ParallelFor captures the calling thread's current
/// ResourceContext (common/resource_scope.h) and re-establishes it on
/// every worker for the batch, so per-query CPU attribution survives the
/// handoff into the pool.
///
/// ParallelFor is not reentrant and must only be called from the thread
/// that owns the pool (one in-flight batch at a time). Task functions
/// must not throw.
class ThreadPool {
 public:
  using TaskFn = std::function<void(size_t task, int worker)>;

  /// Creates a pool of `num_threads` workers total (spawns
  /// `num_threads - 1` OS threads; the caller is worker 0). `metrics`,
  /// when non-null, receives per-thread CPU nanos and steal counts.
  explicit ThreadPool(int num_threads, Metrics* metrics = nullptr);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(task, worker) for every task in [0, num_tasks); blocks
  /// until all tasks have finished.
  void ParallelFor(size_t num_tasks, const TaskFn& fn);

  int num_threads() const { return num_threads_; }

  /// Total tasks stolen (claimed from another worker's deque) so far.
  uint64_t steals() const { return steals_; }
  /// Cumulative busy (thread-CPU) nanos of worker `w` across batches.
  uint64_t busy_nanos(int w) const { return busy_nanos_[static_cast<size_t>(w)]; }
  /// Busy nanos executed inline on the calling thread by the sequential
  /// fast path (pool of 1, or a single task). Kept out of the per-worker
  /// lanes: worker 0's meter reflects only its share of real parallel
  /// batches, so busy-meter skew analysis is not polluted by inline runs.
  uint64_t caller_busy_nanos() const { return caller_busy_nanos_; }
  /// Cumulative busy nanos summed over all workers plus the caller lane.
  uint64_t total_busy_nanos() const;

  /// Default worker count: the ITG_THREADS environment variable if set
  /// to a positive integer, else std::thread::hardware_concurrency(),
  /// clamped to Metrics::kMaxTrackedThreads.
  static int DefaultThreads();

 private:
  struct WorkerQueue {
    // Timed so deal/steal contention shows up as
    // `contention.pool.queue.wait_us` in /metrics.
    TimedMutex mu{"pool.queue"};
    std::deque<size_t> tasks;
  };

  void WorkerLoop(int w);
  /// Drains tasks (own deque first, then stealing) for the current
  /// batch; returns when no claimable task remains.
  void RunTasks(int w);
  bool PopOwn(int w, size_t* task);
  bool StealTask(int w, size_t* task);

  int num_threads_ = 1;
  Metrics* metrics_ = nullptr;

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;

  // Epoch/barrier mutex; timed (`contention.pool.barrier.wait_us`), so
  // the condition variables must be the _any flavor.
  TimedMutex mu_{"pool.barrier"};
  std::condition_variable_any wake_cv_;
  std::condition_variable_any done_cv_;
  uint64_t epoch_ = 0;
  bool stop_ = false;

  const TaskFn* fn_ = nullptr;
  // The caller's resource context at ParallelFor entry, re-established on
  // every worker for the batch so worker CPU (and any page reads or
  // allocations inside tasks) is charged to the scheduling query. Written
  // by the caller before the epoch bump, read by workers after observing
  // the new epoch.
  ResourceContext* batch_ctx_ = nullptr;
  // Workers that have finished draining the current batch (guarded by
  // mu_); the batch barrier is drained_ == num_threads_, so no straggler
  // can ever observe the next batch's queues or task function.
  int drained_ = 0;
  std::atomic<uint64_t> steals_{0};

  // Per-batch busy nanos (slot per worker; written by that worker only,
  // read by the caller after the batch completes).
  std::vector<uint64_t> batch_busy_;
  // Cumulative counters, updated by the caller between batches.
  std::vector<uint64_t> busy_nanos_;
  uint64_t caller_busy_nanos_ = 0;
};

}  // namespace itg

#endif  // ITG_COMMON_THREAD_POOL_H_
