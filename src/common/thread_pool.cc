#include "common/thread_pool.h"


#include <algorithm>
#include <cstdlib>

#include "common/logging.h"
#include "common/resource_scope.h"
#include "common/trace.h"

// The busy meters use ThreadCpuNanos (common/resource_scope.h) rather
// than wall clock so that, on a host with fewer cores than workers, time
// a worker spends descheduled inside a task is not billed as work.

namespace itg {

ThreadPool::ThreadPool(int num_threads, Metrics* metrics)
    : num_threads_(std::max(1, num_threads)), metrics_(metrics) {
  queues_.reserve(static_cast<size_t>(num_threads_));
  for (int w = 0; w < num_threads_; ++w) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  batch_busy_.assign(static_cast<size_t>(num_threads_), 0);
  busy_nanos_.assign(static_cast<size_t>(num_threads_), 0);
  threads_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int w = 1; w < num_threads_; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<TimedMutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int ThreadPool::DefaultThreads() {
  const int cap = Metrics::kMaxTrackedThreads;
  if (const char* env = std::getenv("ITG_THREADS")) {
    int v = std::atoi(env);
    if (v > 0) return std::min(v, cap);
  }
  unsigned hc = std::thread::hardware_concurrency();
  int n = (hc == 0) ? 1 : static_cast<int>(hc);
  return std::min(n, cap);
}

uint64_t ThreadPool::total_busy_nanos() const {
  uint64_t total = caller_busy_nanos_;
  for (uint64_t n : busy_nanos_) total += n;
  return total;
}

bool ThreadPool::PopOwn(int w, size_t* task) {
  WorkerQueue& q = *queues_[static_cast<size_t>(w)];
  std::lock_guard<TimedMutex> lock(q.mu);
  if (q.tasks.empty()) return false;
  *task = q.tasks.front();
  q.tasks.pop_front();
  return true;
}

bool ThreadPool::StealTask(int w, size_t* task) {
  // Scan victims starting from the next worker; steal from the back so
  // the owner keeps the front of its contiguous (cache-friendly) range.
  for (int i = 1; i < num_threads_; ++i) {
    int victim = (w + i) % num_threads_;
    WorkerQueue& q = *queues_[static_cast<size_t>(victim)];
    std::lock_guard<TimedMutex> lock(q.mu);
    if (q.tasks.empty()) continue;
    *task = q.tasks.back();
    q.tasks.pop_back();
    steals_.fetch_add(1, std::memory_order_relaxed);
    TraceInstant("steal", "pool", victim);
    return true;
  }
  return false;
}

void ThreadPool::RunTasks(int w) {
  // Bill this worker's share of the batch to the scheduling query's
  // context. On the caller (worker 0) the context is typically already
  // current — re-entering is still correct (suspend/resume with disjoint
  // intervals), and a null context costs nothing.
  ResourceScope resources(batch_ctx_);
  uint64_t busy = 0;
  while (true) {
    size_t task;
    if (!PopOwn(w, &task) && !StealTask(w, &task)) {
      // Queues drained: this worker is about to park at the batch barrier.
      TraceInstant("park", "pool", w);
      break;
    }
    const uint64_t cpu0 = ThreadCpuNanos();
    (*fn_)(task, w);
    busy += ThreadCpuNanos() - cpu0;
  }
  batch_busy_[static_cast<size_t>(w)] = busy;
}

void ThreadPool::WorkerLoop(int w) {
  Tracer::SetThreadName("itg-worker-" + std::to_string(w));
  uint64_t seen_epoch = 0;
  while (true) {
    {
      std::unique_lock<TimedMutex> lock(mu_);
      wake_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
    }
    RunTasks(w);
    {
      std::lock_guard<TimedMutex> lock(mu_);
      ++drained_;
      if (drained_ == num_threads_) done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t num_tasks, const TaskFn& fn) {
  if (num_tasks == 0) return;
  if (num_threads_ == 1 || num_tasks == 1) {
    // Sequential fast path: no handoff, still metered — into the caller
    // lane, not worker 0's meter, so inline execution is attributed to
    // the thread that actually ran it. The caller's own ResourceScope
    // (if any) keeps accruing, so no attribution plumbing is needed here.
    const uint64_t cpu0 = ThreadCpuNanos();
    for (size_t i = 0; i < num_tasks; ++i) fn(i, 0);
    uint64_t nanos = ThreadCpuNanos() - cpu0;
    caller_busy_nanos_ += nanos;
    if (metrics_ != nullptr) metrics_->AddCallerCpuNanos(nanos);
    return;
  }

  fn_ = &fn;
  batch_ctx_ = CurrentResourceContext();
  std::fill(batch_busy_.begin(), batch_busy_.end(), 0);
  const uint64_t steals0 = steals_.load(std::memory_order_relaxed);

  // Deal contiguous ranges: worker w owns tasks [w*chunk, ...), so
  // neighboring start-vertex blocks stay on one worker unless stolen.
  const size_t per = (num_tasks + static_cast<size_t>(num_threads_) - 1) /
                     static_cast<size_t>(num_threads_);
  for (int w = 0; w < num_threads_; ++w) {
    size_t begin = std::min(num_tasks, static_cast<size_t>(w) * per);
    size_t end = std::min(num_tasks, begin + per);
    WorkerQueue& q = *queues_[static_cast<size_t>(w)];
    std::lock_guard<TimedMutex> lock(q.mu);
    ITG_CHECK(q.tasks.empty());
    for (size_t i = begin; i < end; ++i) q.tasks.push_back(i);
  }

  {
    std::lock_guard<TimedMutex> lock(mu_);
    ++epoch_;
    drained_ = 0;
  }
  wake_cv_.notify_all();

  RunTasks(0);  // the caller is worker 0

  // The batch ends when every worker has passed through the drain
  // barrier — not merely when all tasks finished — so no straggler can
  // observe the next batch's queues or task function.
  {
    std::unique_lock<TimedMutex> lock(mu_);
    ++drained_;
    done_cv_.wait(lock, [&] { return drained_ == num_threads_; });
  }

  for (int w = 0; w < num_threads_; ++w) {
    uint64_t nanos = batch_busy_[static_cast<size_t>(w)];
    busy_nanos_[static_cast<size_t>(w)] += nanos;
    if (metrics_ != nullptr && nanos > 0) {
      metrics_->AddThreadCpuNanos(w, nanos);
    }
  }
  if (metrics_ != nullptr) {
    uint64_t stolen = steals_.load(std::memory_order_relaxed) - steals0;
    if (stolen > 0) metrics_->AddSteals(stolen);
  }
  fn_ = nullptr;
  batch_ctx_ = nullptr;
}

}  // namespace itg
