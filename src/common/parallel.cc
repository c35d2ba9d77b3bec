#include "common/parallel.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/mutex.h"

namespace neursc {

namespace {

thread_local bool in_parallel_worker = false;

/// Shared state of one ParallelFor region. Lives on the calling thread's
/// stack; workers only touch it between joining the job (under the pool
/// mutex) and decrementing the active count (under the pool mutex), so the
/// caller can safely destroy it once no worker is active.
struct Job {
  const std::function<void(size_t)>* fn = nullptr;
  size_t n = 0;
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  Mutex error_mu;
  std::exception_ptr first_error NEURSC_GUARDED_BY(error_mu);
  size_t first_error_index NEURSC_GUARDED_BY(error_mu) = 0;
};

/// Claims indices off `job` until the range is exhausted or a task has
/// failed. Runs on workers and on the calling thread alike; no pool lock
/// is held here, so user callbacks execute lock-free (a body may safely
/// block on work completed by other threads, call WorkerPoolThreadCount(),
/// or throw without any lock in flight).
void RunJobTasks(Job* job) {
  for (size_t i = job->next.fetch_add(1); i < job->n;
       i = job->next.fetch_add(1)) {
    if (job->failed.load(std::memory_order_relaxed)) break;
    try {
      (*job->fn)(i);
    } catch (...) {
      job->failed.store(true, std::memory_order_relaxed);
      MutexLock lock(&job->error_mu);
      // Keep the exception of the lowest failing index that ran.
      if (!job->first_error || i < job->first_error_index) {
        job->first_error_index = i;
        job->first_error = std::current_exception();
      }
    }
  }
}

/// Lazily-initialized persistent worker pool. Training issues thousands of
/// small ParallelFor regions per run; spawning and joining threads per call
/// would dominate those regions, so workers are spawned once (growing on
/// demand up to the largest thread count ever requested) and parked on a
/// condition variable between regions.
///
/// One region runs at a time: a second caller blocks in Run() until the
/// first completes. Region exclusivity is a CondVar-guarded flag rather
/// than a mutex held for the region's duration, so no lock whatsoever is
/// held while user callbacks run — and the error rethrow happens after the
/// flag is cleared, so a throwing body can never leave a waiting region
/// stuck. The calling thread participates in its own region, so a region
/// asking for N threads uses N-1 pool workers.
class WorkerPool {
 public:
  static WorkerPool& Instance() {
    static WorkerPool pool;
    return pool;
  }

  void Run(size_t n, const std::function<void(size_t)>& fn,
           size_t num_threads) NEURSC_EXCLUDES(mu_) {
    Job job;
    job.fn = &fn;
    job.n = n;
    const size_t helpers = num_threads - 1;
    mu_.Lock();
    while (region_active_) region_cv_.Wait(&mu_);
    region_active_ = true;
    while (threads_.size() < helpers) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
    current_ = &job;
    ++job_seq_;
    joiners_left_ = helpers;
    mu_.Unlock();
    cv_.SignalAll();
    // The caller works too, with worker semantics so nested ParallelFor
    // calls from its tasks run inline like they do on pool workers.
    in_parallel_worker = true;
    RunJobTasks(&job);
    in_parallel_worker = false;
    mu_.Lock();
    // No worker may join once current_ is cleared; joining and clearing
    // are both under mu_, so after the drain below the job is unreachable
    // and the region slot can be handed to the next caller.
    current_ = nullptr;
    while (active_ != 0) done_cv_.Wait(&mu_);
    region_active_ = false;
    mu_.Unlock();
    region_cv_.SignalAll();
    // Rethrow with the region already released: a throwing body cannot
    // deadlock callers waiting for the next region (parallel_test.cc).
    std::exception_ptr first_error;
    {
      MutexLock lock(&job.error_mu);
      first_error = job.first_error;
    }
    if (first_error) std::rethrow_exception(first_error);
  }

  size_t ThreadCount() NEURSC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return threads_.size();
  }

  ~WorkerPool() {
    std::vector<std::thread> threads;
    {
      MutexLock lock(&mu_);
      shutdown_ = true;
      // Joining must happen unlocked (workers need mu_ to observe
      // shutdown_), so take ownership of the handles under the lock.
      threads.swap(threads_);
    }
    cv_.SignalAll();
    for (auto& t : threads) t.join();
  }

 private:
  WorkerPool() = default;

  void WorkerLoop() NEURSC_EXCLUDES(mu_) {
    in_parallel_worker = true;
    uint64_t seen_seq = 0;
    mu_.Lock();
    while (true) {
      while (!shutdown_ && (current_ == nullptr || job_seq_ == seen_seq ||
                            joiners_left_ == 0)) {
        cv_.Wait(&mu_);
      }
      if (shutdown_) break;
      seen_seq = job_seq_;
      Job* job = current_;
      --joiners_left_;
      ++active_;
      mu_.Unlock();
      RunJobTasks(job);
      mu_.Lock();
      if (--active_ == 0) done_cv_.SignalAll();
    }
    mu_.Unlock();
  }

  // Guards all fields below plus job join/leave transitions. Leaf lock:
  // never held while user callbacks run or while another lock is taken
  // (lock hierarchy table in docs/threading.md).
  Mutex mu_;
  CondVar cv_;         // workers park here between regions
  CondVar done_cv_;    // caller drains its region's workers
  CondVar region_cv_;  // callers queue here for region exclusivity
  std::vector<std::thread> threads_ NEURSC_GUARDED_BY(mu_);
  // True while some caller owns the (single) region slot.
  bool region_active_ NEURSC_GUARDED_BY(mu_) = false;
  Job* current_ NEURSC_GUARDED_BY(mu_) = nullptr;
  // Bumped per region so a worker joins each job at most once.
  uint64_t job_seq_ NEURSC_GUARDED_BY(mu_) = 0;
  // How many workers may still join the current job (a region may use
  // fewer workers than the pool holds).
  size_t joiners_left_ NEURSC_GUARDED_BY(mu_) = 0;
  // Workers currently inside RunJobTasks for the current job.
  size_t active_ NEURSC_GUARDED_BY(mu_) = 0;
  bool shutdown_ NEURSC_GUARDED_BY(mu_) = false;
};

}  // namespace

size_t DefaultThreadCount() {
  const char* env = std::getenv("NEURSC_THREADS");
  if (env != nullptr) {
    long parsed = std::strtol(env, nullptr, 10);
    if (parsed > static_cast<long>(kMaxThreadCount)) {
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true)) {
        NEURSC_LOG(Warning) << "NEURSC_THREADS=" << env << " exceeds "
                            << kMaxThreadCount << "; using "
                            << kMaxThreadCount;
      }
      return kMaxThreadCount;
    }
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

bool InParallelWorker() { return in_parallel_worker; }

size_t WorkerPoolThreadCount() {
  return WorkerPool::Instance().ThreadCount();
}

void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // Nested parallelism runs inline: the outer loop already owns the
  // worker threads, and exceptions propagate naturally to the outer task.
  if (in_parallel_worker) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const size_t num_threads = std::min(DefaultThreadCount(), n);
  NEURSC_COUNTER_INC("parallel.invocations");
  NEURSC_COUNTER_ADD("parallel.tasks", static_cast<int64_t>(n));
  if (num_threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  WorkerPool::Instance().Run(n, fn, num_threads);
}

}  // namespace neursc
