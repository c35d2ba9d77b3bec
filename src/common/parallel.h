#ifndef NEURSC_COMMON_PARALLEL_H_
#define NEURSC_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace neursc {

/// Upper bound on NEURSC_THREADS. Larger values are clamped to it, so a
/// bad setting cannot make the pool spawn threads until thread creation
/// fails.
inline constexpr size_t kMaxThreadCount = 256;

/// Number of worker threads used by ParallelFor: the NEURSC_THREADS
/// environment variable if set (at most kMaxThreadCount), otherwise the
/// hardware concurrency (at least 1). Re-read on every call, so tests can
/// change the environment between invocations.
size_t DefaultThreadCount();

/// True iff the calling thread is executing ParallelFor tasks (a pool
/// worker, or the calling thread while it participates in its own region).
/// Nested ParallelFor calls from such threads run inline (serially)
/// instead of scheduling a second level of parallelism, so a parallel
/// outer loop whose body itself calls ParallelFor never oversubscribes
/// the host.
bool InParallelWorker();

/// Number of persistent pool workers currently spawned (diagnostics /
/// tests). Zero until the first multi-threaded ParallelFor call; the pool
/// is lazily initialized and grows to the largest thread count requested
/// so far, never shrinking.
size_t WorkerPoolThreadCount();

/// Runs fn(i) for i in [0, n) across DefaultThreadCount() threads.
/// Work is distributed by atomic counter, so uneven task costs balance.
/// fn must be safe to call concurrently for distinct i; results should be
/// written to pre-sized per-index slots. Deterministic output requires fn
/// itself to be deterministic per index (scheduling order is not).
///
/// Threads come from a lazily-initialized persistent worker pool (the
/// calling thread participates, so a call asking for N threads uses N-1
/// pool workers). Spawn/join overhead is paid once per process, not per
/// call — training issues thousands of small regions per run. One region
/// runs at a time; a ParallelFor from a second caller thread blocks until
/// the in-flight region completes.
///
/// Exceptions: if fn throws, the exception from the lowest failing index
/// *that ran* is rethrown on the calling thread after all workers have
/// finished the region. Once any task has thrown, workers stop claiming
/// new indices; tasks already in flight still run to completion. Output
/// slots of indices that were skipped after the failure are left
/// untouched.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

}  // namespace neursc

#endif  // NEURSC_COMMON_PARALLEL_H_
