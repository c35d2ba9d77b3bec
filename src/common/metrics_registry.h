#ifndef NEURSC_COMMON_METRICS_REGISTRY_H_
#define NEURSC_COMMON_METRICS_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"

// Process-wide metrics: named monotonic counters. Timings are not metrics:
// each query's stage times are in its EstimateInfo, and TraceSpan records
// trace events.
//
// Hot-path writes go through per-thread shards (each thread keeps one
// stripe for its lifetime), so ParallelFor workers record without
// contending on shared cache lines; readers merge the stripes on demand.
// All recording is wait-free relaxed atomics and safe from any thread.
//
// Use the NEURSC_COUNTER_* macros (below) on hot paths: they cache the name
// lookup in a function-local static. Setting the environment variable
// NEURSC_METRICS=off disables recording at runtime.

namespace neursc {

/// True unless NEURSC_METRICS=off|0 was set when the process started.
bool MetricsEnabled();

namespace internal_metrics {

/// Number of shard stripes. Threads take stripes round-robin in the order
/// they first record and keep them for their lifetime, so the first
/// kShardCount threads get distinct stripes; later ones share, which stays
/// correct (atomics) but may contend.
inline constexpr size_t kShardCount = 64;

/// Stripe index of the calling thread.
size_t ShardIndex();

struct alignas(64) PaddedCount {
  std::atomic<int64_t> value{0};
};

}  // namespace internal_metrics

/// Monotonically increasing sum (events, items processed).
class Counter {
 public:
  void Add(int64_t delta) {
    shards_[internal_metrics::ShardIndex()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  /// Merged value across all thread stripes.
  int64_t Value() const;
  void Reset();

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::array<internal_metrics::PaddedCount, internal_metrics::kShardCount>
      shards_;
};

struct CounterSnapshot {
  std::string name;
  int64_t value = 0;
};

/// Point-in-time copy of every registered counter, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;

  /// {"counters": {name: value, ...}}
  std::string ToJson() const;
  Status WriteJsonFile(const std::string& path) const;
};

/// Name -> counter directory. GetCounter registers on first use and returns
/// a pointer that stays valid for the life of the process.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);

  MetricsSnapshot Snapshot() const;
  /// Zeroes every counter in place (pointers stay valid). For tests and for
  /// scoping a report to one phase of a run.
  void Reset();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry() = default;

  /// Guards the name directory only; the returned counters are internally
  /// thread-safe (sharded atomics) and outlive the lock.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      NEURSC_GUARDED_BY(mu_);
};

/// Adds `delta` to the counter `name`; the registry lookup happens once per
/// call site (function-local static).
#define NEURSC_COUNTER_ADD(name, delta)                           \
  do {                                                            \
    if (::neursc::MetricsEnabled()) {                             \
      static ::neursc::Counter* neursc_counter_site_ =            \
          ::neursc::MetricsRegistry::Global().GetCounter(name);   \
      neursc_counter_site_->Add(delta);                           \
    }                                                             \
  } while (0)

#define NEURSC_COUNTER_INC(name) NEURSC_COUNTER_ADD(name, 1)

}  // namespace neursc

#endif  // NEURSC_COMMON_METRICS_REGISTRY_H_
