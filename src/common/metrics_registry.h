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

// Process-wide metrics: named counters, gauges, and log-bucketed histograms.
//
// Hot-path writes go through per-thread shards (a leased stripe per live
// thread, recycled on thread exit), so ParallelFor workers record without
// contending on shared cache lines; readers merge the stripes on demand.
// All recording is wait-free relaxed atomics and safe from any thread.
//
// Use the NEURSC_COUNTER_* / NEURSC_HISTOGRAM_* macros (below) on hot paths:
// they cache the name lookup in a function-local static. Setting the
// environment variable NEURSC_METRICS=off disables recording at runtime.

namespace neursc {

/// True unless NEURSC_METRICS=off|0 was set when the process started.
bool MetricsEnabled();

namespace internal_metrics {

/// Number of shard stripes. Threads lease distinct stripes while alive (the
/// lease returns to a free list on thread exit); if more than kShardCount
/// threads are live at once the excess hash onto shared stripes, which stays
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

/// Last-write-wins instantaneous value (thread counts, queue depths).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// Log-bucketed histogram of non-negative doubles (durations in seconds,
/// sizes). Buckets cover [2^-34, 2^30) with kSubBuckets per power of two
/// (relative bucket width 2^(1/8) ~ 9%); values outside clamp to the end
/// buckets and zeros/negatives land in a dedicated first bucket.
class Histogram {
 public:
  static constexpr int kMinExp = -34;   // frexp exponent of smallest octave
  static constexpr int kMaxExp = 30;    // one past the largest octave
  static constexpr size_t kSubBuckets = 8;
  static constexpr size_t kNumBuckets =
      1 + static_cast<size_t>(kMaxExp - kMinExp) * kSubBuckets;

  void Record(double value);

  /// Merged statistics. Percentile interpolates inside the winning bucket's
  /// geometric span, so the result is within one bucket width (~9% relative)
  /// of the exact order statistic.
  uint64_t Count() const;
  double Sum() const;
  double Min() const;
  double Max() const;
  double Percentile(double q) const;  // q in [0, 1]
  double Mean() const;
  void Reset();

  /// Bucket index for `value` (exposed for tests).
  static size_t BucketIndex(double value);
  /// Geometric midpoint of bucket `index` (0 for the zero bucket).
  static double BucketRepresentative(size_t index);

 private:
  friend class MetricsRegistry;
  Histogram() = default;

  /// One thread's stripe, lazily allocated on first record from that stripe.
  struct Stripe {
    std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{1e300};
    std::atomic<double> max{-1e300};
    std::atomic<uint64_t> count{0};
  };

  Stripe* GetStripe(size_t index);
  void MergeBuckets(std::array<uint64_t, kNumBuckets>* out) const;

  std::array<std::atomic<Stripe*>, internal_metrics::kShardCount> stripes_{};

 public:
  ~Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;
};

struct CounterSnapshot {
  std::string name;
  int64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}
  std::string ToJson() const;
  Status WriteJsonFile(const std::string& path) const;

  /// The histogram named `name`, or nullptr.
  const HistogramSnapshot* FindHistogram(const std::string& name) const;
};

/// Name -> metric directory. Get* registers on first use and returns a
/// pointer that stays valid for the life of the process; looking up an
/// existing name with a different kind is a programmer error (checked).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;
  /// Zeroes every metric in place (pointers stay valid). For tests and for
  /// scoping a report to one phase of a run.
  void Reset();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry() = default;

  /// Guards the name directories only; the returned metric objects are
  /// internally thread-safe (sharded atomics) and outlive the lock.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      NEURSC_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      NEURSC_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
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

#define NEURSC_GAUGE_SET(name, value)                             \
  do {                                                            \
    if (::neursc::MetricsEnabled()) {                             \
      static ::neursc::Gauge* neursc_gauge_site_ =                \
          ::neursc::MetricsRegistry::Global().GetGauge(name);     \
      neursc_gauge_site_->Set(value);                             \
    }                                                             \
  } while (0)

#define NEURSC_HISTOGRAM_RECORD(name, value)                      \
  do {                                                            \
    if (::neursc::MetricsEnabled()) {                             \
      static ::neursc::Histogram* neursc_histogram_site_ =        \
          ::neursc::MetricsRegistry::Global().GetHistogram(name); \
      neursc_histogram_site_->Record(value);                      \
    }                                                             \
  } while (0)

}  // namespace neursc

#endif  // NEURSC_COMMON_METRICS_REGISTRY_H_
