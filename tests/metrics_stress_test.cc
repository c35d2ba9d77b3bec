// Concurrency stress for the observability layer: many threads hammer the
// same counters and trace recorder while readers snapshot
// concurrently. Run under NEURSC_SANITIZE=thread (see ci.sh) to prove the
// recording paths are race-free; the assertions also verify no updates are
// lost under contention.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace neursc {
namespace {

TEST(MetricsStressTest, ConcurrentCountersLoseNothing) {
  Counter* c = MetricsRegistry::Global().GetCounter("stress.counter");
  c->Reset();
  constexpr int kThreads = 8;
  constexpr int kIters = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < kIters; ++i) c->Increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->Value(), static_cast<int64_t>(kThreads) * kIters);
}

TEST(MetricsStressTest, CounterStaysExactAcrossMoreThreadsThanStripes) {
  // Threads keep their stripe for life, so once kShardCount threads have
  // recorded, later threads share stripes. Waves of at most 8 live threads
  // reach that path without starting all of them at once.
  Counter* c = MetricsRegistry::Global().GetCounter("stress.waves.counter");
  c->Reset();
  constexpr size_t kTotalThreads = 3 * internal_metrics::kShardCount;
  constexpr size_t kWave = 8;
  constexpr int kIters = 1000;
  for (size_t started = 0; started < kTotalThreads; started += kWave) {
    std::vector<std::thread> wave;
    for (size_t t = 0; t < kWave; ++t) {
      wave.emplace_back([c]() {
        for (int i = 0; i < kIters; ++i) c->Increment();
      });
    }
    for (auto& th : wave) th.join();
  }
  EXPECT_EQ(c->Value(), static_cast<int64_t>(kTotalThreads) * kIters);
}

TEST(MetricsStressTest, SnapshotWhileWritersRun) {
  Counter* c = MetricsRegistry::Global().GetCounter("stress.snap.counter");
  Counter* writes = MetricsRegistry::Global().GetCounter("stress.snap.writes");
  c->Reset();
  writes->Reset();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        c->Increment();
        writes->Add(2);
      }
    });
  }
  // Readers race the writers; a merged counter never goes backwards.
  int64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    for (const CounterSnapshot& counter : snap.counters) {
      if (counter.name != "stress.snap.counter") continue;
      EXPECT_GE(counter.value, last);
      last = counter.value;
    }
    std::string json = snap.ToJson();
    EXPECT_FALSE(json.empty());
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  EXPECT_EQ(2 * c->Value(), writes->Value());
}

TEST(MetricsStressTest, TracedSpansAcrossManyShortLivedThreads) {
  TraceRecorder::Global().Stop();
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Start();
  // ParallelFor runs on the persistent worker pool: repeated regions are
  // served by the same long-lived workers, so this exercises the
  // buffer/stripe paths under sustained reuse rather than thread churn.
  constexpr int kRounds = 20;
  constexpr size_t kTasks = 64;
  testing_util::ThreadsGuard guard(8);
  for (int round = 0; round < kRounds; ++round) {
    ParallelFor(kTasks, [](size_t) {
      NEURSC_SPAN(span, "stress/span");
      NEURSC_COUNTER_INC("stress.span.bodies");
    });
  }
  EXPECT_EQ(TraceRecorder::Global().EventCount(),
            static_cast<size_t>(kRounds) * kTasks);
  std::string path = ::testing::TempDir() + "/metrics_stress_trace.json";
  Status st = TraceRecorder::Global().WriteChromeTrace(path);
  EXPECT_TRUE(st.ok()) << st.ToString();
  TraceRecorder::Global().Clear();
}

TEST(MetricsStressTest, MixedWorkloadUnderContention) {
  TraceRecorder::Global().Stop();
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Start();
  std::atomic<bool> stop{false};
  std::thread snapshotter([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)MetricsRegistry::Global().Snapshot().ToJson();
      (void)TraceRecorder::Global().EventCount();
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&]() {
      for (int i = 0; i < 2000; ++i) {
        NEURSC_SPAN(span, "stress/mixed");
        NEURSC_COUNTER_ADD("stress.mixed.items", 2);
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true);
  snapshotter.join();
  EXPECT_EQ(
      MetricsRegistry::Global().GetCounter("stress.mixed.items")->Value() %
          2,
      0);
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 8u * 2000u);
  TraceRecorder::Global().Stop();
  TraceRecorder::Global().Clear();
}

}  // namespace
}  // namespace neursc
