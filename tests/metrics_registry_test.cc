#include "common/metrics_registry.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace neursc {
namespace {

TEST(CounterTest, AddAndValue) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.counter.basic");
  c->Reset();
  EXPECT_EQ(c->Value(), 0);
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42);
  c->Reset();
  EXPECT_EQ(c->Value(), 0);
}

TEST(CounterTest, SameNameSamePointer) {
  Counter* a = MetricsRegistry::Global().GetCounter("test.counter.shared");
  Counter* b = MetricsRegistry::Global().GetCounter("test.counter.shared");
  EXPECT_EQ(a, b);
}

TEST(CounterTest, MergesAcrossParallelForThreads) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.counter.parallel");
  c->Reset();
  const size_t kTasks = 10000;
  ParallelFor(kTasks, [&](size_t) { c->Add(3); }, /*num_threads=*/8);
  EXPECT_EQ(c->Value(), static_cast<int64_t>(3 * kTasks));
}

TEST(GaugeTest, LastWriteWins) {
  Gauge* g = MetricsRegistry::Global().GetGauge("test.gauge");
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->Value(), 2.5);
  g->Set(-1.0);
  EXPECT_DOUBLE_EQ(g->Value(), -1.0);
  g->Reset();
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
}

TEST(HistogramTest, BucketIndexIsMonotone) {
  size_t prev = Histogram::BucketIndex(0.0);
  EXPECT_EQ(prev, 0u);
  for (double v = 1e-9; v < 1e8; v *= 1.05) {
    size_t idx = Histogram::BucketIndex(v);
    EXPECT_GE(idx, prev) << "value " << v;
    EXPECT_LT(idx, Histogram::kNumBuckets);
    prev = idx;
  }
}

TEST(HistogramTest, BucketRepresentativeLandsInOwnBucket) {
  for (double v : {1e-8, 3.7e-4, 0.5, 1.0, 2.0, 123.0, 7.5e6}) {
    size_t idx = Histogram::BucketIndex(v);
    double rep = Histogram::BucketRepresentative(idx);
    EXPECT_EQ(Histogram::BucketIndex(rep), idx) << "value " << v;
    // The representative is within one bucket width (~9%) of any member.
    EXPECT_NEAR(rep / v, 1.0, 0.10) << "value " << v;
  }
}

TEST(HistogramTest, ExactCountSumMinMax) {
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.hist.exact");
  h->Reset();
  double sum = 0.0;
  for (int i = 1; i <= 100; ++i) {
    h->Record(static_cast<double>(i));
    sum += i;
  }
  EXPECT_EQ(h->Count(), 100u);
  EXPECT_DOUBLE_EQ(h->Sum(), sum);
  EXPECT_DOUBLE_EQ(h->Min(), 1.0);
  EXPECT_DOUBLE_EQ(h->Max(), 100.0);
  EXPECT_DOUBLE_EQ(h->Mean(), sum / 100.0);
}

TEST(HistogramTest, PercentilesWithinBucketResolution) {
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.hist.pct");
  h->Reset();
  for (int i = 1; i <= 1000; ++i) h->Record(static_cast<double>(i));
  // Buckets are ~9% wide, so allow 10% relative error on the order statistic.
  EXPECT_NEAR(h->Percentile(0.5), 500.0, 50.0);
  EXPECT_NEAR(h->Percentile(0.95), 950.0, 95.0);
  EXPECT_NEAR(h->Percentile(0.99), 990.0, 99.0);
  // The extremes are exact: clamped to the observed min and max.
  EXPECT_DOUBLE_EQ(h->Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h->Percentile(1.0), 1000.0);
}

TEST(HistogramTest, ZeroAndNegativeGoToZeroBucket) {
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.hist.zero");
  h->Reset();
  h->Record(0.0);
  h->Record(-5.0);
  h->Record(1.0);
  EXPECT_EQ(h->Count(), 3u);
  EXPECT_DOUBLE_EQ(h->Min(), -5.0);
  EXPECT_DOUBLE_EQ(h->Max(), 1.0);
}

TEST(HistogramTest, BucketIndexPinnedValues) {
  // UBSan-audit regression pins (ci.sh stage 6): the +inf guard added to
  // BucketIndex (casting frexp's unspecified-exponent inf mantissa was
  // float-cast-overflow UB) must not move any finite value's bucket.
  // These constants are the pre-fix bucket assignments.
  EXPECT_EQ(Histogram::kNumBuckets, 513u);
  EXPECT_EQ(Histogram::BucketIndex(1e-3), 201u);
  EXPECT_EQ(Histogram::BucketIndex(0.5), 273u);
  EXPECT_EQ(Histogram::BucketIndex(1.0), 281u);
  EXPECT_EQ(Histogram::BucketIndex(3.14159), 293u);
}

TEST(HistogramTest, NonFiniteValuesClampToEndBuckets) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // +inf is "outside the range upward": the overflow bucket, like any
  // too-large finite value. NaN and -inf fail (value > 0) and land in the
  // zero bucket.
  EXPECT_EQ(Histogram::BucketIndex(inf), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(-inf), 0u);
  EXPECT_EQ(Histogram::BucketIndex(nan), 0u);

  Histogram* h = MetricsRegistry::Global().GetHistogram("test.hist.nonfinite");
  h->Reset();
  h->Record(inf);
  h->Record(1.0);
  EXPECT_EQ(h->Count(), 2u);
  EXPECT_DOUBLE_EQ(h->Min(), 1.0);
  EXPECT_EQ(h->Max(), inf);
}

TEST(HistogramTest, CountMergesAcrossParallelForThreads) {
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.hist.parallel");
  h->Reset();
  const size_t kTasks = 5000;
  ParallelFor(kTasks,
              [&](size_t i) { h->Record(1e-3 * static_cast<double>(i + 1)); },
              /*num_threads=*/8);
  EXPECT_EQ(h->Count(), kTasks);
  EXPECT_DOUBLE_EQ(h->Min(), 1e-3);
  EXPECT_DOUBLE_EQ(h->Max(), 1e-3 * static_cast<double>(kTasks));
}

TEST(SnapshotTest, ContainsRegisteredMetricsSorted) {
  MetricsRegistry::Global().GetCounter("test.snap.a")->Add(7);
  MetricsRegistry::Global().GetCounter("test.snap.b")->Add(9);
  MetricsRegistry::Global().GetHistogram("test.snap.h")->Record(0.25);
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_TRUE(std::is_sorted(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& x, const auto& y) { return x.name < y.name; }));
  const HistogramSnapshot* h = snap.FindHistogram("test.snap.h");
  ASSERT_NE(h, nullptr);
  EXPECT_GE(h->count, 1u);
  EXPECT_EQ(snap.FindHistogram("test.snap.missing"), nullptr);
}

TEST(SnapshotTest, JsonIsBalancedAndQuoted) {
  MetricsRegistry::Global().GetCounter(R"(test.snap."quoted\name)")->Add(1);
  std::string json = MetricsRegistry::Global().Snapshot().ToJson();
  EXPECT_TRUE(testing_util::IsBalancedJson(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(SnapshotTest, WriteJsonFileRoundTrips) {
  MetricsRegistry::Global().GetCounter("test.snap.file")->Add(3);
  std::string path = ::testing::TempDir() + "/metrics_registry_test.json";
  Status st = MetricsRegistry::Global().Snapshot().WriteJsonFile(path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::string contents = testing_util::ReadFileToString(path);
  EXPECT_TRUE(testing_util::IsBalancedJson(contents));
  EXPECT_NE(contents.find("test.snap.file"), std::string::npos);
}

TEST(SnapshotTest, WriteJsonFileReportsBadPath) {
  Status st = MetricsRegistry::Global().Snapshot().WriteJsonFile(
      "/nonexistent-dir-xyz/metrics.json");
  EXPECT_FALSE(st.ok());
}

TEST(MacroTest, CounterMacroAccumulates) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.macro.counter");
  c->Reset();
  for (int i = 0; i < 5; ++i) NEURSC_COUNTER_INC("test.macro.counter");
  NEURSC_COUNTER_ADD("test.macro.counter", 10);
  EXPECT_EQ(c->Value(), 15);
}

TEST(MacroTest, HistogramMacroRecords) {
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.macro.hist");
  h->Reset();
  NEURSC_HISTOGRAM_RECORD("test.macro.hist", 0.125);
  EXPECT_EQ(h->Count(), 1u);
  EXPECT_DOUBLE_EQ(h->Min(), 0.125);
}

TEST(RegistryTest, ResetZeroesButKeepsPointers) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.reset.counter");
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.reset.hist");
  c->Add(5);
  h->Record(1.0);
  MetricsRegistry::Global().Reset();
  EXPECT_EQ(c->Value(), 0);
  EXPECT_EQ(h->Count(), 0u);
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("test.reset.counter"), c);
  c->Add(2);
  EXPECT_EQ(c->Value(), 2);
}

}  // namespace
}  // namespace neursc
