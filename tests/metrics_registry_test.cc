#include "common/metrics_registry.h"

#include <algorithm>
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
  testing_util::ThreadsGuard guard(8);
  ParallelFor(kTasks, [&](size_t) { c->Add(3); });
  EXPECT_EQ(c->Value(), static_cast<int64_t>(3 * kTasks));
}

TEST(SnapshotTest, ContainsRegisteredMetricsSorted) {
  MetricsRegistry::Global().GetCounter("test.snap.a")->Add(7);
  MetricsRegistry::Global().GetCounter("test.snap.b")->Add(9);
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_TRUE(std::is_sorted(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& x, const auto& y) { return x.name < y.name; }));
  auto b = std::find_if(snap.counters.begin(), snap.counters.end(),
                        [](const auto& c) { return c.name == "test.snap.b"; });
  ASSERT_NE(b, snap.counters.end());
  EXPECT_GE(b->value, 9);
}

TEST(SnapshotTest, JsonIsBalancedAndQuoted) {
  MetricsRegistry::Global().GetCounter(R"(test.snap."quoted\name)")->Add(1);
  std::string json = MetricsRegistry::Global().Snapshot().ToJson();
  EXPECT_TRUE(testing_util::IsBalancedJson(json)) << json;
  // Counters are the only metric kind: {"counters": {...}}.
  EXPECT_EQ(json.rfind("{\n  \"counters\": {", 0), 0u) << json;
  EXPECT_EQ(json.find("\"gauges\""), std::string::npos);
  EXPECT_EQ(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find(R"("test.snap.\"quoted\\name": )"), std::string::npos)
      << json;
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

TEST(RegistryTest, ResetZeroesButKeepsPointers) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.reset.counter");
  c->Add(5);
  MetricsRegistry::Global().Reset();
  EXPECT_EQ(c->Value(), 0);
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("test.reset.counter"), c);
  c->Add(2);
  EXPECT_EQ(c->Value(), 2);
}

}  // namespace
}  // namespace neursc
