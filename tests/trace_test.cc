#include "common/trace.h"

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "core/neursc.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace neursc {
namespace {

/// Each test drives the global recorder, so serialize state around it.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::Global().Stop();
    TraceRecorder::Global().Clear();
  }
  void TearDown() override {
    TraceRecorder::Global().Stop();
    TraceRecorder::Global().Clear();
  }
};

TEST_F(TraceTest, DisabledByDefaultRecordsNothing) {
  { TraceSpan span("test/disabled"); }
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 0u);
}

TEST_F(TraceTest, SpanRecordsWhenEnabled) {
  TraceRecorder::Global().Start();
  { TraceSpan span("test/enabled"); }
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 1u);
}

TEST_F(TraceTest, EndIsIdempotent) {
  TraceRecorder::Global().Start();
  TraceSpan span("test/idempotent");
  span.End();
  span.End();
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 1u);
}

TEST_F(TraceTest, ElapsedSecondsGrowsAndFreezesAtEnd) {
  TraceSpan span("test/elapsed");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  span.End();
  double at_end = span.ElapsedSeconds();
  EXPECT_GE(at_end, 0.004);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_DOUBLE_EQ(span.ElapsedSeconds(), at_end);
}

TEST_F(TraceTest, ClearDiscardsBufferedEvents) {
  TraceRecorder::Global().Start();
  { TraceSpan span("test/cleared"); }
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 1u);
  TraceRecorder::Global().Clear();
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 0u);
}

TEST_F(TraceTest, WriteChromeTraceIsWellFormedAndNested) {
  TraceRecorder::Global().Start();
  {
    TraceSpan outer("test/outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      TraceSpan inner("test/inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::string path = ::testing::TempDir() + "/trace_test.json";
  Status st = TraceRecorder::Global().WriteChromeTrace(path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  // Writing stops the recorder.
  EXPECT_FALSE(TraceRecorder::Global().enabled());

  std::string json = testing_util::ReadFileToString(path);
  EXPECT_TRUE(testing_util::IsBalancedJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test/outer\""), std::string::npos);
  EXPECT_NE(json.find("\"test/inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  // Complete events carry timestamps and durations in microseconds.
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST_F(TraceTest, WriteChromeTraceReportsBadPath) {
  TraceRecorder::Global().Start();
  { TraceSpan span("test/badpath"); }
  Status st = TraceRecorder::Global().WriteChromeTrace(
      "/nonexistent-dir-xyz/trace.json");
  EXPECT_FALSE(st.ok());
}

TEST_F(TraceTest, EventsFromWorkerThreadsAreCollected) {
  TraceRecorder::Global().Start();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([]() {
      for (int i = 0; i < 8; ++i) {
        TraceSpan span("test/worker");
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 32u);
}

TEST_F(TraceTest, ThreadsThatRunOneAfterAnotherGetDistinctTids) {
  TraceRecorder::Global().Start();
  std::thread([] { TraceSpan span("test/first_thread"); }).join();
  std::thread([] { TraceSpan span("test/second_thread"); }).join();
  std::string path = ::testing::TempDir() + "/trace_tid_test.json";
  Status st = TraceRecorder::Global().WriteChromeTrace(path);
  ASSERT_TRUE(st.ok()) << st.ToString();

  // Each event is one line of the JSON; its tid is the last field.
  std::string json = testing_util::ReadFileToString(path);
  auto tid_of = [&json](const std::string& name) {
    size_t at = json.find("\"" + name + "\"");
    EXPECT_NE(at, std::string::npos) << name;
    if (at == std::string::npos) return std::string();
    size_t tid = json.find("\"tid\": ", at) + 7;
    return json.substr(tid, json.find('}', tid) - tid);
  };
  std::string first = tid_of("test/first_thread");
  std::string second = tid_of("test/second_thread");
  EXPECT_FALSE(first.empty());
  EXPECT_NE(first, second);
}

TEST_F(TraceTest, DisabledSpanOverheadIsSmall) {
  // With the recorder stopped, a span is two clock reads and an atomic
  // load. Bound the per-span cost loosely so the test stays robust on
  // loaded CI machines while still catching accidental locking or
  // allocation on the disabled path.
  constexpr int kSpans = 200000;
  TraceSpan total("test/overhead_total");
  for (int i = 0; i < kSpans; ++i) {
    TraceSpan span("test/overhead");
  }
  total.End();
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 0u);
  EXPECT_LT(total.ElapsedSeconds() / kSpans, 5e-6);
}

/// Names of the events in a Chrome trace written by WriteChromeTrace.
std::set<std::string> TraceEventNames(const std::string& json) {
  const std::string key = "{\"name\": \"";
  std::set<std::string> names;
  for (size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at)) {
    at += key.size();
    names.insert(json.substr(at, json.find('"', at) - at));
  }
  return names;
}

TEST_F(TraceTest, EveryCounterAndSpanNameIsDocumented) {
  // A short Train + EstimateBatch exercises every library stage; each
  // counter it registers and each span it traces must be listed (in
  // backticks) in the observability guide.
  const std::string doc = testing_util::ReadFileToString(
      std::string(NEURSC_SOURCE_DIR) + "/docs/observability.md");
  ASSERT_FALSE(doc.empty());
  Graph data = testing_util::MakeGraph(
      {0, 1, 0, 1, 0, 1, 0, 1},
      {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {6, 7}, {4, 6}});
  std::vector<Graph> queries = {
      testing_util::MakeGraph({0, 1}, {{0, 1}}),
      testing_util::MakeGraph({0, 1, 0}, {{0, 1}, {1, 2}}),
      testing_util::MakeGraph({1, 0, 1}, {{0, 1}, {1, 2}})};
  std::vector<TrainingExample> examples;
  for (const Graph& q : queries) examples.push_back({q, 4.0});
  NeurSCConfig config;
  config.epochs = 2;
  config.pretrain_epochs = 1;
  config.validation_fraction = 0.34;

  TraceRecorder::Global().Start();
  NeurSCEstimator estimator(data, config);
  ASSERT_TRUE(estimator.Train(examples).ok());
  ASSERT_TRUE(estimator.EstimateBatch(queries).ok());
  const std::string path = ::testing::TempDir() + "/trace_inventory.json";
  ASSERT_TRUE(TraceRecorder::Global().WriteChromeTrace(path).ok());

  auto documented = [&doc](const std::string& name) {
    return doc.find("`" + name + "`") != std::string::npos;
  };
  size_t counters = 0;
  for (const CounterSnapshot& counter :
       MetricsRegistry::Global().Snapshot().counters) {
    ++counters;
    EXPECT_TRUE(documented(counter.name)) << "counter " << counter.name;
  }
  EXPECT_GT(counters, 0u);
  const std::set<std::string> spans =
      TraceEventNames(testing_util::ReadFileToString(path));
  EXPECT_TRUE(spans.count("west/forward")) << "no forward pass traced";
  for (const std::string& span : spans) {
    EXPECT_TRUE(documented(span)) << "span " << span;
  }
}

}  // namespace
}  // namespace neursc
