#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"

namespace neursc {
namespace {

// Sink that keeps busy-loops from being optimized away without the
// deprecated volatile compound assignment.
double benchmark_dont_optimize_sink = 0.0;

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesMessage) {
  Status st = Status::InvalidArgument("bad vertex");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad vertex");
}

TEST(StatusTest, CodePredicates) {
  EXPECT_TRUE(Status::Timeout("x").IsTimeout());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_FALSE(Status::IOError("x").IsTimeout());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}


Status FailingStep() { return Status::NotFound("missing"); }

Status UsesReturnIfError(bool fail) {
  if (fail) {
    NEURSC_RETURN_IF_ERROR(FailingStep());
  }
  NEURSC_RETURN_IF_ERROR(Status::OK());
  return Status::OK();
}

TEST(StatusMacroTest, PropagatesError) {
  EXPECT_TRUE(UsesReturnIfError(false).ok());
  Status st = UsesReturnIfError(true);
  EXPECT_TRUE(st.IsNotFound());
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ZipfStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Zipf(50, 1.2);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 50);
  }
}

TEST(RngTest, ZipfIsSkewed) {
  Rng rng(6);
  size_t low = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Zipf(100, 1.5) <= 10) ++low;
  }
  // Heavy head: far more than the uniform 10%.
  EXPECT_GT(low, 4000u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(7);
  std::vector<int> v = {1, 2, 3, 4, 5};
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-2.5, 7.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 7.5);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(TimerTest, MeasuresElapsed) {
  Timer timer;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  benchmark_dont_optimize_sink = sink;
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  EXPECT_GE(timer.ElapsedMicros(), 0);
}

TEST(DeadlineTest, NoneNeverExpires) {
  Deadline d = Deadline::None();
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingSeconds(), 1e9);
}

TEST(DeadlineTest, NoDeadlineRemainingIsInfinite) {
  Deadline d = Deadline::None();
  EXPECT_TRUE(std::isinf(d.RemainingSeconds()));
  EXPECT_EQ(d.RemainingSeconds(), Deadline::kNoDeadline);
  // Arithmetic downstream of an unlimited budget stays well-behaved.
  EXPECT_TRUE(d.RemainingSeconds() > 1e18);
  EXPECT_TRUE(std::isinf(d.RemainingSeconds() - 1e18));
}

TEST(DeadlineTest, FiniteBudgetIsNotInfinite) {
  Deadline d(60.0);
  EXPECT_FALSE(std::isinf(d.RemainingSeconds()));
  EXPECT_LE(d.RemainingSeconds(), 60.0);
}

TEST(DeadlineTest, TinyBudgetExpires) {
  Deadline d(1e-9);
  double sink = 0;
  for (int i = 0; i < 10000; ++i) sink += i;
  benchmark_dont_optimize_sink = sink;
  EXPECT_TRUE(d.Expired());
}

TEST(LoggingTest, LevelsOrdered) {
  EXPECT_LT(static_cast<int>(LogLevel::kDebug),
            static_cast<int>(LogLevel::kInfo));
  internal_logging::SetLogLevel(LogLevel::kWarning);
  EXPECT_EQ(internal_logging::GetLogLevel(), LogLevel::kWarning);
  internal_logging::SetLogLevel(LogLevel::kInfo);
}

TEST(LoggingTest, ConcurrentEmitDoesNotInterleaveOrCrash) {
  internal_logging::SetLogLevel(LogLevel::kInfo);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t]() {
      for (int i = 0; i < 50; ++i) {
        NEURSC_LOG(Debug) << "thread " << t << " line " << i;  // filtered out
        if (i % 25 == 0) NEURSC_LOG(Info) << "thread " << t << " line " << i;
      }
    });
  }
  for (auto& th : threads) th.join();
}

}  // namespace
}  // namespace neursc
