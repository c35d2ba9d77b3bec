#include "common/parallel.h"

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace neursc {
namespace {

using testing_util::ThreadsGuard;

TEST(ParallelForTest, VisitsEveryIndexOnce) {
  const size_t n = 1000;
  std::vector<std::atomic<int>> visits(n);
  ThreadsGuard guard(4);
  ParallelFor(n, [&](size_t i) { visits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelForTest, ZeroItemsIsNoOp) {
  bool called = false;
  ParallelFor(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SingleThreadFallback) {
  std::vector<size_t> order;
  ThreadsGuard guard(1);
  ParallelFor(5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, ResultsDeterministicPerSlot) {
  const size_t n = 200;
  std::vector<double> a(n);
  std::vector<double> b(n);
  ThreadsGuard guard(4);
  auto fill = [](std::vector<double>* out) {
    ParallelFor(out->size(), [out](size_t i) {
      (*out)[i] = static_cast<double>(i) * 1.5;
    });
  };
  fill(&a);
  fill(&b);
  EXPECT_EQ(a, b);
}

TEST(ParallelForTest, MoreThreadsThanItems) {
  std::vector<std::atomic<int>> visits(3);
  ThreadsGuard guard(16);
  ParallelFor(3, [&](size_t i) { visits[i].fetch_add(1); });
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelForTest, DefaultThreadCountPositive) {
  EXPECT_GE(DefaultThreadCount(), 1u);
}

// Reads the count only: no region runs, so no thread is started.
TEST(ParallelForTest, DefaultThreadCountClampsHugeEnvValue) {
  const char* old = std::getenv("NEURSC_THREADS");
  const bool had_old = old != nullptr;
  const std::string saved = had_old ? old : "";
  setenv("NEURSC_THREADS", "100000", 1);
  const size_t count = DefaultThreadCount();
  if (had_old) {
    setenv("NEURSC_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("NEURSC_THREADS");
  }
  EXPECT_LE(count, 256u);
  EXPECT_EQ(count, kMaxThreadCount);
}

TEST(ParallelForTest, PropagatesWorkerException) {
  ThreadsGuard guard(4);
  EXPECT_THROW(
      ParallelFor(100, [](size_t i) {
        if (i == 37) throw std::runtime_error("task 37 failed");
      }),
      std::runtime_error);
}

TEST(ParallelForTest, PropagatesExceptionMessage) {
  ThreadsGuard guard(8);
  try {
    ParallelFor(64, [](size_t i) {
      if (i >= 60) throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("boom ", 0), 0u);
  }
}

TEST(ParallelForTest, PropagatesSerialException) {
  ThreadsGuard guard(1);
  EXPECT_THROW(
      ParallelFor(10, [](size_t i) {
        if (i == 3) throw std::logic_error("serial failure");
      }),
      std::logic_error);
}

TEST(ParallelForTest, StopsClaimingWorkAfterException) {
  std::atomic<size_t> executed{0};
  ThreadsGuard guard(4);
  try {
    ParallelFor(100000, [&](size_t i) {
      executed.fetch_add(1);
      if (i == 0) throw std::runtime_error("early failure");
    });
  } catch (const std::runtime_error&) {
  }
  // Workers stop claiming new indices once a task has thrown; with the
  // failure on the very first index, the vast majority must be skipped.
  EXPECT_LT(executed.load(), 100000u);
}

TEST(ParallelForTest, SurvivesExceptionAndRemainsUsable) {
  ThreadsGuard guard(4);
  try {
    ParallelFor(16, [](size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::vector<std::atomic<int>> visits(50);
  ParallelFor(50, [&](size_t i) { visits[i].fetch_add(1); });
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(WorkerPoolTest, PoolPersistsAcrossInvocations) {
  // Warm the pool, then check that repeated regions neither shrink nor
  // regrow it: the helpers stay parked between calls.
  ThreadsGuard guard(4);
  ParallelFor(64, [](size_t) {});
  size_t after_first = WorkerPoolThreadCount();
  EXPECT_GE(after_first, 3u);  // 4 requested threads = caller + 3 helpers
  for (int round = 0; round < 5; ++round) {
    ParallelFor(64, [](size_t) {});
    EXPECT_EQ(WorkerPoolThreadCount(), after_first) << "round=" << round;
  }
}

TEST(WorkerPoolTest, PoolGrowsToLargestRequest) {
  size_t small = 0;
  {
    ThreadsGuard guard(2);
    ParallelFor(32, [](size_t) {});
    small = WorkerPoolThreadCount();
  }
  size_t large = 0;
  {
    ThreadsGuard guard(6);
    ParallelFor(32, [](size_t) {});
    large = WorkerPoolThreadCount();
  }
  EXPECT_GE(large, 5u);
  EXPECT_GE(large, small);
  // Shrinking requests keep the grown pool (idle helpers just sleep).
  ThreadsGuard guard(2);
  ParallelFor(32, [](size_t) {});
  EXPECT_EQ(WorkerPoolThreadCount(), large);
}

TEST(WorkerPoolTest, ConcurrentCallersBothComplete) {
  // Two caller threads contend for the pool; regions serialize on the
  // region mutex but both must finish with every index visited once.
  const size_t n = 5000;
  std::vector<std::atomic<int>> a(n);
  std::vector<std::atomic<int>> b(n);
  ThreadsGuard guard(4);
  std::thread t1([&] { ParallelFor(n, [&](size_t i) { a[i].fetch_add(1); }); });
  std::thread t2([&] { ParallelFor(n, [&](size_t i) { b[i].fetch_add(1); }); });
  t1.join();
  t2.join();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(a[i].load(), 1);
    EXPECT_EQ(b[i].load(), 1);
  }
}

TEST(WorkerPoolTest, ThrowingBodyCannotDeadlockWaitingRegions) {
  // Regression for the lock-free-callback contract: a region whose body
  // throws must release region ownership before the exception is
  // rethrown, so callers queued for the next region always proceed. Run
  // several rounds of one throwing caller racing several clean callers.
  const size_t n = 2000;
  ThreadsGuard guard(4);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> clean_done{0};
    std::atomic<bool> threw{false};
    std::thread thrower([&] {
      try {
        ParallelFor(n, [](size_t i) {
          if (i % 7 == 0) throw std::runtime_error("poisoned index");
        });
      } catch (const std::runtime_error&) {
        threw.store(true);
      }
    });
    std::vector<std::thread> clean;
    for (int t = 0; t < 3; ++t) {
      clean.emplace_back([&] {
        std::vector<std::atomic<int>> visits(n);
        ParallelFor(n, [&](size_t i) { visits[i].fetch_add(1); });
        for (size_t i = 0; i < n; ++i) ASSERT_EQ(visits[i].load(), 1);
        clean_done.fetch_add(1);
      });
    }
    thrower.join();
    for (auto& t : clean) t.join();
    EXPECT_TRUE(threw.load()) << "round=" << round;
    EXPECT_EQ(clean_done.load(), 3) << "round=" << round;
  }
}

TEST(WorkerPoolTest, BodiesRunWithoutPoolLocksHeld) {
  // WorkerPoolThreadCount() takes the pool mutex; if Run() held any pool
  // lock while invoking user callbacks, the caller-participant's body
  // calling it here would self-deadlock.
  std::atomic<size_t> observed{0};
  ThreadsGuard guard(4);
  ParallelFor(64, [&](size_t) {
    observed.store(WorkerPoolThreadCount(), std::memory_order_relaxed);
  });
  EXPECT_GE(observed.load(), 3u);
}

TEST(ParallelForTest, NestedParallelForRunsInline) {
  const size_t outer = 8;
  const size_t inner = 16;
  std::vector<std::vector<int>> hits(outer, std::vector<int>(inner, 0));
  std::vector<int> inline_flags(outer, 0);
  ThreadsGuard guard(4);
  ParallelFor(outer, [&](size_t i) {
    EXPECT_TRUE(InParallelWorker());
    // The nested call must execute on this same worker thread, in order.
    ParallelFor(inner, [&, i](size_t j) { hits[i][j] += 1; });
    inline_flags[i] = 1;
  });
  EXPECT_FALSE(InParallelWorker());
  for (size_t i = 0; i < outer; ++i) {
    EXPECT_EQ(inline_flags[i], 1);
    for (size_t j = 0; j < inner; ++j) EXPECT_EQ(hits[i][j], 1);
  }
}

}  // namespace
}  // namespace neursc
