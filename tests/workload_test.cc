#include "eval/workload.h"

#include <cstdlib>
#include <set>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "matching/enumeration.h"

namespace neursc {
namespace {

Graph SmallData() {
  auto g = GenerateErdosRenyiGraph(150, 450, 5, 21);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(WorkloadTest, BuildsRequestedSizes) {
  Graph data = SmallData();
  auto workload = BuildWorkload(data, {3, 4}, 10);
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ(workload->examples.size(), workload->sizes.size());
  EXPECT_EQ(workload->IndicesOfSize(3).size() +
                workload->IndicesOfSize(4).size(),
            workload->examples.size());
  for (size_t i : workload->IndicesOfSize(3)) {
    EXPECT_EQ(workload->examples[i].query.NumVertices(), 3u);
  }
}

TEST(WorkloadTest, GroundTruthMatchesEnumeration) {
  Graph data = SmallData();
  auto workload = BuildWorkload(data, {4}, 5);
  ASSERT_TRUE(workload.ok());
  for (const auto& example : workload->examples) {
    auto counted = CountSubgraphIsomorphisms(example.query, data);
    ASSERT_TRUE(counted.ok());
    EXPECT_DOUBLE_EQ(example.count, static_cast<double>(counted->count));
    EXPECT_GE(example.count, 1.0);  // extracted from the data graph
  }
}

TEST(WorkloadTest, SplitPartitionsIndices) {
  Graph data = SmallData();
  auto workload = BuildWorkload(data, {3, 4}, 13);
  ASSERT_TRUE(workload.ok());
  auto split = StratifiedSplit(*workload, 0.8, 3);
  EXPECT_EQ(split.train.size() + split.test.size(),
            workload->examples.size());
  std::set<size_t> seen(split.train.begin(), split.train.end());
  EXPECT_EQ(seen.size(), split.train.size());
  for (size_t i : split.test) {
    EXPECT_EQ(seen.count(i), 0u);
    seen.insert(i);
  }
  EXPECT_EQ(seen.size(), workload->examples.size());
  // Each size puts floor(0.8 * n) of its n examples into train.
  for (size_t size : {3u, 4u}) {
    const size_t n = workload->IndicesOfSize(size).size();
    ASSERT_GT(n, 0u);
    size_t in_train = 0;
    for (size_t i : split.train) {
      if (workload->sizes[i] == size) ++in_train;
    }
    EXPECT_EQ(in_train, n * 8 / 10) << "size " << size;
  }
}

TEST(WorkloadTest, GatherPullsExamples) {
  Graph data = SmallData();
  auto workload = BuildWorkload(data, {3}, 5);
  ASSERT_TRUE(workload.ok());
  auto subset = Gather(*workload, {0, 2});
  ASSERT_EQ(subset.size(), 2u);
  EXPECT_DOUBLE_EQ(subset[0].count, workload->examples[0].count);
  EXPECT_DOUBLE_EQ(subset[1].count, workload->examples[2].count);
}


TEST(WorkloadTest, DeterministicAcrossThreadCounts) {
  Graph data = SmallData();
  setenv("NEURSC_THREADS", "1", 1);
  auto serial = BuildWorkload(data, {3, 4}, 8);
  setenv("NEURSC_THREADS", "4", 1);
  auto parallel = BuildWorkload(data, {3, 4}, 8);
  unsetenv("NEURSC_THREADS");
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->examples.size(), parallel->examples.size());
  for (size_t i = 0; i < serial->examples.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial->examples[i].count,
                     parallel->examples[i].count);
    EXPECT_EQ(serial->examples[i].query.NumEdges(),
              parallel->examples[i].query.NumEdges());
  }
}

TEST(WorkloadTest, TightBudgetDropsQueries) {
  Graph data = SmallData();
  WorkloadOptions options;
  options.ground_truth_time_limit = 1e-9;  // nothing fits
  auto workload = BuildWorkload(data, {4}, 5, options);
  EXPECT_FALSE(workload.ok());
}

}  // namespace
}  // namespace neursc
