#include "baselines/lss.h"

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "eval/workload.h"
#include "graph/generators.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::MakeGraph;

LssEstimator::Options TinyOptions() {
  LssEstimator::Options options;
  options.hidden_dim = 16;
  options.attention_dim = 16;
  options.epochs = 6;
  return options;
}

TEST(LssTest, DecompositionOnePerVertex) {
  auto data = GenerateErdosRenyiGraph(50, 150, 3, 1);
  ASSERT_TRUE(data.ok());
  LssEstimator lss(*data, TinyOptions());
  Graph query = MakeGraph({0, 1, 2, 0}, {{0, 1}, {1, 2}, {2, 3}});
  auto subs = lss.Decompose(query);
  EXPECT_EQ(subs.size(), query.NumVertices());
}

TEST(LssTest, SmallDiameterQueryYieldsIdenticalBalls) {
  // Triangle with k=3 hops: every ball is the whole query — the failure
  // mode Sec. 1 of the NeurSC paper calls out.
  auto data = GenerateErdosRenyiGraph(50, 150, 3, 2);
  ASSERT_TRUE(data.ok());
  LssEstimator lss(*data, TinyOptions());
  Graph query = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}, {0, 2}});
  auto subs = lss.Decompose(query);
  ASSERT_EQ(subs.size(), 3u);
  for (const Graph& s : subs) {
    EXPECT_EQ(s.NumVertices(), 3u);
    EXPECT_EQ(s.NumEdges(), 3u);
  }
}

TEST(LssTest, ThreeHopBoundTruncatesBalls) {
  auto data = GenerateErdosRenyiGraph(50, 150, 3, 3);
  ASSERT_TRUE(data.ok());
  LssEstimator lss(*data, TinyOptions());
  // Path of 9: the 3-hop ball of an endpoint has 4 vertices and that of
  // the middle vertex has 7, so neither reaches the whole path.
  Graph query = MakeGraph({0, 0, 0, 0, 0, 0, 0, 0, 0},
                          {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6},
                           {6, 7}, {7, 8}});
  auto subs = lss.Decompose(query);
  ASSERT_EQ(subs.size(), 9u);
  EXPECT_EQ(subs[0].NumVertices(), 4u);
  EXPECT_EQ(subs[4].NumVertices(), 7u);
}

TEST(LssTest, UntrainedEstimateIsFinitePositive) {
  auto data = GenerateErdosRenyiGraph(60, 180, 3, 4);
  ASSERT_TRUE(data.ok());
  LssEstimator lss(*data, TinyOptions());
  Graph query = MakeGraph({0, 1}, {{0, 1}});
  auto est = lss.EstimateCount(query);
  ASSERT_TRUE(est.ok());
  EXPECT_GT(*est, 0.0);
  EXPECT_TRUE(std::isfinite(*est));
}

TEST(LssTest, TrainingImprovesQError) {
  auto data = GenerateErdosRenyiGraph(100, 300, 3, 5);
  ASSERT_TRUE(data.ok());
  auto workload = BuildWorkload(*data, {3, 4}, 10);
  ASSERT_TRUE(workload.ok());
  LssEstimator lss(*data, TinyOptions());

  auto evaluate = [&]() {
    std::vector<double> qerrors;
    for (const auto& example : workload->examples) {
      auto est = lss.EstimateCount(example.query);
      EXPECT_TRUE(est.ok());
      qerrors.push_back(QError(*est, example.count));
    }
    return GeometricMean(qerrors);
  };

  double before = evaluate();
  ASSERT_TRUE(lss.Train(workload->examples).ok());
  double after = evaluate();
  EXPECT_LT(after, before);
  EXPECT_EQ(lss.epoch_seconds().size(), TinyOptions().epochs);
}

TEST(LssTest, TrainRejectsEmpty) {
  auto data = GenerateErdosRenyiGraph(40, 120, 3, 6);
  ASSERT_TRUE(data.ok());
  LssEstimator lss(*data, TinyOptions());
  EXPECT_FALSE(lss.Train({}).ok());
}

}  // namespace
}  // namespace neursc
