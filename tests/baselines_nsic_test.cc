#include "baselines/nsic.h"

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "eval/workload.h"
#include "graph/generators.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::MakeGraph;

NsicEstimator::Options TinyOptions(NsicEstimator::GnnKind kind) {
  NsicEstimator::Options options;
  options.kind = kind;
  options.epochs = 4;
  return options;
}

TEST(NsicTest, NamesReflectVariant) {
  auto data = GenerateErdosRenyiGraph(40, 120, 3, 1);
  ASSERT_TRUE(data.ok());
  NsicEstimator gin(*data, TinyOptions(NsicEstimator::GnnKind::kGin));
  EXPECT_EQ(gin.Name(), "NSIC-I");
  NsicEstimator gcn(*data, TinyOptions(NsicEstimator::GnnKind::kGcn));
  EXPECT_EQ(gcn.Name(), "NSIC-C");
  auto options = TinyOptions(NsicEstimator::GnnKind::kGin);
  options.use_substructure_extraction = true;
  NsicEstimator se(*data, options);
  EXPECT_EQ(se.Name(), "NSIC-I w/ SE");
}

TEST(NsicTest, BothKindsEstimateFinite) {
  auto data = GenerateErdosRenyiGraph(60, 180, 3, 2);
  ASSERT_TRUE(data.ok());
  Graph query = MakeGraph({0, 1}, {{0, 1}});
  for (auto kind :
       {NsicEstimator::GnnKind::kGin, NsicEstimator::GnnKind::kGcn}) {
    NsicEstimator nsic(*data, TinyOptions(kind));
    auto est = nsic.EstimateCount(query);
    ASSERT_TRUE(est.ok());
    EXPECT_GT(*est, 0.0);
    EXPECT_TRUE(std::isfinite(*est));
  }
}

TEST(NsicTest, TrainingRunsAndImproves) {
  auto data = GenerateErdosRenyiGraph(80, 240, 3, 3);
  ASSERT_TRUE(data.ok());
  auto workload = BuildWorkload(*data, {3}, 10);
  ASSERT_TRUE(workload.ok());
  NsicEstimator nsic(*data, TinyOptions(NsicEstimator::GnnKind::kGin));

  auto evaluate = [&]() {
    std::vector<double> qerrors;
    for (const auto& example : workload->examples) {
      auto est = nsic.EstimateCount(example.query);
      EXPECT_TRUE(est.ok());
      qerrors.push_back(QError(*est, example.count));
    }
    return GeometricMean(qerrors);
  };
  double before = evaluate();
  ASSERT_TRUE(nsic.Train(workload->examples).ok());
  EXPECT_LT(evaluate(), before);
}

TEST(NsicTest, QueriesAreNearlyIndistinguishable) {
  // The architectural flaw the paper demonstrates: the data-side embedding
  // dominates, so two different queries get very similar estimates
  // relative to the spread of their true counts.
  auto data = GenerateErdosRenyiGraph(100, 300, 2, 4);
  ASSERT_TRUE(data.ok());
  NsicEstimator nsic(*data, TinyOptions(NsicEstimator::GnnKind::kGin));
  Graph q1 = MakeGraph({0, 1}, {{0, 1}});
  Graph q2 = MakeGraph({0, 1, 0, 1}, {{0, 1}, {1, 2}, {2, 3}});
  auto e1 = nsic.EstimateCount(q1);
  auto e2 = nsic.EstimateCount(q2);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  // Untrained estimates driven by a shared data embedding: within 100x of
  // each other even though true counts differ by far more.
  double ratio = std::max(*e1, *e2) / std::max(1e-12, std::min(*e1, *e2));
  EXPECT_LT(ratio, 100.0);
}

TEST(NsicTest, SubstructureVariantHandlesImpossibleQuery) {
  auto data = GenerateErdosRenyiGraph(60, 180, 3, 5);
  ASSERT_TRUE(data.ok());
  auto options = TinyOptions(NsicEstimator::GnnKind::kGin);
  options.use_substructure_extraction = true;
  NsicEstimator nsic(*data, options);
  Graph query = MakeGraph({9, 9}, {{0, 1}});  // label absent
  auto est = nsic.EstimateCount(query);
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(*est, 0.0);
}

TEST(NsicTest, TimeoutSurfacesAsStatus) {
  auto data = GenerateErdosRenyiGraph(200, 600, 3, 6);
  ASSERT_TRUE(data.ok());
  auto options = TinyOptions(NsicEstimator::GnnKind::kGin);
  options.time_limit_seconds = 1e-9;
  NsicEstimator nsic(*data, options);
  Graph query = MakeGraph({0, 1}, {{0, 1}});
  auto est = nsic.EstimateCount(query);
  EXPECT_FALSE(est.ok());
  EXPECT_TRUE(est.status().IsTimeout());
}

TEST(NsicTest, EmptyQueryIsInvalidArgument) {
  auto data = GenerateErdosRenyiGraph(40, 120, 3, 7);
  ASSERT_TRUE(data.ok());
  for (bool extraction : {false, true}) {
    SCOPED_TRACE(extraction ? "w/ SE" : "whole data graph");
    auto options = TinyOptions(NsicEstimator::GnnKind::kGin);
    options.use_substructure_extraction = extraction;
    NsicEstimator nsic(*data, options);
    auto est = nsic.EstimateCount(Graph{});
    ASSERT_FALSE(est.ok());
    EXPECT_TRUE(est.status().IsInvalidArgument()) << est.status().ToString();
    Status trained =
        nsic.Train({{MakeGraph({0, 1}, {{0, 1}}), 3.0}, {Graph{}, 1.0}});
    EXPECT_TRUE(trained.IsInvalidArgument()) << trained.ToString();
  }
}

}  // namespace
}  // namespace neursc
