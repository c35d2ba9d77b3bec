#include "baselines/neursc_adapter.h"

#include <gtest/gtest.h>

#include "eval/workload.h"
#include "graph/generators.h"

namespace neursc {
namespace {

NeurSCConfig TinyConfig() {
  NeurSCConfig config;
  config.epochs = 2;
  config.pretrain_epochs = 1;
  return config;
}

TEST(NeurSCAdapterTest, VariantNames) {
  auto data = GenerateErdosRenyiGraph(40, 120, 3, 1);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(NeurSCAdapter::Full(*data, TinyConfig())->Name(), "NeurSC");
  EXPECT_EQ(NeurSCAdapter::IntraOnly(*data, TinyConfig())->Name(),
            "NeurSC-I");
  EXPECT_EQ(NeurSCAdapter::Dual(*data, TinyConfig())->Name(), "NeurSC-D");
  EXPECT_EQ(NeurSCAdapter::WithoutExtraction(*data, TinyConfig())->Name(),
            "NeurSC w/o SE");
  EXPECT_EQ(NeurSCAdapter::WithMetric(*data, TinyConfig(),
                                      DistanceMetric::kEuclidean)
                ->Name(),
            "NeurSC-EU");
  EXPECT_EQ(
      NeurSCAdapter::WithMetric(*data, TinyConfig(), DistanceMetric::kKL)
          ->Name(),
      "NeurSC-KL");
  EXPECT_EQ(
      NeurSCAdapter::WithMetric(*data, TinyConfig(), DistanceMetric::kJS)
          ->Name(),
      "NeurSC-JS");
  EXPECT_EQ(NeurSCAdapter::WithMetric(*data, TinyConfig(),
                                      DistanceMetric::kWasserstein)
                ->Name(),
            "NeurSC");
}

TEST(NeurSCAdapterTest, VariantsConfigureEstimator) {
  auto data = GenerateErdosRenyiGraph(40, 120, 3, 2);
  ASSERT_TRUE(data.ok());
  auto intra = NeurSCAdapter::IntraOnly(*data, TinyConfig());
  EXPECT_FALSE(intra->estimator().config().west.use_inter);
  EXPECT_FALSE(intra->estimator().config().use_discriminator);
  auto dual = NeurSCAdapter::Dual(*data, TinyConfig());
  EXPECT_TRUE(dual->estimator().config().west.use_inter);
  EXPECT_FALSE(dual->estimator().config().use_discriminator);
  auto no_se = NeurSCAdapter::WithoutExtraction(*data, TinyConfig());
  EXPECT_FALSE(
      no_se->estimator().config().use_substructure_extraction);
}

TEST(NeurSCAdapterTest, TrainThenEstimateThroughInterface) {
  auto data = GenerateErdosRenyiGraph(80, 240, 3, 3);
  ASSERT_TRUE(data.ok());
  auto workload = BuildWorkload(*data, {3}, 6);
  ASSERT_TRUE(workload.ok());
  auto adapter = NeurSCAdapter::Full(*data, TinyConfig());
  CardinalityEstimator* iface = adapter.get();
  ASSERT_TRUE(iface->Train(workload->examples).ok());
  EXPECT_FALSE(adapter->train_stats().epoch_mean_loss.empty());
  auto est = iface->EstimateCount(workload->examples[0].query);
  ASSERT_TRUE(est.ok());
  EXPECT_GE(*est, 0.0);
}

TEST(NeurSCAdapterTest, NonLearnedInterfaceDefaultTrainIsNoOp) {
  auto data = GenerateErdosRenyiGraph(40, 120, 3, 4);
  ASSERT_TRUE(data.ok());
  // CardinalityEstimator's default Train (used by the G-CARE methods) is a
  // no-op returning OK even with an empty example list.
  class Dummy : public CardinalityEstimator {
   public:
    std::string Name() const override { return "Dummy"; }
    Result<double> EstimateCount(const Graph&) override { return 1.0; }
  };
  Dummy dummy;
  EXPECT_TRUE(dummy.Train({}).ok());
}

}  // namespace
}  // namespace neursc
