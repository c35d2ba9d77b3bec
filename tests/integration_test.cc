// End-to-end integration: build a dataset stand-in, construct a workload
// with exact ground truth, train NeurSC and LSS, and check the headline
// qualitative claim of the paper at miniature scale — the trained NeurSC
// produces calibrated estimates, and the full pipeline (extraction +
// estimation) stays consistent with exact counting semantics.

#include <gtest/gtest.h>

#include "baselines/cset.h"
#include "baselines/lss.h"
#include "baselines/neursc_adapter.h"
#include "baselines/sampling.h"
#include "eval/metrics.h"
#include "eval/workload.h"
#include "graph/generators.h"

namespace neursc {
namespace {

struct Pipeline {
  Graph data;
  Workload workload;
  WorkloadSplit split;

  static Pipeline Build() {
    // Few labels on a moderately sized graph so that ground-truth counts
    // span several orders of magnitude (a degenerate all-counts-1 workload
    // cannot distinguish trained from untrained models).
    GeneratorConfig config;
    config.num_vertices = 300;
    config.num_edges = 900;
    config.num_labels = 6;
    config.seed = 7;
    auto data = GeneratePowerLawGraph(config);
    EXPECT_TRUE(data.ok());
    auto workload = BuildWorkload(*data, {4}, 24);
    EXPECT_TRUE(workload.ok());
    auto split = StratifiedSplit(*workload, 0.8, 5);
    return Pipeline{std::move(data).value(), std::move(workload).value(),
                    std::move(split)};
  }
};

NeurSCConfig SmallConfig() {
  NeurSCConfig config;
  config.epochs = 10;
  config.pretrain_epochs = 6;
  config.batch_size = 8;
  return config;
}

TEST(IntegrationTest, TrainedNeurSCBeatsUntrained) {
  Pipeline p = Pipeline::Build();
  auto train = Gather(p.workload, p.split.train);

  auto evaluate = [&](NeurSCAdapter& model) {
    std::vector<double> qerrors;
    for (size_t i : p.split.test) {
      const auto& example = p.workload.examples[i];
      auto est = model.EstimateCount(example.query);
      EXPECT_TRUE(est.ok());
      qerrors.push_back(QError(*est, example.count));
    }
    return GeometricMean(qerrors);
  };

  auto untrained = NeurSCAdapter::Full(p.data, SmallConfig());
  double before = evaluate(*untrained);

  auto trained = NeurSCAdapter::Full(p.data, SmallConfig());
  ASSERT_TRUE(trained->Train(train).ok());
  double after = evaluate(*trained);

  EXPECT_LT(after, before);
  // Calibrated at miniature scale: geometric-mean q-error within a loose
  // bound (the bench harnesses report the real distributions).
  EXPECT_LT(after, 50.0);
}

TEST(IntegrationTest, AllVariantsProduceFiniteEstimates) {
  Pipeline p = Pipeline::Build();
  auto train = Gather(p.workload, p.split.train);

  std::vector<std::unique_ptr<NeurSCAdapter>> variants;
  variants.push_back(NeurSCAdapter::Full(p.data, SmallConfig()));
  variants.push_back(NeurSCAdapter::IntraOnly(p.data, SmallConfig()));
  variants.push_back(NeurSCAdapter::Dual(p.data, SmallConfig()));
  variants.push_back(NeurSCAdapter::WithoutExtraction(p.data, SmallConfig()));
  variants.push_back(NeurSCAdapter::WithMetric(p.data, SmallConfig(),
                                               DistanceMetric::kEuclidean));

  for (auto& variant : variants) {
    NeurSCConfig quick = SmallConfig();
    (void)quick;
    ASSERT_TRUE(variant->Train(train).ok()) << variant->Name();
    for (size_t i : p.split.test) {
      auto est = variant->EstimateCount(p.workload.examples[i].query);
      ASSERT_TRUE(est.ok()) << variant->Name();
      EXPECT_TRUE(std::isfinite(*est)) << variant->Name();
      EXPECT_GE(*est, 0.0) << variant->Name();
    }
  }
}

TEST(IntegrationTest, NonLearnedBaselinesRunOnWorkload) {
  Pipeline p = Pipeline::Build();
  CSetEstimator cset(p.data);
  WanderJoinEstimator wj(p.data);
  JsubEstimator jsub(p.data);
  CorrelatedSamplingEstimator cs(p.data);
  std::vector<CardinalityEstimator*> methods = {&cset, &wj, &jsub, &cs};
  for (CardinalityEstimator* method : methods) {
    size_t ok_count = 0;
    for (size_t i : p.split.test) {
      auto est = method->EstimateCount(p.workload.examples[i].query);
      if (est.ok()) {
        EXPECT_GE(*est, 0.0) << method->Name();
        ++ok_count;
      }
    }
    EXPECT_GT(ok_count, 0u) << method->Name();
  }
}

TEST(IntegrationTest, LssTrainsOnSameWorkload) {
  Pipeline p = Pipeline::Build();
  auto train = Gather(p.workload, p.split.train);
  LssEstimator::Options options;
  options.epochs = 6;
  LssEstimator lss(p.data, options);
  ASSERT_TRUE(lss.Train(train).ok());
  std::vector<double> qerrors;
  for (size_t i : p.split.test) {
    const auto& example = p.workload.examples[i];
    auto est = lss.EstimateCount(example.query);
    ASSERT_TRUE(est.ok());
    qerrors.push_back(QError(*est, example.count));
  }
  EXPECT_LT(GeometricMean(qerrors), 1e4);
}

}  // namespace
}  // namespace neursc
