#include "core/active_learner.h"

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "eval/workload.h"
#include "graph/generators.h"
#include "graph/query_generator.h"

namespace neursc {
namespace {

struct TestEnv {
  Graph data;
  Workload workload;
  std::vector<Graph> pool;

  static TestEnv Build() {
    GeneratorConfig gen;
    gen.num_vertices = 200;
    gen.num_edges = 600;
    gen.num_labels = 5;
    gen.seed = 3;
    auto data = GeneratePowerLawGraph(gen);
    EXPECT_TRUE(data.ok());
    auto workload = BuildWorkload(*data, {3, 4}, 8);
    EXPECT_TRUE(workload.ok());
    QueryGeneratorConfig qc;
    qc.query_size = 4;
    qc.seed = 55;
    QueryGenerator generator(*data, qc);
    auto pool = generator.GenerateMany(15);
    EXPECT_TRUE(pool.ok());
    return TestEnv{std::move(data).value(), std::move(workload).value(),
                 std::move(pool).value()};
  }
};

NeurSCConfig TinyConfig() {
  NeurSCConfig config;
  config.epochs = 2;
  config.pretrain_epochs = 1;
  return config;
}

TEST(ActiveLearnerTest, AcquiresFromPool) {
  TestEnv s = TestEnv::Build();
  ActiveLearner::Options options;
  options.rounds = 2;
  options.acquisitions_per_round = 3;
  ActiveLearner learner(s.data, TinyConfig(), options);
  size_t initial = s.workload.examples.size();
  auto labeled = learner.Run(s.workload.examples, s.pool);
  ASSERT_TRUE(labeled.ok()) << labeled.status().ToString();
  EXPECT_GT(labeled->size(), initial);
  EXPECT_LE(labeled->size(), initial + 6);
  // Acquired examples carry real oracle counts from the data graph.
  for (size_t i = initial; i < labeled->size(); ++i) {
    EXPECT_GE((*labeled)[i].count, 0.0);
  }
  // The final model is trained and usable.
  ASSERT_NE(learner.model(), nullptr);
  auto info = learner.model()->Estimate(s.pool[0]);
  ASSERT_TRUE(info.ok());
  EXPECT_GE(info->count, 0.0);
}

TEST(ActiveLearnerTest, ScoresCoverPool) {
  TestEnv s = TestEnv::Build();
  ActiveLearner::Options options;
  options.rounds = 1;
  options.acquisitions_per_round = 2;
  ActiveLearner learner(s.data, TinyConfig(), options);
  auto labeled = learner.Run(s.workload.examples, s.pool);
  ASSERT_TRUE(labeled.ok());
  EXPECT_EQ(learner.last_scores().size(), s.pool.size());
}

TEST(ActiveLearnerTest, RejectsEmptyLabeledSet) {
  TestEnv s = TestEnv::Build();
  ActiveLearner learner(s.data, TinyConfig(), ActiveLearner::Options());
  EXPECT_FALSE(learner.Run({}, s.pool).ok());
}

TEST(ActiveLearnerTest, EmptyPoolDegradesToPlainTraining) {
  TestEnv s = TestEnv::Build();
  ActiveLearner learner(s.data, TinyConfig(), ActiveLearner::Options());
  auto labeled = learner.Run(s.workload.examples, {});
  ASSERT_TRUE(labeled.ok());
  EXPECT_EQ(labeled->size(), s.workload.examples.size());
  ASSERT_NE(learner.model(), nullptr);
}

TEST(ActiveLearnerTest, FailedBatchFallsBackPerQuery) {
  // ComputeCandidateSets rejects the empty query, so each member's
  // EstimateBatch over the pool fails and the learner scores the pool
  // with per-query Estimate calls instead: the empty query keeps score 0
  // and every other query gets a real disagreement score.
  TestEnv s = TestEnv::Build();
  s.pool.insert(s.pool.begin(), Graph());
  ActiveLearner::Options options;
  options.rounds = 1;
  options.acquisitions_per_round = 0;
  ActiveLearner learner(s.data, TinyConfig(), options);
  auto labeled = learner.Run(s.workload.examples, s.pool);
  ASSERT_TRUE(labeled.ok()) << labeled.status().ToString();
  ASSERT_EQ(learner.last_scores().size(), s.pool.size());
  EXPECT_EQ(learner.last_scores()[0], 0.0);
  for (size_t i = 1; i < s.pool.size(); ++i) {
    EXPECT_GE(learner.last_scores()[i], 1.0) << "pool index " << i;
  }
}

}  // namespace
}  // namespace neursc
