// Randomized end-to-end stress: community-structured data graphs, mixed
// workloads (including zero-count queries built by relabeling), dedup on,
// full adversarial training, then invariant checks over every estimate.
// Catches crashes, non-finite numerics and Status misuse across the whole
// pipeline.

#include <cmath>

#include <gtest/gtest.h>

#include "core/neursc.h"
#include "eval/metrics.h"
#include "eval/workload.h"
#include "graph/generators.h"
#include "matching/enumeration.h"
#include "test_util.h"

namespace neursc {
namespace {

class PipelineStressTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelineStressTest, FullPipelineInvariants) {
  const int seed = GetParam();
  GeneratorConfig gen;
  gen.num_vertices = 300 + 40 * seed;
  gen.num_edges = 3 * gen.num_vertices;
  gen.num_labels = 4 + seed % 5;
  gen.num_communities = 4;
  gen.seed = 100 + seed;
  auto data = GeneratePowerLawGraph(gen);
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(data->IsConnected());

  WorkloadOptions wopts;
  wopts.seed = seed;
  auto workload = BuildWorkload(*data, {3, 4}, 8, wopts);
  ASSERT_TRUE(workload.ok());
  ASSERT_GE(workload->examples.size(), 8u);
  // Zero-count queries: copies of every fourth example with one vertex
  // relabeled to a label the data graph does not have.
  const Label absent = static_cast<Label>(data->NumLabels());
  const size_t matchable = workload->examples.size();
  for (size_t i = 0; i < matchable; i += 4) {
    const Graph& query = workload->examples[i].query;
    const VertexId v = static_cast<VertexId>(i % query.NumVertices());
    Graph relabeled = testing_util::WithLabel(query, v, absent);
    workload->sizes.push_back(query.NumVertices());
    workload->examples.push_back(TrainingExample{std::move(relabeled), 0.0});
  }

  NeurSCConfig config;
  config.epochs = 4;
  config.pretrain_epochs = 2;
  config.seed = seed;
  NeurSCEstimator estimator(*data, config);
  auto stats = estimator.Train(workload->examples);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Zero-count examples are skipped at extraction (early termination), so
  // used + skipped == total.
  EXPECT_EQ(stats->examples_used + stats->examples_skipped,
            workload->examples.size());
  for (double loss : stats->epoch_mean_loss) {
    EXPECT_TRUE(std::isfinite(loss));
  }

  for (const auto& example : workload->examples) {
    auto info = estimator.Estimate(example.query);
    ASSERT_TRUE(info.ok());
    EXPECT_TRUE(std::isfinite(info->count));
    EXPECT_GE(info->count, 0.0);
    if (example.count == 0.0) {
      EXPECT_TRUE(info->early_terminated);
    }
    if (info->early_terminated) {
      // Early termination must be sound: the exact count is 0.
      EnumerationOptions eopts;
      eopts.max_matches = 1;
      auto counted = CountSubgraphIsomorphisms(example.query, *data, eopts);
      ASSERT_TRUE(counted.ok());
      EXPECT_EQ(counted->count, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineStressTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace neursc
