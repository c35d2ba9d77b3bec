// Differential serial-vs-parallel harness for the training path.
//
// The threading contract (docs/threading.md) promises that Train() is
// bit-identical at every NEURSC_THREADS value: the example shuffle and all
// forward-pass seeds are drawn from the estimator RNG serially, each
// example's forward+backward runs on its own tape with a tape-local
// GradientSink, sinks are reduced into Parameter::grad in example-index
// order, and the critic's inner maximization runs serially in a fixed
// order. These tests enforce the contract with exact (EXPECT_EQ on float)
// comparisons of final weights and per-epoch statistics across seeds,
// covering the pretrain-only, adversarial, and early-stopping regimes.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/neursc.h"
#include "graph/graph.h"
#include "nn/matrix.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::MakeGraph;
using testing_util::ThreadsGuard;

constexpr uint64_t kSeeds[] = {7, 123, 4242};
constexpr size_t kThreadCounts[] = {1, 2, 8};

NeurSCConfig TrainConfig(uint64_t seed) {
  NeurSCConfig config;
  config.west.intra_dim = 8;
  config.west.inter_dim = 8;
  config.west.predictor_hidden = 16;
  config.disc_hidden = 8;
  config.batch_size = 4;
  config.pretrain_epochs = 2;
  config.epochs = 5;  // epochs 2..4 run the adversarial phase
  config.seed = seed;
  return config;
}

/// Data graph with several connected components so extraction yields
/// multiple substructures per query: `k` disjoint triangles, label 0.
Graph DisjointTriangles(size_t k) {
  std::vector<Label> labels(3 * k, 0);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (size_t c = 0; c < k; ++c) {
    VertexId base = static_cast<VertexId>(3 * c);
    edges.push_back({base, static_cast<VertexId>(base + 1)});
    edges.push_back(
        {static_cast<VertexId>(base + 1), static_cast<VertexId>(base + 2)});
    edges.push_back({base, static_cast<VertexId>(base + 2)});
  }
  return MakeGraph(labels, edges);
}

/// A small labeled workload with enough distinct examples for batching,
/// validation splits, and per-example parallelism to all kick in.
std::vector<TrainingExample> TrainingSet(size_t data_components) {
  std::vector<TrainingExample> examples;
  double triangles = static_cast<double>(data_components);
  examples.push_back(
      {MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}}), triangles});
  examples.push_back({MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}}), 6 * triangles});
  examples.push_back({MakeGraph({0, 0}, {{0, 1}}), 6 * triangles});
  examples.push_back({MakeGraph({0}, {}), 3 * triangles});
  examples.push_back({MakeGraph({0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}}),
                      12 * triangles});
  examples.push_back(
      {MakeGraph({0, 0, 0}, {{0, 1}, {0, 2}}), 6 * triangles});
  examples.push_back(
      {MakeGraph({0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}, {0, 3}}), 0.0});
  examples.push_back({MakeGraph({0, 0}, {{0, 1}}), 6 * triangles});
  return examples;
}

struct TrainOutcome {
  std::vector<Matrix> model_params;
  std::vector<Matrix> critic_params;
  TrainStats stats;
};

TrainOutcome RunTraining(const Graph& data, const NeurSCConfig& config,
                         const std::vector<TrainingExample>& examples) {
  NeurSCEstimator estimator(data, config);
  auto stats = estimator.Train(examples);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  TrainOutcome outcome;
  if (!stats.ok()) return outcome;
  outcome.stats = *stats;
  for (Parameter* p : estimator.model().Parameters()) {
    outcome.model_params.push_back(p->value);
  }
  if (estimator.critic() != nullptr) {
    for (Parameter* p : estimator.critic()->Parameters()) {
      outcome.critic_params.push_back(p->value);
    }
  }
  return outcome;
}

void ExpectBitIdenticalMatrices(const std::vector<Matrix>& got,
                                const std::vector<Matrix>& want,
                                const std::string& what, size_t threads) {
  ASSERT_EQ(got.size(), want.size()) << what << " threads=" << threads;
  for (size_t p = 0; p < got.size(); ++p) {
    ASSERT_EQ(got[p].rows(), want[p].rows());
    ASSERT_EQ(got[p].cols(), want[p].cols());
    const float* g = got[p].data();
    const float* w = want[p].data();
    for (size_t i = 0; i < got[p].rows() * got[p].cols(); ++i) {
      // Exact equality: the contract is bit-identical weights, not
      // approximately equal ones.
      ASSERT_EQ(g[i], w[i])
          << what << " param=" << p << " elem=" << i << " threads=" << threads;
    }
  }
}

void ExpectBitIdenticalOutcome(const TrainOutcome& got,
                               const TrainOutcome& want, size_t threads) {
  ExpectBitIdenticalMatrices(got.model_params, want.model_params, "model",
                             threads);
  ExpectBitIdenticalMatrices(got.critic_params, want.critic_params, "critic",
                             threads);
  ASSERT_EQ(got.stats.epoch_mean_loss.size(),
            want.stats.epoch_mean_loss.size());
  for (size_t e = 0; e < got.stats.epoch_mean_loss.size(); ++e) {
    EXPECT_EQ(got.stats.epoch_mean_loss[e], want.stats.epoch_mean_loss[e])
        << "epoch=" << e << " threads=" << threads;
  }
  ASSERT_EQ(got.stats.epoch_validation_qerror.size(),
            want.stats.epoch_validation_qerror.size());
  for (size_t e = 0; e < got.stats.epoch_validation_qerror.size(); ++e) {
    EXPECT_EQ(got.stats.epoch_validation_qerror[e],
              want.stats.epoch_validation_qerror[e])
        << "epoch=" << e << " threads=" << threads;
  }
  EXPECT_EQ(got.stats.early_stopped, want.stats.early_stopped)
      << "threads=" << threads;
  EXPECT_EQ(got.stats.examples_used, want.stats.examples_used);
  EXPECT_EQ(got.stats.examples_skipped, want.stats.examples_skipped);
}

TEST(TrainParallelTest, AdversarialTrainingBitIdenticalAcrossThreadCounts) {
  Graph data = DisjointTriangles(6);
  std::vector<TrainingExample> examples = TrainingSet(6);
  for (uint64_t seed : kSeeds) {
    NeurSCConfig config = TrainConfig(seed);
    ASSERT_GT(config.epochs, config.pretrain_epochs)
        << "test must cover the adversarial phase";
    TrainOutcome reference;
    {
      ThreadsGuard guard(1);
      reference = RunTraining(data, config, examples);
    }
    ASSERT_EQ(reference.stats.epoch_mean_loss.size(), config.epochs);
    ASSERT_FALSE(reference.critic_params.empty());
    for (size_t threads : kThreadCounts) {
      ThreadsGuard guard(threads);
      TrainOutcome got = RunTraining(data, config, examples);
      ExpectBitIdenticalOutcome(got, reference, threads);
    }
  }
}

TEST(TrainParallelTest, EarlyStoppingBitIdenticalAcrossThreadCounts) {
  Graph data = DisjointTriangles(6);
  std::vector<TrainingExample> examples = TrainingSet(6);
  for (uint64_t seed : kSeeds) {
    NeurSCConfig config = TrainConfig(seed);
    config.epochs = 10;
    config.validation_fraction = 0.25;
    config.early_stop_patience = 2;
    TrainOutcome reference;
    {
      ThreadsGuard guard(1);
      reference = RunTraining(data, config, examples);
    }
    // The parallel validation loop must both produce the same q-errors and
    // make the same stop/restore decision.
    ASSERT_FALSE(reference.stats.epoch_validation_qerror.empty());
    for (size_t threads : kThreadCounts) {
      ThreadsGuard guard(threads);
      TrainOutcome got = RunTraining(data, config, examples);
      ExpectBitIdenticalOutcome(got, reference, threads);
    }
  }
}

TEST(TrainParallelTest, NoDiscriminatorVariantBitIdentical) {
  Graph data = DisjointTriangles(6);
  std::vector<TrainingExample> examples = TrainingSet(6);
  NeurSCConfig config = TrainConfig(31);
  config.use_discriminator = false;  // NeurSC-D: pure L_c path
  TrainOutcome reference;
  {
    ThreadsGuard guard(1);
    reference = RunTraining(data, config, examples);
  }
  EXPECT_TRUE(reference.critic_params.empty());
  for (size_t threads : kThreadCounts) {
    ThreadsGuard guard(threads);
    TrainOutcome got = RunTraining(data, config, examples);
    ExpectBitIdenticalOutcome(got, reference, threads);
  }
}

}  // namespace
}  // namespace neursc
