#include "core/neursc.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>

#include "eval/metrics.h"
#include "eval/workload.h"
#include "graph/generators.h"
#include "matching/enumeration.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::MakeGraph;

NeurSCConfig TinyConfig() {
  NeurSCConfig config;
  config.west.intra_dim = 8;
  config.west.inter_dim = 8;
  config.west.predictor_hidden = 16;
  config.disc_hidden = 8;
  config.epochs = 3;
  config.pretrain_epochs = 1;
  config.batch_size = 8;
  return config;
}

TEST(NeurSCTest, EstimateIsPositiveAndFinite) {
  auto data = GenerateErdosRenyiGraph(80, 240, 4, 31);
  ASSERT_TRUE(data.ok());
  NeurSCEstimator estimator(*data, TinyConfig());
  auto workload = BuildWorkload(*data, {3}, 3);
  ASSERT_TRUE(workload.ok());
  auto info = estimator.Estimate(workload->examples[0].query);
  ASSERT_TRUE(info.ok());
  EXPECT_GE(info->count, 0.0);
  EXPECT_TRUE(std::isfinite(info->count));
  EXPECT_GE(info->num_substructures, 1u);
}

TEST(NeurSCTest, EstimateInfoCarriesTheExtractionStats) {
  auto data = GenerateErdosRenyiGraph(80, 240, 4, 31);
  ASSERT_TRUE(data.ok());
  auto workload = BuildWorkload(*data, {3, 4}, 3);
  ASSERT_TRUE(workload.ok());
  NeurSCEstimator estimator(*data, TinyConfig());
  std::vector<Graph> queries;
  for (const auto& example : workload->examples) {
    queries.push_back(example.query);
  }
  auto batch = estimator.EstimateBatch(queries);
  ASSERT_TRUE(batch.ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    auto want = ExtractSubstructures(queries[q], *data);
    ASSERT_TRUE(want.ok());
    for (const EstimateInfo& info :
         {(*batch)[q], *estimator.Estimate(queries[q])}) {
      const ExtractionStats& got = info.extraction;
      EXPECT_EQ(got.candidate_union_size, want->stats.candidate_union_size);
      EXPECT_EQ(got.total_candidates, want->stats.total_candidates);
      EXPECT_EQ(got.components_total, want->stats.components_total);
      EXPECT_EQ(got.components_kept, want->stats.components_kept);
      EXPECT_EQ(got.components_kept, info.num_substructures);
      EXPECT_EQ(got.largest_substructure_vertices,
                want->stats.largest_substructure_vertices);
      EXPECT_GT(got.total_candidates, 0u) << "query " << q;
    }
  }
}

TEST(NeurSCTest, NonFiniteEstimateIsAnError) {
  auto data = GenerateErdosRenyiGraph(80, 240, 4, 31);
  ASSERT_TRUE(data.ok());
  auto workload = BuildWorkload(*data, {3}, 3);
  ASSERT_TRUE(workload.ok());
  NeurSCEstimator estimator(*data, TinyConfig());
  // The predictor's output bias: a NaN there makes every forward pass NaN.
  estimator.model().Parameters().back()->value.data()[0] =
      std::numeric_limits<float>::quiet_NaN();
  const Graph& query = workload->examples[0].query;
  auto info = estimator.Estimate(query);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kInternal);
  EXPECT_NE(info.status().message().find("query 0"), std::string::npos)
      << info.status().ToString();

  auto infos = estimator.EstimateBatch({workload->examples[1].query, query});
  ASSERT_FALSE(infos.ok());
  EXPECT_EQ(infos.status().code(), StatusCode::kInternal);
}

TEST(NeurSCTest, EarlyTerminationOnImpossibleQuery) {
  Graph data = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}});
  Graph query = MakeGraph({7, 7}, {{0, 1}});  // label absent from data
  NeurSCEstimator estimator(data, TinyConfig());
  auto info = estimator.Estimate(query);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->early_terminated);
  EXPECT_DOUBLE_EQ(info->count, 0.0);
}

TEST(NeurSCTest, TrainingReducesLoss) {
  auto data = GenerateErdosRenyiGraph(100, 300, 4, 33);
  ASSERT_TRUE(data.ok());
  auto workload = BuildWorkload(*data, {3, 4}, 10);
  ASSERT_TRUE(workload.ok());
  NeurSCConfig config = TinyConfig();
  config.epochs = 8;
  config.pretrain_epochs = 8;  // pure L_c phase for a clean trend
  NeurSCEstimator estimator(*data, config);
  auto stats = estimator.Train(workload->examples);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->epoch_mean_loss.size(), 8u);
  EXPECT_LT(stats->epoch_mean_loss.back(),
            stats->epoch_mean_loss.front());
}

TEST(NeurSCTest, AdversarialPhaseRuns) {
  auto data = GenerateErdosRenyiGraph(80, 240, 3, 35);
  ASSERT_TRUE(data.ok());
  auto workload = BuildWorkload(*data, {3}, 8);
  ASSERT_TRUE(workload.ok());
  NeurSCConfig config = TinyConfig();
  config.epochs = 3;
  config.pretrain_epochs = 1;
  NeurSCEstimator estimator(*data, config);
  ASSERT_NE(estimator.critic(), nullptr);
  auto stats = estimator.Train(workload->examples);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->epoch_mean_loss.size(), 3u);
  for (double loss : stats->epoch_mean_loss) {
    EXPECT_TRUE(std::isfinite(loss));
  }
}

TEST(NeurSCTest, VariantsDisableComponents) {
  auto data = GenerateErdosRenyiGraph(60, 180, 3, 37);
  ASSERT_TRUE(data.ok());

  NeurSCConfig intra_only = TinyConfig();
  intra_only.west.use_inter = false;
  intra_only.use_discriminator = false;
  NeurSCEstimator i_estimator(*data, intra_only);
  EXPECT_EQ(i_estimator.critic(), nullptr);
  EXPECT_EQ(i_estimator.model().ReprDim(), 8u);

  NeurSCConfig no_se = TinyConfig();
  no_se.use_substructure_extraction = false;
  NeurSCEstimator se_estimator(*data, no_se);
  // w/o SE forces intra-only + no discriminator.
  EXPECT_EQ(se_estimator.critic(), nullptr);
  EXPECT_FALSE(se_estimator.config().west.use_inter);
  auto workload = BuildWorkload(*data, {3}, 2);
  ASSERT_TRUE(workload.ok());
  auto info = se_estimator.Estimate(workload->examples[0].query);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->num_substructures, 1u);  // whole graph
}

TEST(NeurSCTest, MetricVariantsTrain) {
  auto data = GenerateErdosRenyiGraph(60, 180, 3, 39);
  ASSERT_TRUE(data.ok());
  auto workload = BuildWorkload(*data, {3}, 6);
  ASSERT_TRUE(workload.ok());
  for (DistanceMetric metric :
       {DistanceMetric::kEuclidean, DistanceMetric::kKL,
        DistanceMetric::kJS}) {
    NeurSCConfig config = TinyConfig();
    config.metric = metric;
    config.epochs = 2;
    config.pretrain_epochs = 1;
    NeurSCEstimator estimator(*data, config);
    auto stats = estimator.Train(workload->examples);
    ASSERT_TRUE(stats.ok()) << DistanceMetricName(metric) << ": "
                            << stats.status().ToString();
  }
}

TEST(NeurSCTest, SampleRateUsesFewerSubstructures) {
  // A data graph with several disjoint candidate regions -> multiple
  // substructures.
  GraphBuilder b;
  // 4 disjoint labeled triangles (0-1-2).
  for (int t = 0; t < 4; ++t) {
    VertexId v0 = b.AddVertex(0);
    VertexId v1 = b.AddVertex(1);
    VertexId v2 = b.AddVertex(2);
    ASSERT_TRUE(b.AddEdge(v0, v1).ok());
    ASSERT_TRUE(b.AddEdge(v1, v2).ok());
    ASSERT_TRUE(b.AddEdge(v0, v2).ok());
  }
  Graph data = std::move(b.Build()).value();
  Graph query = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}, {0, 2}});

  NeurSCConfig config = TinyConfig();
  config.sample_rate = 0.25;
  NeurSCEstimator estimator(data, config);
  auto info = estimator.Estimate(query);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->num_substructures, 4u);
  EXPECT_EQ(info->num_used, 1u);

  // Full-rate estimate uses all of them.
  NeurSCConfig full = TinyConfig();
  NeurSCEstimator full_estimator(data, full);
  auto full_info = full_estimator.Estimate(query);
  ASSERT_TRUE(full_info.ok());
  EXPECT_EQ(full_info->num_used, 4u);
}

TEST(NeurSCTest, SampledEstimatorIsUnbiasedAcrossSeeds) {
  // Sec. 5.8: E[c'] = sum of per-substructure estimates. With identical
  // substructures the scaled sample equals the full sum exactly.
  // Same-label endpoints keep every bipartite candidate graph connected,
  // so the forward pass is fully deterministic per substructure.
  GraphBuilder b;
  for (int t = 0; t < 3; ++t) {
    VertexId v0 = b.AddVertex(0);
    VertexId v1 = b.AddVertex(0);
    ASSERT_TRUE(b.AddEdge(v0, v1).ok());
  }
  Graph data = std::move(b.Build()).value();
  Graph query = MakeGraph({0, 0}, {{0, 1}});
  NeurSCConfig config = TinyConfig();
  config.sample_rate = 1.0;
  NeurSCEstimator full(data, config);
  auto full_info = full.Estimate(query);
  ASSERT_TRUE(full_info.ok());

  config.sample_rate = 0.34;  // 1 of 3
  NeurSCEstimator sampled(data, config);
  auto sampled_info = sampled.Estimate(query);
  ASSERT_TRUE(sampled_info.ok());
  // Identical symmetric substructures: scaled estimate == full estimate.
  EXPECT_NEAR(sampled_info->count, full_info->count,
              1e-3 * std::abs(full_info->count) + 1e-5);
}

TEST(NeurSCTest, EstimateOnPerfectSubstructures) {
  auto data = GenerateErdosRenyiGraph(60, 180, 3, 41);
  ASSERT_TRUE(data.ok());
  auto workload = BuildWorkload(*data, {3}, 2);
  ASSERT_TRUE(workload.ok());
  const Graph& query = workload->examples[0].query;

  EnumerationOptions eopts;
  eopts.collect_embeddings = 1000;
  auto counted = CountSubgraphIsomorphisms(query, *data, eopts);
  ASSERT_TRUE(counted.ok());
  std::vector<VertexId> universe;
  for (const auto& embedding : counted->embeddings) {
    universe.insert(universe.end(), embedding.begin(), embedding.end());
  }
  auto cs = ComputeCandidateSets(query, *data);
  ASSERT_TRUE(cs.ok());
  auto perfect = BuildSubstructuresFromVertices(query, *data, universe, *cs);
  ASSERT_TRUE(perfect.ok());

  NeurSCEstimator estimator(*data, TinyConfig());
  auto info = estimator.EstimateOnSubstructures(query, *perfect);
  ASSERT_TRUE(info.ok());
  EXPECT_GE(info->count, 0.0);
}


TEST(NeurSCTest, TrainingIsDeterministic) {
  auto data = GenerateErdosRenyiGraph(80, 240, 3, 51);
  ASSERT_TRUE(data.ok());
  auto workload = BuildWorkload(*data, {3}, 8);
  ASSERT_TRUE(workload.ok());

  auto run = [&]() {
    NeurSCEstimator estimator(*data, TinyConfig());
    EXPECT_TRUE(estimator.Train(workload->examples).ok());
    std::vector<double> estimates;
    for (const auto& example : workload->examples) {
      auto info = estimator.Estimate(example.query);
      EXPECT_TRUE(info.ok());
      estimates.push_back(info->count);
    }
    return estimates;
  };
  auto first = run();
  auto second = run();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i], second[i]) << "query " << i;
  }
}

TEST(NeurSCTest, CanMemorizeSmallWorkload) {
  // Capacity sanity check: with enough epochs on a handful of queries the
  // estimator should fit their counts to within a small q-error.
  auto data = GenerateErdosRenyiGraph(120, 360, 3, 53);
  ASSERT_TRUE(data.ok());
  auto workload = BuildWorkload(*data, {3}, 6);
  ASSERT_TRUE(workload.ok());
  NeurSCConfig config = TinyConfig();
  config.west.intra_dim = 16;
  config.west.inter_dim = 16;
  config.epochs = 60;
  config.pretrain_epochs = 60;  // plain L_c fitting
  NeurSCEstimator estimator(*data, config);
  ASSERT_TRUE(estimator.Train(workload->examples).ok());
  std::vector<double> qerrors;
  for (const auto& example : workload->examples) {
    auto info = estimator.Estimate(example.query);
    ASSERT_TRUE(info.ok());
    qerrors.push_back(QError(info->count, example.count));
  }
  EXPECT_LT(GeometricMean(qerrors), 3.0);
}


TEST(NeurSCTest, EarlyStoppingTracksValidation) {
  auto data = GenerateErdosRenyiGraph(100, 300, 3, 55);
  ASSERT_TRUE(data.ok());
  auto workload = BuildWorkload(*data, {3}, 12);
  ASSERT_TRUE(workload.ok());
  NeurSCConfig config = TinyConfig();
  config.epochs = 30;
  config.pretrain_epochs = 30;
  config.validation_fraction = 0.25;
  config.early_stop_patience = 2;
  NeurSCEstimator estimator(*data, config);
  auto stats = estimator.Train(workload->examples);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats->epoch_validation_qerror.empty());
  EXPECT_EQ(stats->epoch_validation_qerror.size(),
            stats->epoch_mean_loss.size());
  // Either it ran all 30 epochs improving throughout, or it stopped early.
  EXPECT_TRUE(stats->early_stopped ||
              stats->epoch_mean_loss.size() == 30u);
  // The estimator is still usable after weight restoration.
  auto info = estimator.Estimate(workload->examples[0].query);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(std::isfinite(info->count));
}

TEST(NeurSCTest, ValidationOffByDefault) {
  auto data = GenerateErdosRenyiGraph(60, 180, 3, 57);
  ASSERT_TRUE(data.ok());
  auto workload = BuildWorkload(*data, {3}, 6);
  ASSERT_TRUE(workload.ok());
  NeurSCEstimator estimator(*data, TinyConfig());
  auto stats = estimator.Train(workload->examples);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->epoch_validation_qerror.empty());
  EXPECT_FALSE(stats->early_stopped);
}

TEST(NeurSCTest, TrainRejectsEmptyExampleList) {
  auto data = GenerateErdosRenyiGraph(40, 120, 3, 43);
  ASSERT_TRUE(data.ok());
  NeurSCEstimator estimator(*data, TinyConfig());
  EXPECT_FALSE(estimator.Train({}).ok());
}

TEST(NeurSCTest, EmptyQueryIsRejectedWithAndWithoutExtraction) {
  Graph ring = MakeGraph({0, 0, 0, 0, 0, 0},
                         {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  Graph path = MakeGraph({0, 0}, {{0, 1}});
  Graph empty = MakeGraph({}, {});
  for (bool extraction : {true, false}) {
    SCOPED_TRACE(extraction ? "with extraction" : "without extraction");
    NeurSCConfig config = TinyConfig();
    config.use_substructure_extraction = extraction;
    NeurSCEstimator estimator(ring, config);

    auto info = estimator.Estimate(empty);
    ASSERT_FALSE(info.ok());
    EXPECT_EQ(info.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(info.status().message().find("empty query graph"),
              std::string::npos)
        << info.status().ToString();

    auto stats = estimator.Train({{path, 12.0}, {empty, 1.0}});
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(stats.status().message().find("empty query graph"),
              std::string::npos)
        << stats.status().ToString();

    auto ext = ExtractSubstructures(path, ring);
    ASSERT_TRUE(ext.ok());
    auto given = estimator.EstimateOnSubstructures(empty, *ext);
    ASSERT_FALSE(given.ok());
    EXPECT_EQ(given.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(given.status().message().find("empty query graph"),
              std::string::npos)
        << given.status().ToString();
  }
}

TEST(NeurSCTest, EstimateOnSubstructuresRejectsAnExtractionThatDoesNotFit) {
  Graph ring = MakeGraph({0, 0, 0, 0, 0, 0},
                         {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  Graph path = MakeGraph({0, 0}, {{0, 1}});
  Graph long_path =
      MakeGraph({0, 0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  auto ext = ExtractSubstructures(path, ring);
  ASSERT_TRUE(ext.ok());
  ASSERT_FALSE(ext->substructures.empty());
  NeurSCEstimator estimator(ring, TinyConfig());
  ASSERT_TRUE(estimator.EstimateOnSubstructures(path, *ext).ok());

  // Two candidate sets for a query of five vertices.
  auto info = estimator.EstimateOnSubstructures(long_path, *ext);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kInvalidArgument);

  // A candidate id past the substructure's last vertex.
  ExtractionResult outside = *ext;
  Substructure& sub = outside.substructures[0];
  sub.local_candidates[1].push_back(
      static_cast<VertexId>(sub.graph.NumVertices()));
  info = estimator.EstimateOnSubstructures(path, outside);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kInvalidArgument);
}

TEST(NeurSCTest, WithoutExtractionEstimatesOnTheWholeGraph) {
  auto data = GenerateErdosRenyiGraph(60, 180, 3, 37);
  ASSERT_TRUE(data.ok());
  auto workload = BuildWorkload(*data, {3, 4}, 3);
  ASSERT_TRUE(workload.ok());
  std::vector<Graph> queries;
  for (const auto& example : workload->examples) {
    queries.push_back(example.query);
  }
  NeurSCConfig no_se = TinyConfig();
  no_se.use_substructure_extraction = false;
  // What w/o SE forces, with extraction left on.
  NeurSCConfig intra_only = TinyConfig();
  intra_only.west.use_inter = false;
  intra_only.use_discriminator = false;

  // Estimate(q) without extraction is EstimateOnSubstructures on the whole
  // graph, with one empty candidate set per query vertex.
  NeurSCEstimator whole_graph(*data, no_se);
  NeurSCEstimator given(*data, intra_only);
  for (const Graph& query : queries) {
    ExtractionResult whole;
    Substructure& sub = whole.substructures.emplace_back();
    sub.graph = *data;
    for (VertexId v = 0; v < data->NumVertices(); ++v) {
      sub.original_id.push_back(v);
    }
    sub.local_candidates.assign(query.NumVertices(), {});
    auto want = given.EstimateOnSubstructures(query, whole);
    auto got = whole_graph.Estimate(query);
    ASSERT_TRUE(want.ok() && got.ok());
    EXPECT_EQ(got->count, want->count);
    EXPECT_EQ(got->num_substructures, 1u);
  }

  // EstimateBatch equals sequential Estimate, at 1 and 8 threads.
  for (size_t threads : {1, 8}) {
    testing_util::ThreadsGuard guard(threads);
    NeurSCEstimator sequential(*data, no_se);
    NeurSCEstimator batched(*data, no_se);
    auto batch = batched.EstimateBatch(queries);
    ASSERT_TRUE(batch.ok());
    for (size_t q = 0; q < queries.size(); ++q) {
      auto info = sequential.Estimate(queries[q]);
      ASSERT_TRUE(info.ok());
      EXPECT_EQ((*batch)[q].count, info->count)
          << threads << " threads, query " << q;
    }
  }

  // Two Train runs give identical weights.
  NeurSCEstimator first(*data, no_se);
  NeurSCEstimator second(*data, no_se);
  ASSERT_TRUE(first.Train(workload->examples).ok());
  ASSERT_TRUE(second.Train(workload->examples).ok());
  EXPECT_TRUE(testing_util::WeightsUnchanged(
      second.model().Parameters(),
      testing_util::SnapshotWeights(first.model().Parameters())));
}

}  // namespace
}  // namespace neursc
