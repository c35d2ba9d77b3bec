// Differential serial-vs-parallel harness for the estimation hot path.
//
// The threading contract (docs/threading.md) promises that Estimate,
// EstimateOnSubstructures, and EstimateBatch return bit-identical results
// at every NEURSC_THREADS value: all random decisions are drawn from the
// estimator RNG serially before the parallel region, every forward pass
// runs on its thread's own Tape (a ThreadTape scope) with a private RNG,
// the prepare step's per-thread extraction scratch is reset after every
// query, and per-substructure counts are reduced in index order. These
// tests enforce the contract by comparing each parallel configuration
// against the single-threaded reference across RNG seeds, including the
// r_s < 1 sampling path, with exact equality. They also pin that the three
// entry points are one pipeline: EstimateBatch equals sequential Estimate,
// and EstimateOnSubstructures fed Estimate's own extraction equals
// Estimate.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics_registry.h"
#include "common/trace.h"
#include "core/neursc.h"
#include "eval/workload.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "matching/substructure.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::MakeGraph;
using testing_util::ReadFileToString;
using testing_util::ThreadsGuard;

constexpr uint64_t kSeeds[] = {31, 77, 123, 4242, 99991};
constexpr size_t kThreadCounts[] = {1, 2, 8};

NeurSCConfig TinyConfig(uint64_t seed) {
  NeurSCConfig config;
  config.seed = seed;
  return config;
}

/// Data graph with many connected components so extraction yields several
/// substructures per query (the interesting case for the work pool and for
/// r_s sampling): `k` disjoint triangles, uniform label 0.
Graph DisjointTriangles(size_t k) {
  std::vector<Label> labels(3 * k, 0);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (size_t c = 0; c < k; ++c) {
    VertexId base = static_cast<VertexId>(3 * c);
    edges.push_back({base, static_cast<VertexId>(base + 1)});
    edges.push_back({static_cast<VertexId>(base + 1),
                     static_cast<VertexId>(base + 2)});
    edges.push_back({base, static_cast<VertexId>(base + 2)});
  }
  return MakeGraph(labels, edges);
}

/// Like DisjointTriangles but with components of varying cycle lengths
/// (3..6), so substructures are pairwise non-isomorphic: a wrong r_s
/// sample or a misrouted per-substructure seed changes the final count,
/// which the differential comparison then catches.
Graph MixedCycles(size_t k) {
  std::vector<Label> labels;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (size_t c = 0; c < k; ++c) {
    size_t len = 3 + (c % 4);
    VertexId base = static_cast<VertexId>(labels.size());
    for (size_t i = 0; i < len; ++i) labels.push_back(0);
    for (size_t i = 0; i < len; ++i) {
      edges.push_back({static_cast<VertexId>(base + i),
                       static_cast<VertexId>(base + (i + 1) % len)});
    }
  }
  return MakeGraph(labels, edges);
}

std::vector<Graph> TestQueries() {
  std::vector<Graph> queries;
  queries.push_back(MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}}));  // triangle
  queries.push_back(MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}}));          // path
  queries.push_back(MakeGraph({0, 0}, {{0, 1}}));                     // edge
  return queries;
}

/// Runs `fn` under every thread count and checks the outputs against the
/// single-threaded run, field by field, exactly.
void ExpectSameAcrossThreadCounts(
    const std::function<std::vector<EstimateInfo>(size_t threads)>& run) {
  std::vector<EstimateInfo> reference;
  {
    ThreadsGuard guard(1);
    reference = run(1);
  }
  for (size_t threads : kThreadCounts) {
    ThreadsGuard guard(threads);
    std::vector<EstimateInfo> got = run(threads);
    ASSERT_EQ(got.size(), reference.size()) << "threads=" << threads;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].count, reference[i].count)
          << "threads=" << threads << " query=" << i;
      EXPECT_EQ(got[i].early_terminated, reference[i].early_terminated)
          << "threads=" << threads << " query=" << i;
      EXPECT_EQ(got[i].num_substructures, reference[i].num_substructures)
          << "threads=" << threads << " query=" << i;
      EXPECT_EQ(got[i].num_used, reference[i].num_used)
          << "threads=" << threads << " query=" << i;
    }
  }
}

TEST(EstimateParallelTest, EstimateMatchesSerialAcrossSeedsAndThreads) {
  Graph data = DisjointTriangles(8);
  std::vector<Graph> queries = TestQueries();
  for (uint64_t seed : kSeeds) {
    ExpectSameAcrossThreadCounts([&](size_t) {
      NeurSCEstimator estimator(data, TinyConfig(seed));
      std::vector<EstimateInfo> infos;
      for (const Graph& q : queries) {
        auto info = estimator.Estimate(q);
        EXPECT_TRUE(info.ok()) << info.status().ToString();
        infos.push_back(*info);
      }
      return infos;
    });
  }
}

TEST(EstimateParallelTest, SamplingPathDrawsSameSampleAtEveryThreadCount) {
  Graph data = MixedCycles(12);
  Graph query = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}});
  for (uint64_t seed : kSeeds) {
    NeurSCConfig config = TinyConfig(seed);
    config.sample_rate = 0.5;  // r_s < 1: ceil(0.5 * n) substructures
    ExpectSameAcrossThreadCounts([&](size_t) {
      NeurSCEstimator estimator(data, config);
      auto info = estimator.Estimate(query);
      EXPECT_TRUE(info.ok()) << info.status().ToString();
      // The sampled subset must be a strict subset for this test to
      // exercise the shuffle; the components are non-isomorphic, so a
      // thread-count-dependent sample would change the count and fail
      // the comparison.
      EXPECT_LT(info->num_used, info->num_substructures);
      return std::vector<EstimateInfo>{*info};
    });
  }
}

TEST(EstimateParallelTest, EstimateOnSubstructuresMatchesSerial) {
  Graph data = DisjointTriangles(8);
  Graph query = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}});
  auto ext = ExtractSubstructures(query, data, {});
  ASSERT_TRUE(ext.ok());
  ASSERT_GT(ext->substructures.size(), 1u);
  for (uint64_t seed : kSeeds) {
    ExpectSameAcrossThreadCounts([&](size_t) {
      NeurSCEstimator estimator(data, TinyConfig(seed));
      auto info = estimator.EstimateOnSubstructures(query, *ext);
      EXPECT_TRUE(info.ok()) << info.status().ToString();
      return std::vector<EstimateInfo>{*info};
    });
  }
}

TEST(EstimateParallelTest, EstimateOnSubstructuresOfOwnExtractionIsEstimate) {
  // One pipeline: fed exactly what Estimate extracts, EstimateOnSubstructures
  // must sample at r_s, draw seeds and scale the sum as Estimate does.
  Graph data = MixedCycles(12);
  for (double rate : {1.0, 0.5}) {
    for (uint64_t seed : kSeeds) {
      NeurSCConfig config = TinyConfig(seed);
      config.sample_rate = rate;
      NeurSCEstimator direct(data, config);
      NeurSCEstimator given(data, config);
      for (const Graph& q : TestQueries()) {
        auto ext = ExtractSubstructures(q, data, config.filter);
        ASSERT_TRUE(ext.ok()) << ext.status().ToString();
        auto want = direct.Estimate(q);
        auto got = given.EstimateOnSubstructures(q, *ext);
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got->count, want->count) << "r_s=" << rate
                                           << " seed=" << seed;
        EXPECT_EQ(got->num_used, want->num_used) << "r_s=" << rate;
        EXPECT_EQ(got->num_substructures, want->num_substructures);
        if (rate < 1.0 && want->num_substructures > 1) {
          EXPECT_LT(got->num_used, got->num_substructures);
        }
      }
    }
  }
}

TEST(EstimateParallelTest, TrainedEstimateBatchMatchesSequentialEstimate) {
  // Trained weights, reloaded into fresh estimators: both start from the
  // same state, so the batch must reproduce sequential Estimate exactly.
  Graph data = MixedCycles(12);
  std::vector<Graph> queries = TestQueries();
  queries.push_back(MakeGraph({0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}}));
  queries.insert(queries.begin() + 1, MakeGraph({9, 9}, {{0, 1}}));
  NeurSCConfig config = TinyConfig(4242);
  config.epochs = 3;
  config.pretrain_epochs = 1;
  const std::string model_path =
      ::testing::TempDir() + "/estimate_parallel_trained.model";
  {
    NeurSCEstimator trainer(data, config);
    std::vector<TrainingExample> examples;
    for (const Graph& q : TestQueries()) {
      examples.push_back(TrainingExample{q, 12.0});
    }
    ASSERT_TRUE(trainer.Train(examples).ok());
    ASSERT_TRUE(trainer.SaveModel(model_path).ok());
  }
  for (size_t threads : kThreadCounts) {
    ThreadsGuard guard(threads);
    NeurSCEstimator sequential(data, config);
    NeurSCEstimator batched(data, config);
    ASSERT_TRUE(sequential.LoadModel(model_path).ok());
    ASSERT_TRUE(batched.LoadModel(model_path).ok());
    auto infos = batched.EstimateBatch(queries);
    ASSERT_TRUE(infos.ok()) << infos.status().ToString();
    ASSERT_EQ(infos->size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      auto want = sequential.Estimate(queries[i]);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_EQ((*infos)[i].count, want->count)
          << "threads=" << threads << " query=" << i;
      EXPECT_EQ((*infos)[i].early_terminated, want->early_terminated);
      EXPECT_EQ((*infos)[i].num_used, want->num_used);
    }
  }
}

TEST(EstimateParallelTest, EstimateBatchMatchesSequentialEstimate) {
  Graph data = DisjointTriangles(8);
  std::vector<Graph> queries = TestQueries();
  // A query whose label is absent exercises the batch early-termination
  // path in the middle of the pool.
  queries.insert(queries.begin() + 1, MakeGraph({9, 9}, {{0, 1}}));
  for (uint64_t seed : kSeeds) {
    for (size_t threads : kThreadCounts) {
      ThreadsGuard guard(threads);
      NeurSCEstimator sequential(data, TinyConfig(seed));
      std::vector<EstimateInfo> expected;
      for (const Graph& q : queries) {
        auto info = sequential.Estimate(q);
        ASSERT_TRUE(info.ok()) << info.status().ToString();
        expected.push_back(*info);
      }
      NeurSCEstimator batched(data, TinyConfig(seed));
      auto infos = batched.EstimateBatch(queries);
      ASSERT_TRUE(infos.ok()) << infos.status().ToString();
      ASSERT_EQ(infos->size(), queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ((*infos)[i].count, expected[i].count)
            << "seed=" << seed << " threads=" << threads << " query=" << i;
        EXPECT_EQ((*infos)[i].early_terminated, expected[i].early_terminated);
        EXPECT_EQ((*infos)[i].num_used, expected[i].num_used);
      }
    }
  }
}

TEST(EstimateParallelTest, EstimateBatchOnGeneratedWorkload) {
  auto data = GenerateErdosRenyiGraph(80, 240, 4, 31);
  ASSERT_TRUE(data.ok());
  auto workload = BuildWorkload(*data, {3, 4}, 4);
  ASSERT_TRUE(workload.ok());
  std::vector<size_t> indices(workload->examples.size());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  for (size_t threads : kThreadCounts) {
    ThreadsGuard guard(threads);
    NeurSCEstimator sequential(*data, TinyConfig(55));
    std::vector<double> expected;
    for (const auto& example : workload->examples) {
      auto info = sequential.Estimate(example.query);
      ASSERT_TRUE(info.ok());
      expected.push_back(info->count);
    }
    NeurSCEstimator batched(*data, TinyConfig(55));
    auto evaluation = EvaluateBatch(&batched, *workload, indices);
    ASSERT_TRUE(evaluation.ok()) << evaluation.status().ToString();
    ASSERT_EQ(evaluation->infos.size(), expected.size());
    ASSERT_EQ(evaluation->signed_qerrors.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(evaluation->infos[i].count, expected[i])
          << "threads=" << threads << " query=" << i;
    }
  }
}

TEST(EstimateParallelTest, BatchTimingInvariantsHoldUnderParallelism) {
  ThreadsGuard guard(8);
  Graph data = DisjointTriangles(10);
  std::vector<Graph> queries = TestQueries();
  queries.push_back(MakeGraph({9, 9}, {{0, 1}}));  // early-terminated
  NeurSCEstimator estimator(data, TinyConfig(42));
  auto infos = estimator.EstimateBatch(queries);
  ASSERT_TRUE(infos.ok());
  for (size_t i = 0; i < infos->size(); ++i) {
    const EstimateInfo& info = (*infos)[i];
    EXPECT_GE(info.extraction_seconds, 0.0) << "query=" << i;
    EXPECT_GE(info.inference_seconds, 0.0) << "query=" << i;
    // The headline invariant: the whole-query interval covers extraction
    // plus the inference window even when substructure passes ran on
    // worker threads interleaved with other queries' work.
    EXPECT_GE(info.total_seconds + 1e-12,
              info.extraction_seconds + info.inference_seconds)
        << "query=" << i;
    if (info.early_terminated) {
      EXPECT_EQ(info.num_used, 0u);
      EXPECT_DOUBLE_EQ(info.count, 0.0);
    } else {
      EXPECT_GE(info.num_used, 1u);
      EXPECT_GT(info.inference_seconds, 0.0);
    }
  }
}

TEST(EstimateParallelTest, SingleEstimateTimingInvariantUnderParallelism) {
  ThreadsGuard guard(8);
  Graph data = DisjointTriangles(10);
  NeurSCEstimator estimator(data, TinyConfig(42));
  auto info =
      estimator.Estimate(MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}}));
  ASSERT_TRUE(info.ok());
  EXPECT_GE(info->total_seconds + 1e-12,
            info->extraction_seconds + info->inference_seconds);
}

TEST(EstimateParallelTest, SubstructuresEvaluatedCountsEveryForwardOnce) {
  ThreadsGuard guard(8);
  Graph data = DisjointTriangles(10);
  std::vector<Graph> queries = TestQueries();
  NeurSCEstimator estimator(data, TinyConfig(42));
  MetricsRegistry::Global().Reset();
  auto infos = estimator.EstimateBatch(queries);
  ASSERT_TRUE(infos.ok());
  size_t expected_forwards = 0;
  for (const EstimateInfo& info : *infos) expected_forwards += info.num_used;
  ASSERT_GT(expected_forwards, 0u);
  // Each evaluated substructure is counted exactly once, no matter which
  // worker thread ran it.
  EXPECT_EQ(MetricsRegistry::Global()
                .GetCounter("estimate.substructures_evaluated")
                ->Value(),
            static_cast<int64_t>(expected_forwards));
}

TEST(EstimateParallelTest, WorkerThreadSpansLandInTrace) {
  ThreadsGuard guard(8);
  Graph data = DisjointTriangles(10);
  std::vector<Graph> queries = TestQueries();
  NeurSCEstimator estimator(data, TinyConfig(42));
  TraceRecorder::Global().Stop();
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Start();
  auto infos = estimator.EstimateBatch(queries);
  ASSERT_TRUE(infos.ok());
  size_t expected_forwards = 0;
  for (const EstimateInfo& info : *infos) expected_forwards += info.num_used;
  // Every worker-side forward-pass span must be buffered (plus the
  // prepare/infer/batch spans from the calling thread).
  EXPECT_GE(TraceRecorder::Global().EventCount(), expected_forwards + 3);
  const std::string path = ::testing::TempDir() + "/batch_trace.json";
  Status st = TraceRecorder::Global().WriteChromeTrace(path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::string json = ReadFileToString(path);
  EXPECT_NE(json.find("west/forward"), std::string::npos);
  EXPECT_NE(json.find("estimate/batch"), std::string::npos);
  TraceRecorder::Global().Stop();
  TraceRecorder::Global().Clear();
}

}  // namespace
}  // namespace neursc
