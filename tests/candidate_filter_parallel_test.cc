// Differential serial-vs-parallel property tests for candidate filtering.
//
// ComputeCandidateSets parallelizes its stage-1 local-pruning loop (and the
// data-profile precomputation feeding it); the contract is that the
// resulting candidate sets are *identical* to a serial run — same vertices,
// same order — for every NEURSC_THREADS value and every option combination.
// The TSan stress case at the bottom is part of the ci.sh sanitizer lane
// (ctest -L concurrency).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/query_generator.h"
#include "matching/candidate_filter.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::ThreadsGuard;

/// Candidate sets computed with the given thread count.
CandidateSets ComputeWithThreads(const Graph& query, const Graph& data,
                                 const CandidateFilterOptions& options,
                                 size_t threads) {
  ThreadsGuard guard(threads);
  auto result = ComputeCandidateSets(query, data, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

void ExpectIdenticalCandidates(const CandidateSets& a,
                               const CandidateSets& b,
                               const std::string& context) {
  ASSERT_EQ(a.candidates.size(), b.candidates.size()) << context;
  for (size_t u = 0; u < a.candidates.size(); ++u) {
    EXPECT_EQ(a.candidates[u], b.candidates[u])
        << context << " query vertex " << u;
  }
}

TEST(CandidateFilterParallelTest, MatchesSerialOnRandomGraphs) {
  const std::vector<CandidateFilterOptions> option_variants = [] {
    CandidateFilterOptions defaults;
    CandidateFilterOptions local;
    local.refinement_rounds = 0;
    return std::vector<CandidateFilterOptions>{defaults, local};
  }();
  for (uint64_t seed : {11u, 29u, 47u, 83u, 131u}) {
    GeneratorConfig gconfig;
    gconfig.num_vertices = 220;
    gconfig.num_edges = 700;
    gconfig.num_labels = 6;
    gconfig.seed = seed;
    auto data = GeneratePowerLawGraph(gconfig);
    ASSERT_TRUE(data.ok());
    QueryGeneratorConfig qconfig;
    qconfig.query_size = 5;
    qconfig.seed = seed + 1;
    QueryGenerator generator(*data, qconfig);
    auto queries = generator.GenerateMany(4);
    ASSERT_TRUE(queries.ok());
    for (const Graph& query : *queries) {
      for (const CandidateFilterOptions& options : option_variants) {
        CandidateSets serial =
            ComputeWithThreads(query, *data, options, 1);
        for (size_t threads : {2u, 8u}) {
          CandidateSets parallel =
              ComputeWithThreads(query, *data, options, threads);
          ExpectIdenticalCandidates(
              serial, parallel,
              "seed=" + std::to_string(seed) +
                  " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

TEST(CandidateFilterParallelTest, MatchesSerialOnErdosRenyi) {
  for (uint64_t seed : {5u, 17u, 61u}) {
    auto data = GenerateErdosRenyiGraph(150, 450, 4, seed);
    ASSERT_TRUE(data.ok());
    QueryGeneratorConfig qconfig;
    qconfig.query_size = 4;
    qconfig.edge_keep_probability = 0.7;
    qconfig.seed = seed;
    QueryGenerator generator(*data, qconfig);
    auto queries = generator.GenerateMany(3);
    ASSERT_TRUE(queries.ok());
    for (const Graph& query : *queries) {
      CandidateSets serial = ComputeWithThreads(query, *data, {}, 1);
      CandidateSets parallel = ComputeWithThreads(query, *data, {}, 8);
      ExpectIdenticalCandidates(serial, parallel,
                                "er seed=" + std::to_string(seed));
    }
  }
}

/// TSan stress: repeated 8-thread filtering on a larger graph so the
/// sanitizer lane gets real concurrency over the shared read-only
/// profiles. Run under NEURSC_SANITIZE=thread by ci.sh.
TEST(CandidateFilterParallelTest, TsanStressEightThreads) {
  ThreadsGuard guard(8);
  GeneratorConfig gconfig;
  gconfig.num_vertices = 400;
  gconfig.num_edges = 1600;
  gconfig.num_labels = 5;
  gconfig.seed = 303;
  auto data = GeneratePowerLawGraph(gconfig);
  ASSERT_TRUE(data.ok());
  QueryGeneratorConfig qconfig;
  qconfig.query_size = 6;
  qconfig.seed = 9;
  QueryGenerator generator(*data, qconfig);
  auto queries = generator.GenerateMany(6);
  ASSERT_TRUE(queries.ok());
  for (int iter = 0; iter < 3; ++iter) {
    for (const Graph& query : *queries) {
      auto result = ComputeCandidateSets(query, *data, {});
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result->candidates.size(), query.NumVertices());
    }
  }
}

}  // namespace
}  // namespace neursc
