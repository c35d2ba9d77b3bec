#include "matching/enumeration.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/query_generator.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::BruteForceCount;
using testing_util::MakeGraph;

TEST(EnumerationTest, SingleEdgeDistinctLabels) {
  Graph query = MakeGraph({0, 1}, {{0, 1}});
  Graph data = MakeGraph({0, 1, 0, 1}, {{0, 1}, {2, 3}, {0, 3}});
  auto result = CountSubgraphIsomorphisms(query, data);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 3u);  // 0-1, 2-3, 0-3
  EXPECT_TRUE(result->exact);
}

TEST(EnumerationTest, SingleEdgeSameLabelCountsBothOrientations) {
  Graph query = MakeGraph({0, 0}, {{0, 1}});
  Graph data = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}});
  auto result = CountSubgraphIsomorphisms(query, data);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 4u);  // each data edge in both orientations
}

TEST(EnumerationTest, TriangleInClique) {
  // K4 unlabeled: 4 choose 3 triangles x 6 automorphisms = 24.
  Graph query = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}});
  Graph data = MakeGraph({0, 0, 0, 0},
                         {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  auto result = CountSubgraphIsomorphisms(query, data);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 24u);
}

TEST(EnumerationTest, NoMatchWhenLabelMissing) {
  Graph query = MakeGraph({9, 9}, {{0, 1}});
  Graph data = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}});
  auto result = CountSubgraphIsomorphisms(query, data);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 0u);
}

TEST(EnumerationTest, QueryLargerThanDataIsZero) {
  Graph query = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}});
  Graph data = MakeGraph({0, 0}, {{0, 1}});
  auto result = CountSubgraphIsomorphisms(query, data);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 0u);
}

TEST(EnumerationTest, CollectsEmbeddings) {
  Graph query = MakeGraph({0, 1}, {{0, 1}});
  Graph data = MakeGraph({0, 1, 1}, {{0, 1}, {0, 2}});
  EnumerationOptions options;
  options.collect_embeddings = 10;
  auto result = CountSubgraphIsomorphisms(query, data, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 2u);
  ASSERT_EQ(result->embeddings.size(), 2u);
  for (const auto& embedding : result->embeddings) {
    ASSERT_EQ(embedding.size(), 2u);
    EXPECT_EQ(embedding[0], 0u);
    EXPECT_TRUE(data.HasEdge(embedding[0], embedding[1]));
  }
}

TEST(EnumerationTest, MaxMatchesTruncates) {
  Graph query = MakeGraph({0, 0}, {{0, 1}});
  Graph data = MakeGraph({0, 0, 0, 0},
                         {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  EnumerationOptions options;
  options.max_matches = 3;
  auto result = CountSubgraphIsomorphisms(query, data, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->exact);
  EXPECT_GE(result->count, 3u);
}

TEST(EnumerationTest, EmptyQueryRejected) {
  GraphBuilder b;
  Graph query = std::move(b.Build()).value();
  Graph data = MakeGraph({0}, {});
  EXPECT_FALSE(CountSubgraphIsomorphisms(query, data).ok());
}


TEST(EnumerationTest, ReportsWorkCounters) {
  Graph query = MakeGraph({0, 0}, {{0, 1}});
  Graph data = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}});
  auto result = CountSubgraphIsomorphisms(query, data);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->recursive_calls, 0u);
  EXPECT_GE(result->elapsed_seconds, 0.0);
}

TEST(EnumerationTest, ReusesCallerCandidates) {
  Graph query = MakeGraph({0, 1}, {{0, 1}});
  Graph data = MakeGraph({0, 1, 0, 1}, {{0, 1}, {2, 3}});
  auto cs = ComputeCandidateSets(query, data);
  ASSERT_TRUE(cs.ok());
  auto result =
      CountSubgraphIsomorphismsWithCandidates(query, data, *cs);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 2u);
  // Mismatched candidate-set arity is rejected.
  CandidateSets wrong;
  wrong.candidates.resize(1);
  EXPECT_FALSE(
      CountSubgraphIsomorphismsWithCandidates(query, data, wrong).ok());
}

TEST(EnumerationTest, StarQueryWithRepeatedLabels) {
  // Center 0, three leaves labeled 1 in data; query asks for 2 leaves.
  Graph data = MakeGraph({0, 1, 1, 1}, {{0, 1}, {0, 2}, {0, 3}});
  Graph query = MakeGraph({0, 1, 1}, {{0, 1}, {0, 2}});
  auto result = CountSubgraphIsomorphisms(query, data);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 6u);  // 3 * 2 ordered leaf assignments
}


// Property: the enumerator agrees with brute force on random small
// query/data pairs across seeds and label alphabet sizes.
class EnumerationPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EnumerationPropertyTest, MatchesBruteForce) {
  auto [seed, num_labels] = GetParam();
  auto data = GenerateErdosRenyiGraph(12, 22, num_labels, seed);
  ASSERT_TRUE(data.ok());
  Rng rng(seed * 31 + 1);
  // Random connected query extracted from the data graph itself.
  QueryGeneratorConfig qc;
  qc.query_size = 2 + static_cast<size_t>(seed % 3);
  qc.seed = seed;
  QueryGenerator generator(*data, qc);
  auto query = generator.Generate();
  if (!query.ok()) GTEST_SKIP() << "extraction failed on this seed";
  auto fast = CountSubgraphIsomorphisms(*query, *data);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->count, BruteForceCount(*query, *data));
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, EnumerationPropertyTest,
    ::testing::Combine(::testing::Range(1, 16), ::testing::Values(1, 2, 4)));

}  // namespace
}  // namespace neursc
