#include "baselines/sampling.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/query_generator.h"
#include "matching/enumeration.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::MakeGraph;

TEST(ConnectedQueryOrderTest, CoversAllVerticesConnected) {
  struct Case {
    Graph query;
    VertexId start;
  };
  Graph cycle = MakeGraph({0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  // A star centred on vertex 2 plus a tail off vertex 4: the max-degree
  // vertex is 2, and SumRDF starts at 0 instead.
  Graph star = MakeGraph({0, 0, 0, 0, 0, 0},
                         {{0, 2}, {1, 2}, {2, 3}, {2, 4}, {4, 5}});
  ASSERT_EQ(MaxDegreeVertex(star), 2u);
  const std::vector<Case> cases = {
      {cycle, MaxDegreeVertex(cycle)},
      {star, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "start " << c.start << " of "
                                    << c.query.NumVertices());
    auto order = ConnectedQueryOrder(c.query, c.start);
    ASSERT_EQ(order.size(), c.query.NumVertices());
    EXPECT_EQ(order[0], c.start);
    std::vector<bool> seen(c.query.NumVertices(), false);
    seen[order[0]] = true;
    for (size_t i = 1; i < order.size(); ++i) {
      EXPECT_FALSE(seen[order[i]]) << "vertex " << order[i] << " repeated";
      bool attached = false;
      for (VertexId w : c.query.Neighbors(order[i])) {
        if (seen[w]) attached = true;
      }
      EXPECT_TRUE(attached) << "vertex " << order[i] << " at position " << i;
      seen[order[i]] = true;
    }
  }
}

TEST(CorrelatedSamplingTest, EstimateNonNegative) {
  auto data = GenerateErdosRenyiGraph(300, 900, 3, 3);
  ASSERT_TRUE(data.ok());
  CorrelatedSamplingEstimator cs(*data);
  Graph query = MakeGraph({0, 1}, {{0, 1}});
  auto est = cs.EstimateCount(query);
  ASSERT_TRUE(est.ok());
  EXPECT_GE(*est, 0.0);
}

TEST(CorrelatedSamplingTest, HighRateApproachesTruth) {
  auto data = GenerateErdosRenyiGraph(200, 600, 2, 5);
  ASSERT_TRUE(data.ok());
  CorrelatedSamplingEstimator::Options options;
  options.sample_probability = 0.999999;
  CorrelatedSamplingEstimator cs(*data, options);
  Graph query = MakeGraph({0, 1}, {{0, 1}});
  auto truth = CountSubgraphIsomorphisms(query, *data);
  ASSERT_TRUE(truth.ok());
  auto est = cs.EstimateCount(query);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(*est, static_cast<double>(truth->count),
              0.01 * truth->count + 1.0);
}

TEST(CorrelatedSamplingTest, SelectiveQueriesCanFail) {
  // A single rare structure is likely lost at a low sampling rate:
  // the estimate collapses to 0 (sampling failure) rather than erroring.
  GraphBuilder b;
  VertexId a = b.AddVertex(5);
  VertexId c = b.AddVertex(6);
  ASSERT_TRUE(b.AddEdge(a, c).ok());
  for (int i = 0; i < 400; ++i) {
    VertexId x = b.AddVertex(0);
    VertexId y = b.AddVertex(0);
    ASSERT_TRUE(b.AddEdge(x, y).ok());
  }
  Graph data = std::move(b.Build()).value();
  CorrelatedSamplingEstimator::Options options;
  options.sample_probability = 0.05;
  options.seed = 12345;
  CorrelatedSamplingEstimator cs(data, options);
  Graph query = MakeGraph({5, 6}, {{0, 1}});
  auto est = cs.EstimateCount(query);
  ASSERT_TRUE(est.ok());
  // With p=0.05 the unique 5-6 edge survives with probability 0.0025.
  EXPECT_DOUBLE_EQ(*est, 0.0);
}

TEST(WanderJoinTest, UnbiasedOnEdgeQuery) {
  auto data = GenerateErdosRenyiGraph(100, 300, 2, 7);
  ASSERT_TRUE(data.ok());
  WanderJoinEstimator::Options options;
  options.num_walks = 2000;
  WanderJoinEstimator wj(*data, options);
  Graph query = MakeGraph({0, 1}, {{0, 1}});
  auto truth = CountSubgraphIsomorphisms(query, *data);
  ASSERT_TRUE(truth.ok());
  auto est = wj.EstimateCount(query);
  ASSERT_TRUE(est.ok());
  // Single-edge walks always succeed: the estimate is exactly the number
  // of label-matching first edges.
  EXPECT_NEAR(*est, static_cast<double>(truth->count),
              0.05 * truth->count + 1.0);
}

TEST(WanderJoinTest, PathQueryWithinTolerance) {
  auto data = GenerateErdosRenyiGraph(80, 240, 2, 9);
  ASSERT_TRUE(data.ok());
  WanderJoinEstimator::Options options;
  options.num_walks = 8000;
  options.seed = 101;
  WanderJoinEstimator wj(*data, options);
  Graph query = MakeGraph({0, 1, 0}, {{0, 1}, {1, 2}});
  auto truth = CountSubgraphIsomorphisms(query, *data);
  ASSERT_TRUE(truth.ok());
  ASSERT_GT(truth->count, 0u);
  auto est = wj.EstimateCount(query);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(*est, static_cast<double>(truth->count),
              0.35 * truth->count + 5.0);
}

TEST(WanderJoinTest, ZeroWhenNoMatchingFirstEdge) {
  Graph data = MakeGraph({0, 0}, {{0, 1}});
  WanderJoinEstimator wj(data);
  Graph query = MakeGraph({5, 6}, {{0, 1}});
  auto est = wj.EstimateCount(query);
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(*est, 0.0);
}

TEST(JsubTest, UnbiasedOnPathQuery) {
  auto data = GenerateErdosRenyiGraph(80, 240, 2, 11);
  ASSERT_TRUE(data.ok());
  JsubEstimator::Options options;
  options.num_walks = 8000;
  options.seed = 103;
  JsubEstimator jsub(*data, options);
  Graph query = MakeGraph({0, 1, 0}, {{0, 1}, {1, 2}});
  auto truth = CountSubgraphIsomorphisms(query, *data);
  ASSERT_TRUE(truth.ok());
  ASSERT_GT(truth->count, 0u);
  auto est = jsub.EstimateCount(query);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(*est, static_cast<double>(truth->count),
              0.35 * truth->count + 5.0);
}

TEST(JsubTest, TriangleQueryReasonable) {
  auto data = GenerateErdosRenyiGraph(60, 400, 1, 13);
  ASSERT_TRUE(data.ok());
  JsubEstimator::Options options;
  options.num_walks = 20000;
  JsubEstimator jsub(*data, options);
  Graph query = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}});
  auto truth = CountSubgraphIsomorphisms(query, *data);
  ASSERT_TRUE(truth.ok());
  if (truth->count == 0) GTEST_SKIP();
  auto est = jsub.EstimateCount(query);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(*est, static_cast<double>(truth->count),
              0.6 * truth->count + 10.0);
}

TEST(JsubTest, ZeroWhenRootLabelMissing) {
  Graph data = MakeGraph({0, 0}, {{0, 1}});
  JsubEstimator jsub(data);
  Graph query = MakeGraph({5, 5}, {{0, 1}});
  auto est = jsub.EstimateCount(query);
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(*est, 0.0);
}


TEST(WanderJoinTest, DeadlineReturnsTimeout) {
  auto data = GenerateErdosRenyiGraph(100, 300, 2, 15);
  ASSERT_TRUE(data.ok());
  WanderJoinEstimator::Options options;
  options.time_limit_seconds = -1.0;  // Deadline(<=0) means unlimited...
  options.num_walks = 10;
  WanderJoinEstimator wj(*data, options);
  Graph query = MakeGraph({0, 1}, {{0, 1}});
  auto est = wj.EstimateCount(query);
  EXPECT_TRUE(est.ok());  // unlimited budget still completes
}

TEST(CorrelatedSamplingTest, SampleSharedAcrossQueries) {
  // The "correlated" property: repeated estimates of the same query are
  // identical because the vertex sample is fixed at construction.
  auto data = GenerateErdosRenyiGraph(200, 600, 2, 17);
  ASSERT_TRUE(data.ok());
  CorrelatedSamplingEstimator cs(*data);
  Graph query = MakeGraph({0, 1}, {{0, 1}});
  auto a = cs.EstimateCount(query);
  auto b = cs.EstimateCount(query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(*a, *b);
}

TEST(JsubTest, DegreeFilteredRootsExcludeSmallVertices) {
  // Root requires degree >= 2; only the center of the star qualifies, so
  // every walk starts there and the estimate is exact for the star.
  Graph data = MakeGraph({0, 1, 1, 1}, {{0, 1}, {0, 2}, {0, 3}});
  JsubEstimator::Options options;
  options.num_walks = 500;
  JsubEstimator jsub(data, options);
  Graph query = MakeGraph({0, 1, 1}, {{0, 1}, {0, 2}});
  auto est = jsub.EstimateCount(query);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(*est, 6.0, 1e-6);
}

// A query with an isolated vertex, and two vertices with no edge: the walks
// cannot reach every query vertex, so WJ and JSUB reject them, while CS
// still counts them on its sample.
std::vector<Graph> DisconnectedQueries() {
  return {MakeGraph({0, 1, 0}, {{0, 1}}), MakeGraph({0, 1}, {})};
}

TEST(WanderJoinTest, DisconnectedQueryIsInvalidArgument) {
  auto data = GenerateErdosRenyiGraph(80, 240, 2, 19);
  ASSERT_TRUE(data.ok());
  WanderJoinEstimator wj(*data);
  for (const Graph& query : DisconnectedQueries()) {
    auto est = wj.EstimateCount(query);
    ASSERT_FALSE(est.ok()) << query.NumVertices() << " vertices";
    EXPECT_TRUE(est.status().IsInvalidArgument()) << est.status().ToString();
  }
}

TEST(JsubTest, DisconnectedQueryIsInvalidArgument) {
  auto data = GenerateErdosRenyiGraph(80, 240, 2, 19);
  ASSERT_TRUE(data.ok());
  JsubEstimator jsub(*data);
  for (const Graph& query : DisconnectedQueries()) {
    auto est = jsub.EstimateCount(query);
    ASSERT_FALSE(est.ok()) << query.NumVertices() << " vertices";
    EXPECT_TRUE(est.status().IsInvalidArgument()) << est.status().ToString();
  }
}

TEST(CorrelatedSamplingTest, DisconnectedQueryIsCounted) {
  auto data = GenerateErdosRenyiGraph(80, 240, 2, 19);
  ASSERT_TRUE(data.ok());
  CorrelatedSamplingEstimator cs(*data);
  for (const Graph& query : DisconnectedQueries()) {
    auto est = cs.EstimateCount(query);
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    EXPECT_GE(*est, 0.0);
  }
}

}  // namespace
}  // namespace neursc
