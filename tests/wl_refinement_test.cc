#include "wl_refinement.h"

#include <gtest/gtest.h>

#include "core/feature_init.h"
#include "graph/generators.h"
#include "nn/modules.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::MakeGraph;

TEST(WlRefinementTest, RegularUnlabeledGraphStaysUniform) {
  // A cycle is vertex-transitive: one color forever.
  Graph cycle = MakeGraph({0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  auto colors = WlColors(cycle);
  for (uint32_t c : colors) EXPECT_EQ(c, colors[0]);
}

TEST(WlRefinementTest, PathEndpointsSeparateFromMiddle) {
  Graph path = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}});
  auto colors = WlColors(path);
  EXPECT_EQ(colors[0], colors[2]);
  EXPECT_NE(colors[0], colors[1]);
}

TEST(WlRefinementTest, LabelsSeedTheColoring) {
  Graph g = MakeGraph({0, 1, 0}, {{0, 1}, {1, 2}});
  auto colors = WlColors(g, 0);
  EXPECT_EQ(colors[0], colors[2]);
  EXPECT_NE(colors[0], colors[1]);
}

TEST(WlRefinementTest, DistinguishesTriangleFromPath) {
  Graph triangle = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}});
  Graph path = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}});
  EXPECT_TRUE(WlDistinguishes(triangle, path));
}

TEST(WlRefinementTest, IsomorphicGraphsNotDistinguished) {
  Graph a = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}});
  // Same path, different vertex order.
  Graph b = MakeGraph({2, 1, 0}, {{0, 1}, {1, 2}});
  EXPECT_FALSE(WlDistinguishes(a, b));
}

TEST(WlRefinementTest, ClassicWlBlindSpot) {
  // Two 6-vertex 2-regular graphs: C6 vs 2xC3 — 1-WL famously cannot
  // distinguish them (unlabeled).
  Graph c6 = MakeGraph({0, 0, 0, 0, 0, 0},
                       {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  Graph two_c3 = MakeGraph({0, 0, 0, 0, 0, 0},
                           {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  EXPECT_FALSE(WlDistinguishes(c6, two_c3));
}

TEST(WlRefinementTest, RoundLimitWeakensTest) {
  // A long path needs several rounds to separate near-middle vertices;
  // with 0 rounds (initial labels only) everything is one color.
  GraphBuilder b;
  for (int i = 0; i < 9; ++i) b.AddVertex(0);
  for (int i = 0; i + 1 < 9; ++i) EXPECT_TRUE(b.AddEdge(i, i + 1).ok());
  Graph path = std::move(b.Build()).value();
  auto one_round = WlColors(path, 1);
  auto converged = WlColors(path, 0);
  std::set<uint32_t> colors_one(one_round.begin(), one_round.end());
  std::set<uint32_t> colors_full(converged.begin(), converged.end());
  EXPECT_LT(colors_one.size(), colors_full.size());
}

// Theorem 5.3 (empirical): when 1-WL distinguishes two graphs, the
// sum-pooled GIN embedding (random weights) distinguishes them too. Swept
// over random graph pairs; pairs 1-WL cannot distinguish are skipped.
class ExpressivenessTest : public ::testing::TestWithParam<int> {};

TEST_P(ExpressivenessTest, GinSeparatesWlDistinguishablePairs) {
  int seed = GetParam();
  auto g1 = GenerateErdosRenyiGraph(10, 18, 2, seed);
  auto g2 = GenerateErdosRenyiGraph(10, 18, 2, seed + 1000);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  if (!WlDistinguishes(*g1, *g2, 2)) GTEST_SKIP() << "1-WL tie";

  // Shared encoder + 2-layer GIN, as in WEst's intra branch.
  FeatureInitializer features(3, 2, 1);
  Rng rng(seed);
  GinLayer layer1(features.FeatureDim(), 16, &rng);
  GinLayer layer2(16, 16, &rng);

  auto embed = [&](const Graph& g) {
    EdgeIndex edges;
    for (size_t v = 0; v < g.NumVertices(); ++v) {
      for (VertexId w : g.Neighbors(static_cast<VertexId>(v))) {
        edges.Add(static_cast<uint32_t>(w), static_cast<uint32_t>(v));
      }
    }
    Tape tape;
    Var h = tape.Constant(features.Compute(g));
    h = layer1.Forward(&tape, h, edges);
    h = layer2.Forward(&tape, h, edges);
    Var pooled = tape.SumRows(h);
    return tape.Value(pooled);
  };

  Matrix e1 = embed(*g1);
  Matrix e2 = embed(*g2);
  EXPECT_GT(Matrix::MaxAbsDiff(e1, e2), 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(RandomPairs, ExpressivenessTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace neursc
