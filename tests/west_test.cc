#include "core/west.h"

#include <gtest/gtest.h>

#include "core/feature_init.h"
#include "matching/substructure.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::MakeGraph;

struct TestFixture {
  Graph query = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}, {0, 2}});
  Graph data = MakeGraph({0, 1, 2, 0, 1, 2},
                         {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5},
                          {2, 3}});
  ExtractionResult extraction;
  FeatureInitializer features{data, 1};

  TestFixture() {
    auto ext = ExtractSubstructures(query, data);
    EXPECT_TRUE(ext.ok());
    extraction = std::move(ext).value();
    EXPECT_FALSE(extraction.early_terminate);
    EXPECT_GE(extraction.substructures.size(), 1u);
  }
};

TEST(BipartiteEdgesTest, CandidateEdgesBothDirections) {
  TestFixture fx;
  Rng rng(1);
  const Substructure& sub = fx.extraction.substructures[0];
  EdgeIndex edges = BuildBipartiteEdges(fx.query, sub, &rng);
  ASSERT_GT(edges.size(), 0u);
  EXPECT_EQ(edges.src.size(), edges.dst.size());
  const size_t nq = fx.query.NumVertices();
  // Every edge crosses the bipartition.
  for (size_t i = 0; i < edges.size(); ++i) {
    bool src_query = edges.src[i] < nq;
    bool dst_query = edges.dst[i] < nq;
    EXPECT_NE(src_query, dst_query);
  }
}

TEST(BipartiteEdgesTest, ConnectsIsolatedVertices) {
  // Substructure with a vertex that is nobody's candidate: the random
  // linking edges must still make G_B connected.
  Graph query = MakeGraph({0, 1}, {{0, 1}});
  Substructure sub;
  sub.graph = MakeGraph({0, 1, 5}, {{0, 1}, {1, 2}});
  sub.original_id = {0, 1, 2};
  sub.local_candidates = {{0}, {1}};  // vertex 2 is isolated in G_B
  Rng rng(2);
  EdgeIndex edges = BuildBipartiteEdges(query, sub, &rng);
  // Union-find check over nq + ns = 5 vertices.
  std::vector<int> parent(5);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (size_t i = 0; i < edges.size(); ++i) {
    parent[find(static_cast<int>(edges.src[i]))] =
        find(static_cast<int>(edges.dst[i]));
  }
  for (int v = 1; v < 5; ++v) EXPECT_EQ(find(v), find(0));
}

TEST(WEstModelTest, ForwardShapesAndPositivity) {
  TestFixture fx;
  WEstConfig config;
  WEstModel model(fx.features.FeatureDim(), config);
  Rng rng(3);
  Tape tape;
  const Substructure& sub = fx.extraction.substructures[0];
  auto fw = model.Forward(&tape, fx.query, sub,
                          fx.features.Compute(fx.query),
                          fx.features.Compute(sub.graph), &rng);
  EXPECT_EQ(tape.Value(fw.query_repr).rows(), fx.query.NumVertices());
  EXPECT_EQ(tape.Value(fw.query_repr).cols(), model.ReprDim());
  EXPECT_EQ(tape.Value(fw.sub_repr).rows(), sub.graph.NumVertices());
  EXPECT_GT(tape.Value(fw.prediction).scalar(), 0.0f);
}

TEST(WEstModelTest, IntraOnlyVariantShrinksRepr) {
  TestFixture fx;
  WEstConfig config;
  config.use_inter = false;
  WEstModel model(fx.features.FeatureDim(), config);
  EXPECT_EQ(model.ReprDim(), 32u);  // dim_K alone
  Rng rng(4);
  Tape tape;
  const Substructure& sub = fx.extraction.substructures[0];
  auto fw = model.Forward(&tape, fx.query, sub,
                          fx.features.Compute(fx.query),
                          fx.features.Compute(sub.graph), &rng);
  EXPECT_EQ(tape.Value(fw.query_repr).cols(), 32u);
}

TEST(WEstModelTest, ParameterCountMatchesConfig) {
  WEstConfig config;
  WEstModel model(16, config);
  EXPECT_GT(model.Parameters().size(), 0u);
  size_t weights = 0;
  for (Parameter* p : model.Parameters()) weights += p->value.size();
  EXPECT_EQ(weights, model.NumWeights());
}

TEST(WEstModelTest, DeterministicForwardGivenSeeds) {
  TestFixture fx;
  WEstConfig config;
  config.seed = 99;
  WEstModel m1(fx.features.FeatureDim(), config);
  WEstModel m2(fx.features.FeatureDim(), config);
  const Substructure& sub = fx.extraction.substructures[0];
  Matrix qf = fx.features.Compute(fx.query);
  Matrix sf = fx.features.Compute(sub.graph);
  Rng r1(5);
  Rng r2(5);
  Tape t1;
  Tape t2;
  auto f1 = m1.Forward(&t1, fx.query, sub, qf, sf, &r1);
  auto f2 = m2.Forward(&t2, fx.query, sub, qf, sf, &r2);
  EXPECT_FLOAT_EQ(t1.Value(f1.prediction).scalar(),
                  t2.Value(f2.prediction).scalar());
}

TEST(WEstModelTest, GradientsFlowToAllParameters) {
  TestFixture fx;
  WEstConfig config;
  WEstModel model(fx.features.FeatureDim(), config);
  Rng rng(6);
  Tape tape;
  const Substructure& sub = fx.extraction.substructures[0];
  auto fw = model.Forward(&tape, fx.query, sub,
                          fx.features.Compute(fx.query),
                          fx.features.Compute(sub.graph), &rng);
  Var loss = tape.QErrorLoss(fw.prediction, 12.0);
  tape.Backward(loss);
  size_t nonzero = 0;
  for (Parameter* p : model.Parameters()) {
    if (p->grad.Norm() > 0.0f) ++nonzero;
  }
  // The epsilon parameters may have tiny gradients, but the bulk of the
  // network must receive signal.
  EXPECT_GT(nonzero, model.Parameters().size() / 2);
}


TEST(WEstModelTest, MeanAggregatorVariantRuns) {
  TestFixture fx;
  WEstConfig config;
  config.intra_kind = IntraGnnKind::kMeanAggregator;
  WEstModel model(fx.features.FeatureDim(), config);
  Rng rng(7);
  Tape tape;
  const Substructure& sub = fx.extraction.substructures[0];
  auto fw = model.Forward(&tape, fx.query, sub,
                          fx.features.Compute(fx.query),
                          fx.features.Compute(sub.graph), &rng);
  EXPECT_GT(tape.Value(fw.prediction).scalar(), 0.0f);
  EXPECT_EQ(tape.Value(fw.query_repr).cols(), model.ReprDim());
}

}  // namespace
}  // namespace neursc
