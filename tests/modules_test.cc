#include "nn/modules.h"

#include <gtest/gtest.h>

#include "nn/optimizer.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::MaxGradCheckError;

TEST(LinearTest, ForwardShape) {
  Rng rng(1);
  Linear layer(4, 3, &rng);
  Tape tape;
  Var x = tape.Constant(Matrix::Uniform(5, 4, -1, 1, &rng));
  Var y = layer.Forward(&tape, x);
  EXPECT_EQ(tape.Value(y).rows(), 5u);
  EXPECT_EQ(tape.Value(y).cols(), 3u);
  EXPECT_EQ(layer.Parameters().size(), 2u);
}

TEST(LinearTest, GradCheck) {
  Rng rng(2);
  Linear layer(3, 2, &rng);
  Matrix input = Matrix::Uniform(4, 3, -1, 1, &rng);
  auto build = [&](Tape* tape) {
    Var y = layer.Forward(tape, tape->Constant(input));
    return tape->ReduceSum(tape->Mul(y, y));
  };
  auto loss = [&]() {
    Tape tape;
    return static_cast<double>(tape.Value(build(&tape)).scalar());
  };
  {
    Tape tape;
    tape.Backward(build(&tape));
  }
  EXPECT_LT(MaxGradCheckError(layer.Parameters(), loss), 2e-2);
}

TEST(MlpTest, ShapeAndParamCount) {
  Rng rng(3);
  Mlp mlp({6, 8, 8, 1}, Activation::kRelu, &rng);
  EXPECT_EQ(mlp.in_features(), 6u);
  EXPECT_EQ(mlp.out_features(), 1u);
  EXPECT_EQ(mlp.Parameters().size(), 6u);  // 3 layers x (W, b)
  Tape tape;
  Var y = mlp.Forward(&tape, tape.Constant(Matrix::Uniform(2, 6, -1, 1,
                                                           &rng)));
  EXPECT_EQ(tape.Value(y).rows(), 2u);
  EXPECT_EQ(tape.Value(y).cols(), 1u);
}

TEST(MlpTest, CanFitTinyRegression) {
  // y = 2*x0 - x1; train a small MLP to near-zero loss.
  Rng rng(4);
  Mlp mlp({2, 16, 1}, Activation::kRelu, &rng);
  AdamOptimizer::Options opts;
  opts.learning_rate = 5e-3;
  AdamOptimizer optimizer(mlp.Parameters(), opts);
  std::vector<std::pair<Matrix, float>> dataset;
  for (int i = 0; i < 32; ++i) {
    Matrix x = Matrix::Uniform(1, 2, -1, 1, &rng);
    dataset.emplace_back(x, 2.0f * x.at(0, 0) - x.at(0, 1));
  }
  double final_loss = 0.0;
  for (int epoch = 0; epoch < 300; ++epoch) {
    final_loss = 0.0;
    optimizer.ZeroGrad();
    for (const auto& [x, target] : dataset) {
      Tape tape;
      Var pred = mlp.Forward(&tape, tape.Constant(x));
      Var diff = tape.Sub(pred, tape.Constant(Matrix::Scalar(target)));
      Var loss = tape.Mul(diff, diff);
      final_loss += tape.Value(loss).scalar();
      tape.Backward(loss);
    }
    optimizer.Step();
    optimizer.ZeroGrad();
  }
  EXPECT_LT(final_loss / dataset.size(), 1e-2);
}

TEST(GinLayerTest, ForwardShapeAndIsolation) {
  Rng rng(5);
  GinLayer layer(4, 6, &rng);
  Tape tape;
  Matrix features = Matrix::Uniform(3, 4, 0.1f, 1.0f, &rng);
  EdgeIndex edges;
  edges.Add(0, 1);
  edges.Add(1, 0);
  Var h = layer.Forward(&tape, tape.Constant(features), edges);
  EXPECT_EQ(tape.Value(h).rows(), 3u);
  EXPECT_EQ(tape.Value(h).cols(), 6u);
}

TEST(GinLayerTest, EmptyEdgeListWorks) {
  Rng rng(6);
  GinLayer layer(4, 4, &rng);
  Tape tape;
  EdgeIndex edges;
  Var h = layer.Forward(&tape,
                        tape.Constant(Matrix::Uniform(2, 4, 0, 1, &rng)),
                        edges);
  EXPECT_EQ(tape.Value(h).rows(), 2u);
}

TEST(GinLayerTest, GradCheckThroughMessagePassing) {
  Rng rng(7);
  GinLayer layer(3, 4, &rng);
  Matrix features = Matrix::Uniform(4, 3, 0.1f, 1.0f, &rng);
  EdgeIndex edges;  // path 0-1-2-3 in both directions
  for (uint32_t v = 0; v + 1 < 4; ++v) {
    edges.Add(v, v + 1);
    edges.Add(v + 1, v);
  }
  auto build = [&](Tape* tape) {
    Var h = layer.Forward(tape, tape->Constant(features), edges);
    return tape->ReduceSum(tape->Mul(h, h));
  };
  auto loss = [&]() {
    Tape tape;
    return static_cast<double>(tape.Value(build(&tape)).scalar());
  };
  {
    Tape tape;
    tape.Backward(build(&tape));
  }
  EXPECT_LT(MaxGradCheckError(layer.Parameters(), loss), 3e-2);
}

TEST(GinLayerTest, DistinguishesNonIsomorphicNeighborhoods) {
  // Same labels but different structure: sum aggregation must produce
  // different embeddings for a vertex with 1 vs 2 neighbors.
  Rng rng(8);
  GinLayer layer(2, 4, &rng);
  Matrix features = Matrix::Ones(3, 2);
  EdgeIndex star;  // 1 and 2 attach to 0
  star.Add(1, 0);
  star.Add(0, 1);
  star.Add(2, 0);
  star.Add(0, 2);
  Tape tape;
  Var h = layer.Forward(&tape, tape.Constant(features), star);
  const Matrix& out = tape.Value(h);
  // Vertex 0 (degree 2) differs from vertex 1 (degree 1).
  float diff = 0.0f;
  for (size_t c = 0; c < out.cols(); ++c) {
    diff += std::abs(out.at(0, c) - out.at(1, c));
  }
  EXPECT_GT(diff, 1e-4f);
  // Vertices 1 and 2 are symmetric -> identical embeddings.
  for (size_t c = 0; c < out.cols(); ++c) {
    EXPECT_NEAR(out.at(1, c), out.at(2, c), 1e-5f);
  }
}

// The self-loops (v, v) that realize Eq. 4's alpha_uu; the attention
// layer's caller appends them.
void AddSelfLoops(uint32_t num_vertices, EdgeIndex* edges) {
  for (uint32_t v = 0; v < num_vertices; ++v) edges->Add(v, v);
}

TEST(BipartiteAttentionTest, ForwardShape) {
  Rng rng(9);
  BipartiteAttentionLayer layer(4, 5, &rng);
  Tape tape;
  Matrix features = Matrix::Uniform(6, 4, -1, 1, &rng);
  EdgeIndex edges;
  edges.Add(0, 3);
  edges.Add(3, 0);
  edges.Add(1, 4);
  edges.Add(4, 1);
  AddSelfLoops(6, &edges);
  Var h = layer.Forward(&tape, tape.Constant(features), edges);
  EXPECT_EQ(tape.Value(h).rows(), 6u);
  EXPECT_EQ(tape.Value(h).cols(), 5u);
  EXPECT_EQ(layer.Parameters().size(), 3u);
}

TEST(BipartiteAttentionTest, GradCheck) {
  Rng rng(10);
  BipartiteAttentionLayer layer(3, 3, &rng);
  Matrix features = Matrix::Uniform(4, 3, -1, 1, &rng);
  EdgeIndex edges;
  edges.Add(0, 2);
  edges.Add(2, 0);
  edges.Add(1, 3);
  edges.Add(3, 1);
  edges.Add(1, 2);
  edges.Add(2, 1);
  AddSelfLoops(4, &edges);
  auto build = [&](Tape* tape) {
    Var h = layer.Forward(tape, tape->Constant(features), edges);
    return tape->ReduceSum(tape->Mul(h, h));
  };
  auto loss = [&]() {
    Tape tape;
    return static_cast<double>(tape.Value(build(&tape)).scalar());
  };
  {
    Tape tape;
    tape.Backward(build(&tape));
  }
  EXPECT_LT(MaxGradCheckError(layer.Parameters(), loss, 5e-4f), 3e-2);
}

TEST(BipartiteAttentionTest, AttentionWeightsSumToOnePerVertex) {
  // Indirect check: with identical inputs everywhere, output equals the
  // projected input (softmax-weighted average of identical messages).
  Rng rng(11);
  BipartiteAttentionLayer layer(2, 3, &rng);
  Tape tape;
  Matrix features(4, 2);
  features.Fill(0.5f);
  EdgeIndex edges;
  edges.Add(0, 2);
  edges.Add(2, 0);
  edges.Add(1, 2);
  edges.Add(2, 1);
  AddSelfLoops(4, &edges);
  Var h = layer.Forward(&tape, tape.Constant(features), edges);
  const Matrix& out = tape.Value(h);
  // All rows saw only copies of the same message, so rows 0 and 1 (and 3,
  // which only has its self loop) must coincide.
  for (size_t c = 0; c < out.cols(); ++c) {
    EXPECT_NEAR(out.at(0, c), out.at(1, c), 1e-5f);
    EXPECT_NEAR(out.at(0, c), out.at(3, c), 1e-5f);
    EXPECT_NEAR(out.at(0, c), out.at(2, c), 1e-5f);
  }
}

TEST(ModuleTest, ZeroGradAndWeightCount) {
  Rng rng(12);
  Mlp mlp({2, 3, 1}, Activation::kRelu, &rng);
  EXPECT_EQ(mlp.NumWeights(), 2u * 3 + 3 + 3u * 1 + 1);
  for (Parameter* p : mlp.Parameters()) p->grad.Fill(5.0f);
  mlp.ZeroGrad();
  for (Parameter* p : mlp.Parameters()) {
    EXPECT_FLOAT_EQ(p->grad.Norm(), 0.0f);
  }
}


TEST(MeanAggregatorTest, ForwardShapeAndMean) {
  Rng rng(13);
  MeanAggregatorLayer layer(2, 4, &rng);
  Tape tape;
  Matrix features = Matrix::FromRows({{1, 0}, {0, 1}, {1, 1}});
  EdgeIndex edges;  // 0 <- {1, 2}
  edges.Add(1, 0);
  edges.Add(2, 0);
  Var h = layer.Forward(&tape, tape.Constant(features), edges);
  EXPECT_EQ(tape.Value(h).rows(), 3u);
  EXPECT_EQ(tape.Value(h).cols(), 4u);
  EXPECT_EQ(layer.Parameters().size(), 2u);
}

TEST(MeanAggregatorTest, GradCheck) {
  Rng rng(14);
  MeanAggregatorLayer layer(3, 3, &rng);
  Matrix features = Matrix::Uniform(4, 3, 0.1f, 1.0f, &rng);
  EdgeIndex edges;
  edges.Add(0, 1);
  edges.Add(1, 0);
  edges.Add(2, 3);
  edges.Add(3, 2);
  auto build = [&](Tape* tape) {
    Var h = layer.Forward(tape, tape->Constant(features), edges);
    return tape->ReduceSum(tape->Mul(h, h));
  };
  auto loss = [&]() {
    Tape tape;
    return static_cast<double>(tape.Value(build(&tape)).scalar());
  };
  {
    Tape tape;
    tape.Backward(build(&tape));
  }
  EXPECT_LT(MaxGradCheckError(layer.Parameters(), loss), 3e-2);
}

TEST(MeanAggregatorTest, CannotDistinguishNeighborMultiplicity) {
  // Two neighbors with identical features vs one: the mean is the same,
  // so mean aggregation produces identical embeddings where GIN differs —
  // the expressiveness gap Sec. 5.2 motivates GIN with.
  Rng rng(15);
  MeanAggregatorLayer mean_layer(2, 4, &rng);
  Rng rng2(15);
  GinLayer gin_layer(2, 4, &rng2);
  Matrix features = Matrix::Ones(4, 2);
  // Vertex 0 has neighbors {1}; vertex 3 has neighbors {1, 2}... use two
  // separate graphs encoded in one edge list: 0<-1 and 3<-{1,2}.
  EdgeIndex edges;
  edges.Add(1, 0);
  edges.Add(1, 3);
  edges.Add(2, 3);
  Tape tape;
  Var hm = mean_layer.Forward(&tape, tape.Constant(features), edges);
  const Matrix& mean_out = tape.Value(hm);
  for (size_t c = 0; c < mean_out.cols(); ++c) {
    EXPECT_NEAR(mean_out.at(0, c), mean_out.at(3, c), 1e-5f);
  }
  Tape tape2;
  Var hg = gin_layer.Forward(&tape2, tape2.Constant(features), edges);
  const Matrix& gin_out = tape2.Value(hg);
  float diff = 0.0f;
  for (size_t c = 0; c < gin_out.cols(); ++c) {
    diff += std::abs(gin_out.at(0, c) - gin_out.at(3, c));
  }
  EXPECT_GT(diff, 1e-4f);
}

}  // namespace
}  // namespace neursc
