#include "core/discriminator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "nn/optimizer.h"

namespace neursc {
namespace {

TEST(DiscriminatorTest, ScoreShapeAndClip) {
  Discriminator critic(8, 16, 0.01f, 1);
  for (Parameter* p : critic.Parameters()) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      EXPECT_LE(std::abs(p->value.data()[i]), 0.01f);
    }
  }
  Rng rng(2);
  Tape tape;
  Var h = tape.Constant(Matrix::Uniform(5, 8, -1, 1, &rng));
  Var scores = critic.Score(&tape, h);
  EXPECT_EQ(tape.Value(scores).rows(), 5u);
  EXPECT_EQ(tape.Value(scores).cols(), 1u);
}

TEST(DiscriminatorTest, ClampAfterUpdateKeepsBox) {
  Discriminator critic(4, 8, 0.01f, 3);
  for (Parameter* p : critic.Parameters()) p->value.Fill(1.0f);
  critic.ClampWeights();
  for (Parameter* p : critic.Parameters()) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      EXPECT_FLOAT_EQ(p->value.data()[i], 0.01f);
    }
  }
}

TEST(CorrespondenceTest, GreedyPrefersHighScoreCandidates) {
  Matrix query_scores = Matrix::FromRows({{0.1f}, {0.5f}});
  Matrix sub_scores = Matrix::FromRows({{0.9f}, {0.2f}, {0.7f}});
  std::vector<std::vector<VertexId>> candidates = {{0, 1, 2}, {0, 2}};
  auto pairs =
      SelectCorrespondenceByScores(query_scores, sub_scores, candidates);
  ASSERT_EQ(pairs.size(), 2u);
  // u0 (lowest query score) picks v0 (highest sub score); u1 then takes v2.
  EXPECT_EQ(pairs.query_rows[0], 0u);
  EXPECT_EQ(pairs.sub_rows[0], 0u);
  EXPECT_EQ(pairs.query_rows[1], 1u);
  EXPECT_EQ(pairs.sub_rows[1], 2u);
}

TEST(CorrespondenceTest, ReassignsWhenCandidateTaken) {
  // u0 and u1 both only want v0 first, but u1 can be re-routed to v1
  // through the augmenting search.
  Matrix query_scores = Matrix::FromRows({{0.0f}, {1.0f}});
  Matrix sub_scores = Matrix::FromRows({{1.0f}, {0.5f}});
  std::vector<std::vector<VertexId>> candidates = {{0}, {0, 1}};
  auto pairs =
      SelectCorrespondenceByScores(query_scores, sub_scores, candidates);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs.sub_rows[0], 0u);  // u0 keeps v0
  EXPECT_EQ(pairs.sub_rows[1], 1u);  // u1 re-assigned to v1
}

TEST(CorrespondenceTest, AugmentingPathDisplacesEarlierChoice) {
  // u0: {v0, v1}; u1: {v0} only. u0 processed first takes v0, then u1
  // must displace u0 to v1.
  Matrix query_scores = Matrix::FromRows({{0.0f}, {1.0f}});
  Matrix sub_scores = Matrix::FromRows({{1.0f}, {0.1f}});
  std::vector<std::vector<VertexId>> candidates = {{0, 1}, {0}};
  auto pairs =
      SelectCorrespondenceByScores(query_scores, sub_scores, candidates);
  ASSERT_EQ(pairs.size(), 2u);
  // Every query vertex got a candidate from its own set, all distinct.
  EXPECT_NE(pairs.sub_rows[0], pairs.sub_rows[1]);
  for (size_t i = 0; i < 2; ++i) {
    size_t u = pairs.query_rows[i];
    const auto& cs = candidates[u];
    EXPECT_TRUE(std::find(cs.begin(), cs.end(), pairs.sub_rows[i]) !=
                cs.end());
  }
}

TEST(CorrespondenceTest, ReusesWhenNoDistinctSystemExists) {
  // Three query vertices all restricted to a single candidate.
  Matrix query_scores = Matrix::FromRows({{0.0f}, {0.5f}, {1.0f}});
  Matrix sub_scores = Matrix::FromRows({{1.0f}});
  std::vector<std::vector<VertexId>> candidates = {{0}, {0}, {0}};
  auto pairs =
      SelectCorrespondenceByScores(query_scores, sub_scores, candidates);
  EXPECT_EQ(pairs.size(), 3u);
  for (uint32_t v : pairs.sub_rows) EXPECT_EQ(v, 0u);
}

TEST(CorrespondenceTest, SkipsEmptyCandidateSets) {
  Matrix query_scores = Matrix::FromRows({{0.0f}, {1.0f}});
  Matrix sub_scores = Matrix::FromRows({{1.0f}});
  std::vector<std::vector<VertexId>> candidates = {{}, {0}};
  auto pairs =
      SelectCorrespondenceByScores(query_scores, sub_scores, candidates);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs.query_rows[0], 1u);
}

TEST(DistanceTest, EuclideanMatchesHandValue) {
  float a[] = {0.0f, 0.0f};
  float b[] = {3.0f, 4.0f};
  EXPECT_NEAR(RepresentationDistance(a, b, 2, DistanceMetric::kEuclidean),
              5.0, 1e-6);
}

TEST(DistanceTest, KLOfIdenticalIsZero) {
  float a[] = {0.3f, 0.7f, -0.2f};
  EXPECT_NEAR(RepresentationDistance(a, a, 3, DistanceMetric::kKL), 0.0,
              1e-9);
  EXPECT_NEAR(RepresentationDistance(a, a, 3, DistanceMetric::kJS), 0.0,
              1e-9);
}

TEST(DistanceTest, JSIsSymmetricKLIsNot) {
  float a[] = {1.0f, 0.0f};
  float b[] = {0.0f, 1.0f};
  double js_ab = RepresentationDistance(a, b, 2, DistanceMetric::kJS);
  double js_ba = RepresentationDistance(b, a, 2, DistanceMetric::kJS);
  EXPECT_NEAR(js_ab, js_ba, 1e-9);
  EXPECT_GT(js_ab, 0.0);
}

TEST(CorrespondenceByDistanceTest, PicksNearestCandidate) {
  Matrix query_repr = Matrix::FromRows({{1.0f, 0.0f}});
  Matrix sub_repr = Matrix::FromRows({{0.0f, 5.0f}, {1.1f, 0.0f}});
  std::vector<std::vector<VertexId>> candidates = {{0, 1}};
  auto pairs = SelectCorrespondenceByDistance(
      query_repr, sub_repr, candidates, DistanceMetric::kEuclidean);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs.sub_rows[0], 1u);
}

TEST(LossTest, WassersteinLossValue) {
  Tape tape;
  Var sq = tape.Constant(Matrix::FromRows({{2.0f}, {3.0f}}));
  Var ss = tape.Constant(Matrix::FromRows({{1.0f}, {0.5f}, {4.0f}}));
  Correspondence pairs;
  pairs.query_rows = {0, 1};
  pairs.sub_rows = {2, 0};
  Var lw = WassersteinLoss(&tape, sq, ss, pairs);
  // (2 + 3) - (4 + 1) = 0.
  EXPECT_NEAR(tape.Value(lw).scalar(), 0.0f, 1e-6);
}

TEST(LossTest, PairDistanceLossGradientsFlow) {
  Parameter a(Matrix::FromRows({{0.4f, 0.6f}}));
  Parameter b(Matrix::FromRows({{0.9f, 0.1f}}));
  Correspondence pairs;
  pairs.query_rows = {0};
  pairs.sub_rows = {0};
  for (DistanceMetric metric :
       {DistanceMetric::kEuclidean, DistanceMetric::kKL,
        DistanceMetric::kJS}) {
    Tape tape;
    Var loss = PairDistanceLoss(&tape, tape.Leaf(&a), tape.Leaf(&b), pairs,
                                metric);
    EXPECT_GT(tape.Value(loss).scalar(), 0.0f);
    a.ZeroGrad();
    b.ZeroGrad();
    tape.Backward(loss);
    EXPECT_GT(a.grad.Norm() + b.grad.Norm(), 0.0f)
        << DistanceMetricName(metric);
  }
}

TEST(LossTest, CriticTrainingIncreasesSeparation) {
  // Maximizing L_w should separate the critic's scores of two fixed
  // point clouds.
  Rng rng(9);
  Matrix hq = Matrix::Uniform(6, 4, 0.5f, 1.0f, &rng);
  Matrix hs = Matrix::Uniform(6, 4, -1.0f, -0.5f, &rng);
  Discriminator critic(4, 16, 0.05f, 10);
  AdamOptimizer::Options opts;
  opts.learning_rate = 5e-3;
  AdamOptimizer optimizer(critic.Parameters(), opts);
  Correspondence pairs;
  for (uint32_t i = 0; i < 6; ++i) {
    pairs.query_rows.push_back(i);
    pairs.sub_rows.push_back(i);
  }
  double first = 0.0;
  double last = 0.0;
  for (int step = 0; step < 60; ++step) {
    Tape tape;
    Var sq = critic.Score(&tape, tape.Constant(hq));
    Var ss = critic.Score(&tape, tape.Constant(hs));
    Var lw = WassersteinLoss(&tape, sq, ss, pairs);
    if (step == 0) first = tape.Value(lw).scalar();
    last = tape.Value(lw).scalar();
    Var loss = tape.Scale(lw, -1.0f);
    optimizer.ZeroGrad();
    tape.Backward(loss);
    optimizer.Step();
    optimizer.ZeroGrad();
    critic.ClampWeights();
  }
  EXPECT_GT(last, first);
}

/// L_w's value and gradients after one Backward, for the bit comparison
/// below.
struct CriticPass {
  float loss = 0.0f;
  std::vector<Matrix> critic_grads;
  Matrix sub_grad;
};

/// Runs L_w over `hq` and `hs` on a fresh tape, the substructure rows as a
/// trainable leaf: through CriticWassersteinLoss, or through the full-row
/// path (every substructure row scored and backpropagated).
CriticPass RunCriticPass(bool selected_rows, Discriminator* critic,
                         const Matrix& hq, const Matrix& hs,
                         const std::vector<std::vector<VertexId>>& candidates,
                         Correspondence* full_pairs) {
  for (Parameter* p : critic->Parameters()) p->ZeroGrad();
  Parameter sub(hs);
  Tape tape;
  Var q = tape.Constant(hq);
  Var s = tape.Leaf(&sub);
  Var lw;
  if (selected_rows) {
    lw = CriticWassersteinLoss(&tape, critic, q, s, candidates);
  } else {
    Var sq = critic->Score(&tape, q);
    Var ss = critic->Score(&tape, s);
    *full_pairs = SelectCorrespondenceByScores(tape.Value(sq),
                                               tape.Value(ss), candidates);
    lw = WassersteinLoss(&tape, sq, ss, *full_pairs);
  }
  CriticPass pass;
  pass.loss = tape.Value(lw).scalar();
  tape.Backward(tape.Scale(lw, -1.0f));
  for (Parameter* p : critic->Parameters()) pass.critic_grads.push_back(p->grad);
  pass.sub_grad = sub.grad;
  return pass;
}

::testing::AssertionResult SameBits(const Matrix& got, const Matrix& want,
                                    const std::string& what) {
  if (got.rows() != want.rows() || got.cols() != want.cols() ||
      std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) != 0) {
    return ::testing::AssertionFailure() << what << " differs";
  }
  return ::testing::AssertionSuccess();
}

TEST(LossTest, SelectedRowsPassMatchesFullRowPassBitForBit) {
  // u0..u2 draw from rows that fall in descending order, so the selected
  // rows come out of ascending order; u3 and u4 share their only
  // candidate, so one of them reuses it; u5 competes for rows the others
  // want, which may take the augmenting search.
  const std::vector<std::vector<VertexId>> candidates = {
      {35, 36, 37}, {20, 21, 22}, {3, 4, 5}, {10}, {10}, {4, 21, 36}};
  struct Shape {
    size_t repr_dim;
    size_t hidden;
  };
  for (Shape shape : {Shape{12, 16}, Shape{64, 32}}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      const std::string what = "dim " + std::to_string(shape.repr_dim) +
                               " seed " + std::to_string(seed);
      Rng rng(seed);
      Matrix hq = Matrix::Uniform(candidates.size(), shape.repr_dim, -1.0f,
                                  1.0f, &rng);
      Matrix hs = Matrix::Uniform(40, shape.repr_dim, -1.0f, 1.0f, &rng);
      Discriminator critic(shape.repr_dim, shape.hidden, 0.5f, seed + 100);
      Correspondence pairs;
      CriticPass full =
          RunCriticPass(false, &critic, hq, hs, candidates, &pairs);
      CriticPass selected =
          RunCriticPass(true, &critic, hq, hs, candidates, nullptr);

      ASSERT_EQ(pairs.size(), candidates.size()) << what;
      EXPECT_FALSE(std::is_sorted(pairs.sub_rows.begin(), pairs.sub_rows.end()))
          << what;
      std::vector<uint32_t> distinct = pairs.sub_rows;
      std::sort(distinct.begin(), distinct.end());
      EXPECT_NE(std::unique(distinct.begin(), distinct.end()), distinct.end())
          << what << ": no row repeats";

      EXPECT_TRUE(SameBits(Matrix::Scalar(selected.loss),
                           Matrix::Scalar(full.loss), what + " loss"));
      ASSERT_EQ(selected.critic_grads.size(), full.critic_grads.size());
      for (size_t i = 0; i < full.critic_grads.size(); ++i) {
        EXPECT_TRUE(SameBits(selected.critic_grads[i], full.critic_grads[i],
                             what + " critic gradient " + std::to_string(i)));
      }
      EXPECT_TRUE(
          SameBits(selected.sub_grad, full.sub_grad, what + " sub gradient"));
      EXPECT_GT(full.sub_grad.Norm(), 0.0f) << what;
    }
  }
}

}  // namespace
}  // namespace neursc
