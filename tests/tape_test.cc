#include "nn/tape.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::MaxGradCheckError;

// Builds a parameter with reproducible random contents away from
// non-differentiable kinks (relu at 0 etc. is avoided by the offsets used
// in individual tests).
Parameter RandomParam(size_t rows, size_t cols, uint64_t seed,
                      float lo = -1.0f, float hi = 1.0f) {
  Rng rng(seed);
  return Parameter(Matrix::Uniform(rows, cols, lo, hi, &rng));
}

TEST(TapeTest, ConstantHasNoGradient) {
  Tape tape;
  Var c = tape.Constant(Matrix::Scalar(3.0f));
  EXPECT_FLOAT_EQ(tape.Value(c).scalar(), 3.0f);
  Var d = tape.Scale(c, 2.0f);
  EXPECT_FLOAT_EQ(tape.Value(d).scalar(), 6.0f);
}

TEST(TapeTest, LeafAccumulatesIntoParameter) {
  Parameter p(Matrix::Scalar(2.0f));
  Tape tape;
  Var x = tape.Leaf(&p);
  Var y = tape.Scale(x, 3.0f);
  tape.Backward(y);
  EXPECT_FLOAT_EQ(p.grad.scalar(), 3.0f);
}

TEST(TapeTest, GradientSinkMatchesDirectAccumulation) {
  // The same graph run twice: once writing Parameter::grad directly, once
  // through a GradientSink that is reduced afterwards. The results must be
  // bit-identical — this equivalence is what lets training route parallel
  // backward passes through per-tape sinks.
  Parameter a = RandomParam(3, 4, 61);
  Parameter b = RandomParam(4, 2, 62);
  auto build = [&](Tape* tape) {
    Var x = tape->Leaf(&a);
    Var y = tape->Leaf(&b);
    // Reuse x so one parameter accumulates more than once within the tape.
    Var z = tape->MatMul(tape->Add(x, x), y);
    return tape->ReduceSum(z);
  };
  {
    Tape tape;
    tape.Backward(build(&tape));
  }
  Matrix direct_a = a.grad;
  Matrix direct_b = b.grad;
  a.grad.ScaleInPlace(0.0f);
  b.grad.ScaleInPlace(0.0f);
  {
    Tape tape;
    GradientSink sink;
    tape.set_gradient_sink(&sink);
    EXPECT_TRUE(sink.empty());
    tape.Backward(build(&tape));
    EXPECT_EQ(sink.size(), 2u);
    // Grads stay buffered until the reduction.
    EXPECT_FLOAT_EQ(a.grad.Norm(), 0.0f);
    sink.ReduceIntoParameters();
  }
  EXPECT_EQ(Matrix::MaxAbsDiff(a.grad, direct_a), 0.0f);
  EXPECT_EQ(Matrix::MaxAbsDiff(b.grad, direct_b), 0.0f);
}

TEST(TapeTest, GradientSinkClearAndReuse) {
  Parameter p(Matrix::Scalar(2.0f));
  GradientSink sink;
  Tape tape;
  tape.set_gradient_sink(&sink);
  Var y = tape.Scale(tape.Leaf(&p), 3.0f);
  tape.Backward(y);
  sink.Clear();
  EXPECT_TRUE(sink.empty());
  sink.ReduceIntoParameters();  // no-op after Clear
  EXPECT_FLOAT_EQ(p.grad.scalar(), 0.0f);
}

TEST(TapeTest, BackwardThroughSharedSubexpression) {
  // y = x*x + x  => dy/dx = 2x + 1.
  Parameter p(Matrix::Scalar(3.0f));
  Tape tape;
  Var x = tape.Leaf(&p);
  Var y = tape.Add(tape.Mul(x, x), x);
  tape.Backward(y);
  EXPECT_FLOAT_EQ(p.grad.scalar(), 7.0f);
}

TEST(TapeTest, GradCheckMatMul) {
  Parameter a = RandomParam(3, 4, 1);
  Parameter b = RandomParam(4, 2, 2);
  auto loss = [&]() {
    Tape tape;
    Var out = tape.MatMul(tape.Leaf(&a), tape.Leaf(&b));
    Var l = tape.ReduceSum(tape.Mul(out, out));
    return static_cast<double>(tape.Value(l).scalar());
  };
  {
    Tape tape;
    Var out = tape.MatMul(tape.Leaf(&a), tape.Leaf(&b));
    Var l = tape.ReduceSum(tape.Mul(out, out));
    tape.Backward(l);
  }
  EXPECT_LT(MaxGradCheckError({&a, &b}, loss), 2e-2);
}

TEST(TapeTest, GradCheckAddSubScaleBroadcast) {
  Parameter x = RandomParam(3, 4, 3);
  Parameter bias = RandomParam(1, 4, 4);
  auto build = [&](Tape* tape) {
    Var vx = tape->Leaf(&x);
    Var vb = tape->Leaf(&bias);
    Var sum = tape->AddRowBroadcast(vx, vb);
    Var scaled = tape->Scale(sum, 1.7f);
    Var diff = tape->Sub(scaled, vx);
    return tape->ReduceSum(tape->Mul(diff, diff));
  };
  auto loss = [&]() {
    Tape tape;
    return static_cast<double>(tape.Value(build(&tape)).scalar());
  };
  {
    Tape tape;
    tape.Backward(build(&tape));
  }
  EXPECT_LT(MaxGradCheckError({&x, &bias}, loss), 2e-2);
}

// Pointwise nonlinearities, checked away from their kinks.
struct PointwiseCase {
  const char* name;
  std::function<Var(Tape*, Var)> op;
};

class PointwiseGradTest : public ::testing::TestWithParam<int> {};

TEST_P(PointwiseGradTest, GradCheck) {
  static const PointwiseCase kCases[] = {
      {"relu", [](Tape* t, Var v) { return t->Relu(v); }},
      {"leaky", [](Tape* t, Var v) { return t->LeakyRelu(v, 0.2f); }},
      {"tanh", [](Tape* t, Var v) { return t->Tanh(v); }},
      {"exp", [](Tape* t, Var v) { return t->Exp(v); }},
      {"log", [](Tape* t, Var v) { return t->Log(t->Exp(v)); }},
      {"rowsoftmax", [](Tape* t, Var v) { return t->RowSoftmax(v); }},
  };
  const auto& c = kCases[GetParam()];
  SCOPED_TRACE(c.name);
  // Offset inputs away from 0 so relu kinks are not straddled by the
  // finite-difference step.
  Parameter x = RandomParam(4, 3, 10 + GetParam(), 0.1f, 1.2f);
  auto build = [&](Tape* tape) {
    Var v = tape->Leaf(&x);
    Var y = c.op(tape, v);
    // Quadratic head makes the loss sensitive to every coordinate.
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
  EXPECT_LT(MaxGradCheckError({&x}, loss), 2e-2);
}

INSTANTIATE_TEST_SUITE_P(AllPointwiseOps, PointwiseGradTest,
                         ::testing::Range(0, 6));

TEST(TapeTest, GradCheckConcatAndGather) {
  Parameter a = RandomParam(3, 2, 20);
  Parameter b = RandomParam(3, 3, 21);
  std::vector<uint32_t> rows = {2, 0, 0, 1};
  auto build = [&](Tape* tape) {
    Var cat = tape->ConcatCols(tape->Leaf(&a), tape->Leaf(&b));
    Var gathered = tape->GatherRows(cat, rows);
    return tape->ReduceSum(tape->Mul(gathered, gathered));
  };
  auto loss = [&]() {
    Tape tape;
    return static_cast<double>(tape.Value(build(&tape)).scalar());
  };
  {
    Tape tape;
    tape.Backward(build(&tape));
  }
  EXPECT_LT(MaxGradCheckError({&a, &b}, loss), 2e-2);
}

TEST(TapeTest, GradCheckConcatRows) {
  Parameter a = RandomParam(2, 3, 22);
  Parameter b = RandomParam(1, 3, 23);
  Parameter c = RandomParam(3, 3, 24);
  auto build = [&](Tape* tape) {
    Var stacked = tape->ConcatRows(
        {tape->Leaf(&a), tape->Leaf(&b), tape->Leaf(&c)});
    return tape->ReduceSum(tape->Mul(stacked, stacked));
  };
  auto loss = [&]() {
    Tape tape;
    return static_cast<double>(tape.Value(build(&tape)).scalar());
  };
  {
    Tape tape;
    tape.Backward(build(&tape));
  }
  EXPECT_LT(MaxGradCheckError({&a, &b, &c}, loss), 2e-2);
}

TEST(TapeTest, GradCheckAggregateAndColBroadcast) {
  Parameter x = RandomParam(4, 3, 30);
  Parameter w = RandomParam(5, 1, 31, 0.2f, 1.0f);
  Parameter v = RandomParam(5, 1, 32, 0.2f, 1.0f);
  // A repeated edge (1 -> 1) and a self-loop (2 -> 2).
  const std::vector<uint32_t> src = {3, 1, 1, 2, 0};
  const std::vector<uint32_t> dst = {0, 1, 1, 2, 0};
  auto build = [&](Tape* tape) {
    Var xv = tape->Leaf(&x);
    Var weights = tape->ColBroadcastMul(tape->Leaf(&w), tape->Leaf(&v));
    Var weighted = tape->Aggregate(xv, src, dst, 3, weights);
    Var plain = tape->Aggregate(xv, src, dst, 3);
    Var joined = tape->Add(weighted, plain);
    return tape->ReduceSum(tape->Mul(joined, joined));
  };
  auto loss = [&]() {
    Tape tape;
    return static_cast<double>(tape.Value(build(&tape)).scalar());
  };
  {
    Tape tape;
    tape.Backward(build(&tape));
  }
  EXPECT_LT(MaxGradCheckError({&x, &w, &v}, loss), 2e-2);
}

TEST(TapeTest, GradCheckEdgeScores) {
  Parameter x = RandomParam(4, 3, 33);
  Parameter a = RandomParam(6, 1, 34);
  const std::vector<uint32_t> src = {3, 1, 1, 2, 0};
  const std::vector<uint32_t> dst = {0, 1, 1, 2, 0};
  auto build = [&](Tape* tape) {
    Var scores = tape->EdgeScores(tape->Leaf(&x), tape->Leaf(&a), src, dst);
    return tape->ReduceSum(tape->Mul(scores, scores));
  };
  auto loss = [&]() {
    Tape tape;
    return static_cast<double>(tape.Value(build(&tape)).scalar());
  };
  {
    Tape tape;
    tape.Backward(build(&tape));
  }
  EXPECT_LT(MaxGradCheckError({&x, &a}, loss), 2e-2);
}

TEST(TapeTest, SegmentSoftmaxForward) {
  Tape tape;
  Matrix logits(4, 1);
  logits.at(0, 0) = 1.0f;
  logits.at(1, 0) = 1.0f;  // segment 0: equal -> 0.5/0.5
  logits.at(2, 0) = 0.0f;
  logits.at(3, 0) = std::log(3.0f);  // segment 1: 1/4, 3/4
  Var out = tape.SegmentSoftmax(tape.Constant(logits), {0, 0, 1, 1}, 2);
  EXPECT_NEAR(tape.Value(out).at(0, 0), 0.5f, 1e-5);
  EXPECT_NEAR(tape.Value(out).at(1, 0), 0.5f, 1e-5);
  EXPECT_NEAR(tape.Value(out).at(2, 0), 0.25f, 1e-5);
  EXPECT_NEAR(tape.Value(out).at(3, 0), 0.75f, 1e-5);
}

TEST(TapeTest, GradCheckSegmentSoftmax) {
  Parameter x = RandomParam(6, 1, 40);
  std::vector<uint32_t> segments = {0, 0, 1, 1, 1, 2};
  Parameter v = RandomParam(6, 1, 41);
  auto build = [&](Tape* tape) {
    Var alpha = tape->SegmentSoftmax(tape->Leaf(&x), segments, 3);
    Var weighted = tape->Mul(alpha, tape->Leaf(&v));
    return tape->ReduceSum(tape->Mul(weighted, weighted));
  };
  auto loss = [&]() {
    Tape tape;
    return static_cast<double>(tape.Value(build(&tape)).scalar());
  };
  {
    Tape tape;
    tape.Backward(build(&tape));
  }
  EXPECT_LT(MaxGradCheckError({&x, &v}, loss), 2e-2);
}

TEST(TapeTest, GradCheckSumMeanRows) {
  Parameter x = RandomParam(4, 3, 50);
  auto build = [&](Tape* tape) {
    Var s = tape->SumRows(tape->Leaf(&x));
    Var m = tape->Scale(tape->SumRows(tape->Leaf(&x)), 0.25f);
    Var joined = tape->ConcatCols(s, m);
    return tape->ReduceSum(tape->Mul(joined, joined));
  };
  auto loss = [&]() {
    Tape tape;
    return static_cast<double>(tape.Value(build(&tape)).scalar());
  };
  {
    Tape tape;
    tape.Backward(build(&tape));
  }
  EXPECT_LT(MaxGradCheckError({&x}, loss), 2e-2);
}

TEST(TapeTest, ExpClampsItsInputToThirty) {
  // A WEst prediction is exp of the regressor output, so the clamp caps
  // every per-substructure prediction at e^30; the gradient stays finite
  // at the clamp.
  Parameter p(Matrix::FromRows({{1e3f, -1e3f}}));
  Tape tape;
  Var y = tape.Exp(tape.Leaf(&p));
  EXPECT_EQ(tape.Value(y).at(0, 0), std::exp(30.0f));
  EXPECT_EQ(tape.Value(y).at(0, 1), std::exp(-30.0f));
  tape.Backward(tape.ReduceSum(y));
  EXPECT_TRUE(std::isfinite(p.grad.at(0, 0)));
  EXPECT_TRUE(std::isfinite(p.grad.at(0, 1)));
}

TEST(TapeTest, QErrorLossValueAndGradient) {
  // Overestimation branch: pred=10, target=2 -> loss 5, dL/dpred = 1/2.
  {
    Parameter p(Matrix::Scalar(10.0f));
    Tape tape;
    Var loss = tape.QErrorLoss(tape.Leaf(&p), 2.0);
    EXPECT_NEAR(tape.Value(loss).scalar(), 5.0, 1e-5);
    tape.Backward(loss);
    EXPECT_NEAR(p.grad.scalar(), 0.5, 1e-5);
  }
  // Underestimation branch: pred=2, target=10 -> loss ~5, dL/dpred=-10/4.
  {
    Parameter p(Matrix::Scalar(2.0f));
    Tape tape;
    Var loss = tape.QErrorLoss(tape.Leaf(&p), 10.0);
    EXPECT_NEAR(tape.Value(loss).scalar(), 5.0, 1e-4);
    tape.Backward(loss);
    EXPECT_NEAR(p.grad.scalar(), -2.5, 1e-3);
  }
}

TEST(TapeTest, QErrorLossTreatsSmallTargetsAsOne) {
  Parameter p(Matrix::Scalar(4.0f));
  Tape tape;
  Var loss = tape.QErrorLoss(tape.Leaf(&p), 0.0);
  EXPECT_NEAR(tape.Value(loss).scalar(), 4.0, 1e-5);
}

TEST(TapeTest, DeepCompositeGradCheck) {
  // A miniature end-to-end network: neighbour-sum message passing,
  // nonlinearity, readout, exp head, q-error loss.
  Parameter w1 = RandomParam(3, 4, 60);
  Parameter w2 = RandomParam(4, 1, 61);
  Parameter feat = RandomParam(5, 3, 62, 0.1f, 0.9f);
  std::vector<uint32_t> src = {0, 1, 2, 3, 4, 0};
  std::vector<uint32_t> dst = {1, 0, 3, 2, 0, 4};
  auto build = [&](Tape* tape) {
    Var h = tape->MatMul(tape->Leaf(&feat), tape->Leaf(&w1));
    Var agg = tape->Aggregate(h, src, dst, 5);
    Var act = tape->Tanh(tape->Add(h, agg));
    Var pooled = tape->SumRows(act);
    Var z = tape->MatMul(pooled, tape->Leaf(&w2));
    Var pred = tape->Exp(z);
    return tape->QErrorLoss(pred, 7.0);
  };
  auto loss = [&]() {
    Tape tape;
    return static_cast<double>(tape.Value(build(&tape)).scalar());
  };
  {
    Tape tape;
    tape.Backward(build(&tape));
  }
  EXPECT_LT(MaxGradCheckError({&w1, &w2, &feat}, loss, 5e-4f), 3e-2);
}

// --- Backward of each op against the scalar loops it replaced ----------
//
// golden_output_test pins the training of the default model, which does
// not reach every op's backward. The reference loops below are the scalar
// backward loops the Tape ran before its backward moved onto the nn/simd.h
// kernels, with their arithmetic and order unchanged; each op's input
// gradients must match them bit for bit. Every input gradient already
// holds a value when the op adds to it, so the accumulate-onto-existing
// order is covered.

using Grads = std::vector<Matrix>;

/// The edge list of the message-passing cases, over six rows: nine edges
/// (one 8-edge vector block and a tail), a repeated edge (2 -> 1), two
/// self-loops and a row with no in-edge (2).
const std::vector<uint32_t> kSrc = {2, 0, 2, 5, 1, 2, 0, 4, 3};
const std::vector<uint32_t> kDst = {1, 3, 1, 0, 3, 3, 5, 4, 3};

struct BackwardCase {
  std::string name;
  std::vector<Matrix> inputs;
  /// Records the op under test on leaves bound to `inputs`.
  std::function<Var(Tape*, const std::vector<Var>&)> op;
  /// Adds the op's contribution for upstream gradient `g` onto `grads`
  /// (one per input), given the inputs `in` and the op's output `y`.
  std::function<void(const std::vector<Matrix>& in, const Matrix& y,
                     const Matrix& g, Grads* grads)>
      reference;
};

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  return Matrix::Uniform(rows, cols, -2.0f, 2.0f, rng);
}

/// Random values with exact zeros of both signs, for the ReLU masks.
Matrix KinkedMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m = RandomMatrix(rows, cols, rng);
  for (size_t i = 0; i < m.size(); i += 3) {
    m.data()[i] = (i % 2 == 0) ? 0.0f : -0.0f;
  }
  return m;
}

std::vector<BackwardCase> BackwardCases(size_t cols, Rng* rng) {
  constexpr size_t kRows = 6;
  const std::vector<uint32_t> gather_rows = {2, 0, 2, 5, 1, 2, 0};
  std::vector<BackwardCase> cases;
  cases.push_back(
      {"Sub",
       {RandomMatrix(kRows, cols, rng), RandomMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) { return t->Sub(x[0], x[1]); },
       [](const std::vector<Matrix>&, const Matrix&, const Matrix& g,
          Grads* grads) {
         (*grads)[0].AddInPlace(g);
         float* bg = (*grads)[1].data();
         for (size_t i = 0; i < g.size(); ++i) bg[i] += g.data()[i] * -1.0f;
       }});
  cases.push_back(
      {"Mul",
       {RandomMatrix(kRows, cols, rng), RandomMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) { return t->Mul(x[0], x[1]); },
       [](const std::vector<Matrix>& in, const Matrix&, const Matrix& g,
          Grads* grads) {
         const float* gd = g.data();
         float* ag = (*grads)[0].data();
         for (size_t i = 0; i < g.size(); ++i) ag[i] += gd[i] * in[1].data()[i];
         float* bg = (*grads)[1].data();
         for (size_t i = 0; i < g.size(); ++i) bg[i] += gd[i] * in[0].data()[i];
       }});
  cases.push_back(
      {"Scale",
       {RandomMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) { return t->Scale(x[0], 0.37f); },
       [](const std::vector<Matrix>&, const Matrix&, const Matrix& g,
          Grads* grads) {
         float* ag = (*grads)[0].data();
         for (size_t i = 0; i < g.size(); ++i) ag[i] += g.data()[i] * 0.37f;
       }});
  cases.push_back(
      {"Relu",
       {KinkedMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) { return t->Relu(x[0]); },
       [](const std::vector<Matrix>& in, const Matrix&, const Matrix& g,
          Grads* grads) {
         const float* x = in[0].data();
         float* ag = (*grads)[0].data();
         for (size_t i = 0; i < g.size(); ++i) {
           ag[i] += x[i] <= 0.0f ? 0.0f : g.data()[i];
         }
       }});
  cases.push_back(
      {"LeakyRelu",
       {KinkedMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) {
         return t->LeakyRelu(x[0], 0.2f);
       },
       [](const std::vector<Matrix>& in, const Matrix&, const Matrix& g,
          Grads* grads) {
         const float s = 0.2f;
         const float* x = in[0].data();
         const float* gd = g.data();
         float* ag = (*grads)[0].data();
         for (size_t i = 0; i < g.size(); ++i) {
           ag[i] += x[i] <= 0.0f ? gd[i] * s : gd[i];
         }
       }});
  cases.push_back(
      {"Exp",
       {RandomMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) { return t->Exp(x[0]); },
       [](const std::vector<Matrix>&, const Matrix& y, const Matrix& g,
          Grads* grads) {
         const float* gd = g.data();
         float* ag = (*grads)[0].data();
         for (size_t i = 0; i < g.size(); ++i) ag[i] += gd[i] * y.data()[i];
       }});
  cases.push_back(
      {"ConcatCols",
       {RandomMatrix(kRows, cols, rng), RandomMatrix(kRows, cols + 1, rng)},
       [](Tape* t, const std::vector<Var>& x) {
         return t->ConcatCols(x[0], x[1]);
       },
       [](const std::vector<Matrix>& in, const Matrix&, const Matrix& g,
          Grads* grads) {
         const size_t acols = in[0].cols();
         Matrix& ag = (*grads)[0];
         for (size_t row = 0; row < g.rows(); ++row) {
           for (size_t c = 0; c < acols; ++c) ag.at(row, c) += g.at(row, c);
         }
         Matrix& bg = (*grads)[1];
         for (size_t row = 0; row < g.rows(); ++row) {
           for (size_t c = 0; c < bg.cols(); ++c) {
             bg.at(row, c) += g.at(row, acols + c);
           }
         }
       }});
  cases.push_back(
      {"ConcatRows",
       {RandomMatrix(2, cols, rng), RandomMatrix(1, cols, rng),
        RandomMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) { return t->ConcatRows(x); },
       [](const std::vector<Matrix>& in, const Matrix&, const Matrix& g,
          Grads* grads) {
         size_t offset = 0;
         for (size_t k = 0; k < in.size(); ++k) {
           const Matrix& pv = in[k];
           Matrix& pg = (*grads)[k];
           for (size_t row = 0; row < pv.rows(); ++row) {
             for (size_t c = 0; c < pv.cols(); ++c) {
               pg.at(row, c) += g.at(offset + row, c);
             }
           }
           offset += pv.rows();
         }
       }});
  cases.push_back(
      {"GatherRows",
       {RandomMatrix(kRows, cols, rng)},
       [gather_rows](Tape* t, const std::vector<Var>& x) {
         return t->GatherRows(x[0], gather_rows);
       },
       [gather_rows](const std::vector<Matrix>&, const Matrix&,
                     const Matrix& g, Grads* grads) {
         Matrix& xg = (*grads)[0];
         for (size_t i = 0; i < gather_rows.size(); ++i) {
           for (size_t c = 0; c < g.cols(); ++c) {
             xg.at(gather_rows[i], c) += g.at(i, c);
           }
         }
       }});
  // Aggregate and EdgeScores: the x gradient sums g along the reversed
  // edges, in edge order; weight and attention-vector gradients are float
  // dot products from zero, in column or edge order.
  cases.push_back(
      {"Aggregate",
       {RandomMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) {
         return t->Aggregate(x[0], kSrc, kDst, kRows);
       },
       [](const std::vector<Matrix>&, const Matrix&, const Matrix& g,
          Grads* grads) {
         Matrix& xg = (*grads)[0];
         for (size_t e = 0; e < kSrc.size(); ++e) {
           for (size_t c = 0; c < g.cols(); ++c) {
             xg.at(kSrc[e], c) += g.at(kDst[e], c);
           }
         }
       }});
  cases.push_back(
      {"AggregateWeighted",
       {RandomMatrix(kRows, cols, rng), RandomMatrix(kSrc.size(), 1, rng)},
       [](Tape* t, const std::vector<Var>& x) {
         return t->Aggregate(x[0], kSrc, kDst, kRows, x[1]);
       },
       [](const std::vector<Matrix>& in, const Matrix&, const Matrix& g,
          Grads* grads) {
         Matrix& wg = (*grads)[1];
         for (size_t e = 0; e < kSrc.size(); ++e) {
           float dot = 0.0f;
           for (size_t c = 0; c < g.cols(); ++c) {
             dot += g.at(kDst[e], c) * in[0].at(kSrc[e], c);
           }
           wg.at(e, 0) += dot;
         }
         Matrix& xg = (*grads)[0];
         for (size_t e = 0; e < kSrc.size(); ++e) {
           for (size_t c = 0; c < g.cols(); ++c) {
             xg.at(kSrc[e], c) += g.at(kDst[e], c) * in[1].at(e, 0);
           }
         }
       }});
  cases.push_back(
      {"EdgeScores",
       {RandomMatrix(kRows, cols, rng), RandomMatrix(2 * cols, 1, rng)},
       [](Tape* t, const std::vector<Var>& x) {
         return t->EdgeScores(x[0], x[1], kSrc, kDst);
       },
       [](const std::vector<Matrix>& in, const Matrix&, const Matrix& g,
          Grads* grads) {
         const Matrix& x = in[0];
         const Matrix& a = in[1];
         const size_t d = x.cols();
         Matrix sum(2 * d, 1);
         for (size_t e = 0; e < kSrc.size(); ++e) {
           for (size_t c = 0; c < d; ++c) {
             sum.at(c, 0) += x.at(kDst[e], c) * g.at(e, 0);
             sum.at(d + c, 0) += x.at(kSrc[e], c) * g.at(e, 0);
           }
         }
         (*grads)[1].AddInPlace(sum);
         Matrix& xg = (*grads)[0];
         for (size_t e = 0; e < kSrc.size(); ++e) {
           for (size_t c = 0; c < d; ++c) {
             xg.at(kSrc[e], c) += a.at(d + c, 0) * g.at(e, 0);
           }
         }
         for (size_t e = 0; e < kSrc.size(); ++e) {
           for (size_t c = 0; c < d; ++c) {
             xg.at(kDst[e], c) += a.at(c, 0) * g.at(e, 0);
           }
         }
       }});
  cases.push_back(
      {"SumRows",
       {RandomMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) { return t->SumRows(x[0]); },
       [](const std::vector<Matrix>&, const Matrix&, const Matrix& g,
          Grads* grads) {
         Matrix& xg = (*grads)[0];
         for (size_t row = 0; row < xg.rows(); ++row) {
           for (size_t c = 0; c < xg.cols(); ++c) xg.at(row, c) += g.at(0, c);
         }
       }});
  cases.push_back(
      {"AddRowBroadcast",
       {RandomMatrix(kRows, cols, rng), RandomMatrix(1, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) {
         return t->AddRowBroadcast(x[0], x[1]);
       },
       [](const std::vector<Matrix>&, const Matrix&, const Matrix& g,
          Grads* grads) {
         (*grads)[0].AddInPlace(g);
         Matrix& bg = (*grads)[1];
         for (size_t row = 0; row < g.rows(); ++row) {
           for (size_t c = 0; c < g.cols(); ++c) bg.at(0, c) += g.at(row, c);
         }
       }});
  cases.push_back(
      {"ColBroadcastMul",
       {RandomMatrix(kRows, cols, rng), RandomMatrix(kRows, 1, rng)},
       [](Tape* t, const std::vector<Var>& x) {
         return t->ColBroadcastMul(x[0], x[1]);
       },
       [](const std::vector<Matrix>& in, const Matrix&, const Matrix& g,
          Grads* grads) {
         const Matrix& xv = in[0];
         const Matrix& wv = in[1];
         Matrix& xg = (*grads)[0];
         for (size_t row = 0; row < g.rows(); ++row) {
           const float wr = wv.at(row, 0);
           for (size_t c = 0; c < g.cols(); ++c) {
             xg.at(row, c) += g.at(row, c) * wr;
           }
         }
         Matrix& wg = (*grads)[1];
         for (size_t row = 0; row < g.rows(); ++row) {
           float dot = 0.0f;
           for (size_t c = 0; c < g.cols(); ++c) {
             dot += g.at(row, c) * xv.at(row, c);
           }
           wg.at(row, 0) += dot;
         }
       }});
  return cases;
}

/// Exact bits; NaN is not expected from these inputs.
bool SameBits(const Matrix& got, const Matrix& want) {
  return got.rows() == want.rows() && got.cols() == want.cols() &&
         std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0;
}

TEST(TapeTest, BackwardMatchesScalarReferenceLoopsBitForBit) {
  for (size_t cols : {1, 7, 9, 33}) {
    Rng rng(70 + cols);
    for (const BackwardCase& c : BackwardCases(cols, &rng)) {
      SCOPED_TRACE(c.name + " cols=" + std::to_string(cols));
      std::vector<Parameter> params;
      std::vector<Matrix> pre_fill;  // each input's gradient before the op
      for (const Matrix& in : c.inputs) {
        params.emplace_back(in);
        pre_fill.push_back(RandomMatrix(in.rows(), in.cols(), &rng));
      }
      Tape tape;
      std::vector<Var> leaves;
      for (Parameter& p : params) leaves.push_back(tape.Leaf(&p));
      Var y = c.op(&tape, leaves);
      const Matrix upstream =
          RandomMatrix(tape.Value(y).rows(), tape.Value(y).cols(), &rng);
      // loss = sum(y * upstream) + sum_k sum(x_k * pre_fill_k). Backward
      // walks records in reverse, so the later terms give each input its
      // gradient pre_fill_k before the op under test adds to it, and y's
      // gradient is exactly `upstream`.
      Var loss = tape.ReduceSum(tape.Mul(y, tape.Constant(upstream)));
      for (size_t k = 0; k < leaves.size(); ++k) {
        loss = tape.Add(loss, tape.ReduceSum(tape.Mul(
                                  leaves[k], tape.Constant(pre_fill[k]))));
      }
      tape.Backward(loss);

      // The same sums by hand: every gradient slot starts at +0.0, and the
      // seed gradient 1 reaches each Mul unchanged.
      auto from_zero = [](const Matrix& m) {
        Matrix out(m.rows(), m.cols());
        for (size_t i = 0; i < m.size(); ++i) {
          out.data()[i] = 0.0f + 1.0f * m.data()[i];
        }
        return out;
      };
      Grads want;
      for (const Matrix& pre : pre_fill) want.push_back(from_zero(pre));
      c.reference(c.inputs, tape.Value(y), from_zero(upstream), &want);
      for (size_t k = 0; k < params.size(); ++k) {
        // Leaf gradients land in a zero-initialised Parameter::grad.
        Matrix leaf(want[k].rows(), want[k].cols());
        leaf.AddInPlace(want[k]);
        EXPECT_TRUE(SameBits(params[k].grad, leaf)) << "input " << k;
      }
    }
  }
}

// --- Forward of each op against scalar reference loops -----------------
//
// golden_output_test pins the forward values of the ops the default model
// runs. The references below pin every op, each with the arithmetic and
// evaluation order its forward has always had: the dispatched nn/simd.h
// kernels written out as their scalar loops, the rest copied as they are.
// Every output must match its reference bit for bit.

struct ForwardCase {
  std::string name;
  std::vector<Matrix> inputs;
  /// Records the op under test on leaves bound to `inputs`.
  std::function<Var(Tape*, const std::vector<Var>&)> op;
  /// The op's output for `in`.
  std::function<Matrix(const std::vector<Matrix>& in)> reference;
};

/// A fresh zero matrix shaped like `m`.
Matrix ZerosLike(const Matrix& m) { return Matrix(m.rows(), m.cols()); }

/// A reference that applies `f` to every entry of its one input.
std::function<Matrix(const std::vector<Matrix>&)> Pointwise(
    std::function<float(float)> f) {
  return [f](const std::vector<Matrix>& in) {
    Matrix out = ZerosLike(in[0]);
    for (size_t i = 0; i < out.size(); ++i) out.data()[i] = f(in[0].data()[i]);
    return out;
  };
}

/// The q-error of Eq. 10 for the value of the 1x1 input.
std::function<Matrix(const std::vector<Matrix>&)> QErrorReference(
    double target) {
  return [target](const std::vector<Matrix>& in) {
    const double eps = 1e-9;
    const double c_hat = in[0].at(0, 0);
    const double c = std::max(target, 1.0);
    const double under = c / (c_hat + eps);
    const double over = c_hat / c;
    return Matrix::Scalar(static_cast<float>(std::max(under, over)));
  };
}

std::vector<ForwardCase> ForwardCases(size_t cols, Rng* rng) {
  constexpr size_t kRows = 6;
  const std::vector<uint32_t> gather_rows = {2, 0, 2, 5, 1, 2, 0};
  // Segments 1 and 4 stay empty; the column vector's length follows cols.
  constexpr uint32_t kUsedSegments[] = {0, 2, 3};
  std::vector<uint32_t> segments;
  for (size_t i = 0; i < kRows + cols; ++i) {
    segments.push_back(kUsedSegments[i % 3]);
  }
  constexpr size_t kSegments = 5;
  // All logits negative, so a segment's max is never 0.
  Matrix logits = RandomMatrix(segments.size(), 1, rng);
  for (size_t i = 0; i < logits.size(); ++i) logits.data()[i] -= 3.0f;
  // Inputs past +-30, so Exp's clamp is reached on both sides.
  Matrix wide = RandomMatrix(kRows, cols, rng);
  for (size_t i = 0; i < wide.size(); ++i) wide.data()[i] *= 20.0f;
  // Positive 1x1 predictions for the q-error.
  Matrix pred =
      Matrix::Scalar(1.0f + std::abs(RandomMatrix(1, 1, rng).scalar()));

  std::vector<ForwardCase> cases;
  cases.push_back(
      {"Constant",
       {RandomMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) {
         return t->Constant(t->Value(x[0]));
       },
       [](const std::vector<Matrix>& in) { return in[0]; }});
  cases.push_back(
      {"MatMul",
       {RandomMatrix(kRows, cols, rng), RandomMatrix(cols, cols + 2, rng)},
       [](Tape* t, const std::vector<Var>& x) {
         return t->MatMul(x[0], x[1]);
       },
       [](const std::vector<Matrix>& in) {
         const Matrix& a = in[0];
         const Matrix& b = in[1];
         Matrix out(a.rows(), b.cols());
         for (size_t i = 0; i < a.rows(); ++i) {
           for (size_t k = 0; k < a.cols(); ++k) {
             for (size_t j = 0; j < b.cols(); ++j) {
               out.at(i, j) += a.at(i, k) * b.at(k, j);
             }
           }
         }
         return out;
       }});
  cases.push_back(
      {"Add",
       {RandomMatrix(kRows, cols, rng), RandomMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) { return t->Add(x[0], x[1]); },
       [](const std::vector<Matrix>& in) {
         Matrix out = ZerosLike(in[0]);
         for (size_t i = 0; i < out.size(); ++i) {
           out.data()[i] = in[0].data()[i] + in[1].data()[i];
         }
         return out;
       }});
  cases.push_back(
      {"AddRowBroadcast",
       {RandomMatrix(kRows, cols, rng), RandomMatrix(1, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) {
         return t->AddRowBroadcast(x[0], x[1]);
       },
       [](const std::vector<Matrix>& in) {
         Matrix out = ZerosLike(in[0]);
         for (size_t r = 0; r < out.rows(); ++r) {
           for (size_t c = 0; c < out.cols(); ++c) {
             out.at(r, c) = in[0].at(r, c) + in[1].at(0, c);
           }
         }
         return out;
       }});
  cases.push_back(
      {"Sub",
       {RandomMatrix(kRows, cols, rng), RandomMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) { return t->Sub(x[0], x[1]); },
       [](const std::vector<Matrix>& in) {
         Matrix out = ZerosLike(in[0]);
         for (size_t i = 0; i < out.size(); ++i) {
           out.data()[i] = in[0].data()[i] - in[1].data()[i];
         }
         return out;
       }});
  cases.push_back(
      {"Mul",
       {RandomMatrix(kRows, cols, rng), RandomMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) { return t->Mul(x[0], x[1]); },
       [](const std::vector<Matrix>& in) {
         Matrix out = ZerosLike(in[0]);
         for (size_t i = 0; i < out.size(); ++i) {
           out.data()[i] = in[0].data()[i] * in[1].data()[i];
         }
         return out;
       }});
  cases.push_back(
      {"Scale",
       {RandomMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) { return t->Scale(x[0], 0.37f); },
       Pointwise([](float v) { return v * 0.37f; })});
  cases.push_back(
      {"Relu",
       {KinkedMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) { return t->Relu(x[0]); },
       Pointwise([](float v) { return v < 0.0f ? 0.0f : v; })});
  cases.push_back(
      {"LeakyRelu",
       {KinkedMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) {
         return t->LeakyRelu(x[0], 0.2f);
       },
       Pointwise([](float v) { return v > 0.0f ? v : 0.2f * v; })});
  cases.push_back(
      {"Tanh",
       {RandomMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) { return t->Tanh(x[0]); },
       Pointwise([](float v) { return std::tanh(v); })});
  cases.push_back(
      {"Exp",
       {wide},
       [](Tape* t, const std::vector<Var>& x) { return t->Exp(x[0]); },
       Pointwise([](float v) {
         return std::exp(std::clamp(v, -30.0f, 30.0f));
       })});
  cases.push_back(
      {"Log",
       {RandomMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) { return t->Log(x[0]); },
       Pointwise([](float v) { return std::log(std::max(v, 1e-12f)); })});
  cases.push_back(
      {"RowSoftmax",
       {RandomMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) { return t->RowSoftmax(x[0]); },
       [](const std::vector<Matrix>& in) {
         const Matrix& x = in[0];
         Matrix out = ZerosLike(x);
         for (size_t r = 0; r < x.rows(); ++r) {
           float mx = x.at(r, 0);
           for (size_t c = 1; c < x.cols(); ++c) mx = std::max(mx, x.at(r, c));
           double sum = 0.0;
           for (size_t c = 0; c < x.cols(); ++c) {
             out.at(r, c) = std::exp(x.at(r, c) - mx);
             sum += out.at(r, c);
           }
           float inv = static_cast<float>(1.0 / std::max(sum, 1e-30));
           for (size_t c = 0; c < x.cols(); ++c) out.at(r, c) *= inv;
         }
         return out;
       }});
  cases.push_back(
      {"ConcatCols",
       {RandomMatrix(kRows, cols, rng), RandomMatrix(kRows, cols + 1, rng)},
       [](Tape* t, const std::vector<Var>& x) {
         return t->ConcatCols(x[0], x[1]);
       },
       [](const std::vector<Matrix>& in) {
         const Matrix& a = in[0];
         const Matrix& b = in[1];
         Matrix out(a.rows(), a.cols() + b.cols());
         for (size_t r = 0; r < a.rows(); ++r) {
           for (size_t c = 0; c < a.cols(); ++c) out.at(r, c) = a.at(r, c);
           for (size_t c = 0; c < b.cols(); ++c) {
             out.at(r, a.cols() + c) = b.at(r, c);
           }
         }
         return out;
       }});
  cases.push_back(
      {"ConcatRows",
       {RandomMatrix(2, cols, rng), RandomMatrix(1, cols, rng),
        RandomMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) { return t->ConcatRows(x); },
       [](const std::vector<Matrix>& in) {
         Matrix out(2 + 1 + kRows, in[0].cols());
         size_t row = 0;
         for (const Matrix& p : in) {
           for (size_t r = 0; r < p.rows(); ++r, ++row) {
             for (size_t c = 0; c < p.cols(); ++c) out.at(row, c) = p.at(r, c);
           }
         }
         return out;
       }});
  cases.push_back(
      {"GatherRows",
       {RandomMatrix(kRows, cols, rng)},
       [gather_rows](Tape* t, const std::vector<Var>& x) {
         return t->GatherRows(x[0], gather_rows);
       },
       [gather_rows](const std::vector<Matrix>& in) {
         Matrix out(gather_rows.size(), in[0].cols());
         for (size_t i = 0; i < gather_rows.size(); ++i) {
           for (size_t c = 0; c < out.cols(); ++c) {
             out.at(i, c) = in[0].at(gather_rows[i], c);
           }
         }
         return out;
       }});
  cases.push_back(
      {"Aggregate",
       {RandomMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) {
         return t->Aggregate(x[0], kSrc, kDst, kRows);
       },
       [](const std::vector<Matrix>& in) {
         Matrix out(kRows, in[0].cols());
         for (size_t e = 0; e < kSrc.size(); ++e) {
           for (size_t c = 0; c < out.cols(); ++c) {
             out.at(kDst[e], c) = out.at(kDst[e], c) + in[0].at(kSrc[e], c);
           }
         }
         return out;
       }});
  cases.push_back(
      {"AggregateWeighted",
       {RandomMatrix(kRows, cols, rng), RandomMatrix(kSrc.size(), 1, rng)},
       [](Tape* t, const std::vector<Var>& x) {
         return t->Aggregate(x[0], kSrc, kDst, kRows, x[1]);
       },
       [](const std::vector<Matrix>& in) {
         Matrix out(kRows, in[0].cols());
         for (size_t e = 0; e < kSrc.size(); ++e) {
           for (size_t c = 0; c < out.cols(); ++c) {
             out.at(kDst[e], c) = out.at(kDst[e], c) +
                                  in[0].at(kSrc[e], c) * in[1].at(e, 0);
           }
         }
         return out;
       }});
  cases.push_back(
      {"EdgeScores",
       {RandomMatrix(kRows, cols, rng), RandomMatrix(2 * cols, 1, rng)},
       [](Tape* t, const std::vector<Var>& x) {
         return t->EdgeScores(x[0], x[1], kSrc, kDst);
       },
       [](const std::vector<Matrix>& in) {
         const Matrix& x = in[0];
         const Matrix& a = in[1];
         const size_t d = x.cols();
         Matrix out(kSrc.size(), 1);
         for (size_t e = 0; e < kSrc.size(); ++e) {
           float acc = 0.0f;
           for (size_t c = 0; c < d; ++c) acc += x.at(kDst[e], c) * a.at(c, 0);
           for (size_t c = 0; c < d; ++c) {
             acc += x.at(kSrc[e], c) * a.at(d + c, 0);
           }
           out.at(e, 0) = acc;
         }
         return out;
       }});
  cases.push_back(
      {"SegmentSoftmax",
       {logits},
       [segments](Tape* t, const std::vector<Var>& x) {
         return t->SegmentSoftmax(x[0], segments, kSegments);
       },
       [segments](const std::vector<Matrix>& in) {
         const Matrix& x = in[0];
         Matrix out = ZerosLike(x);
         std::vector<float> seg_max(kSegments, -1e30f);
         for (size_t i = 0; i < segments.size(); ++i) {
           seg_max[segments[i]] = std::max(seg_max[segments[i]], x.at(i, 0));
         }
         std::vector<double> seg_sum(kSegments, 0.0);
         for (size_t i = 0; i < segments.size(); ++i) {
           float e = std::exp(x.at(i, 0) - seg_max[segments[i]]);
           out.at(i, 0) = e;
           seg_sum[segments[i]] += e;
         }
         for (size_t i = 0; i < segments.size(); ++i) {
           out.at(i, 0) = static_cast<float>(
               out.at(i, 0) / std::max(seg_sum[segments[i]], 1e-30));
         }
         return out;
       }});
  cases.push_back(
      {"ColBroadcastMul",
       {RandomMatrix(kRows, cols, rng), RandomMatrix(kRows, 1, rng)},
       [](Tape* t, const std::vector<Var>& x) {
         return t->ColBroadcastMul(x[0], x[1]);
       },
       [](const std::vector<Matrix>& in) {
         Matrix out = ZerosLike(in[0]);
         for (size_t r = 0; r < out.rows(); ++r) {
           const float wr = in[1].at(r, 0);
           for (size_t c = 0; c < out.cols(); ++c) {
             out.at(r, c) = in[0].at(r, c) * wr;
           }
         }
         return out;
       }});
  cases.push_back(
      {"SumRows",
       {RandomMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) { return t->SumRows(x[0]); },
       [](const std::vector<Matrix>& in) {
         Matrix out(1, in[0].cols());
         for (size_t r = 0; r < in[0].rows(); ++r) {
           for (size_t c = 0; c < out.cols(); ++c) {
             out.at(0, c) = out.at(0, c) + in[0].at(r, c);
           }
         }
         return out;
       }});
  cases.push_back(
      {"ReduceSum",
       {RandomMatrix(kRows, cols, rng)},
       [](Tape* t, const std::vector<Var>& x) { return t->ReduceSum(x[0]); },
       [](const std::vector<Matrix>& in) {
         double s = 0.0;
         for (size_t i = 0; i < in[0].size(); ++i) s += in[0].data()[i];
         return Matrix::Scalar(static_cast<float>(s));
       }});
  // One prediction under its target and one over it: the two branches of
  // the max.
  cases.push_back(
      {"QErrorLossUnder",
       {pred},
       [](Tape* t, const std::vector<Var>& x) {
         return t->QErrorLoss(x[0], 50.0);
       },
       QErrorReference(50.0)});
  cases.push_back(
      {"QErrorLossOver",
       {pred},
       [](Tape* t, const std::vector<Var>& x) {
         return t->QErrorLoss(x[0], 0.5);
       },
       QErrorReference(0.5)});
  return cases;
}

TEST(TapeTest, ForwardMatchesScalarReferenceLoopsBitForBit) {
  for (size_t cols : {1, 7, 9, 33}) {
    Rng rng(90 + cols);
    for (const ForwardCase& c : ForwardCases(cols, &rng)) {
      SCOPED_TRACE(c.name + " cols=" + std::to_string(cols));
      std::vector<Parameter> params;
      for (const Matrix& in : c.inputs) params.emplace_back(in);
      Tape tape;
      std::vector<Var> leaves;
      for (Parameter& p : params) leaves.push_back(tape.Leaf(&p));
      EXPECT_TRUE(SameBits(tape.Value(c.op(&tape, leaves)),
                           c.reference(c.inputs)));
    }
  }
}

TEST(ThreadTapeDeathTest, NestedScopeOnOneThreadDies) {
  // A second scope would Reset() the tape under the first one's values.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadTape outer;
        ThreadTape inner;
      },
      "nested ThreadTape");
}

}  // namespace
}  // namespace neursc
