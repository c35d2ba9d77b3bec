#include "nn/tape.h"

#include <cmath>

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
      {"sigmoid", [](Tape* t, Var v) { return t->Sigmoid(v); }},
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
                         ::testing::Range(0, 7));

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

TEST(TapeTest, GradCheckScatterAddAndColBroadcast) {
  Parameter x = RandomParam(5, 3, 30);
  Parameter w = RandomParam(5, 1, 31, 0.2f, 1.0f);
  std::vector<uint32_t> targets = {0, 1, 1, 2, 0};
  auto build = [&](Tape* tape) {
    Var weighted = tape->ColBroadcastMul(tape->Leaf(&x), tape->Leaf(&w));
    Var scattered = tape->ScatterAddRows(weighted, targets, 3);
    return tape->ReduceSum(tape->Mul(scattered, scattered));
  };
  auto loss = [&]() {
    Tape tape;
    return static_cast<double>(tape.Value(build(&tape)).scalar());
  };
  {
    Tape tape;
    tape.Backward(build(&tape));
  }
  EXPECT_LT(MaxGradCheckError({&x, &w}, loss), 2e-2);
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
  // A miniature end-to-end network: gather/scatter message passing,
  // nonlinearity, readout, exp head, q-error loss.
  Parameter w1 = RandomParam(3, 4, 60);
  Parameter w2 = RandomParam(4, 1, 61);
  Parameter feat = RandomParam(5, 3, 62, 0.1f, 0.9f);
  std::vector<uint32_t> src = {0, 1, 2, 3, 4, 0};
  std::vector<uint32_t> dst = {1, 0, 3, 2, 0, 4};
  auto build = [&](Tape* tape) {
    Var h = tape->MatMul(tape->Leaf(&feat), tape->Leaf(&w1));
    Var msg = tape->GatherRows(h, src);
    Var agg = tape->ScatterAddRows(msg, dst, 5);
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

}  // namespace
}  // namespace neursc
