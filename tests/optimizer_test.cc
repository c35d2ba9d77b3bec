#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include "nn/tape.h"

namespace neursc {
namespace {

TEST(AdamTest, MinimizesQuadratic) {
  // f(x) = (x - 3)^2, start at 10.
  Parameter x(Matrix::Scalar(10.0f));
  AdamOptimizer::Options opts;
  opts.learning_rate = 0.1;
  AdamOptimizer optimizer({&x}, opts);
  for (int i = 0; i < 500; ++i) {
    optimizer.ZeroGrad();
    Tape tape;
    Var v = tape.Leaf(&x);
    Var diff = tape.Sub(v, tape.Constant(Matrix::Scalar(3.0f)));
    Var loss = tape.Mul(diff, diff);
    tape.Backward(loss);
    optimizer.Step();
  }
  EXPECT_NEAR(x.value.scalar(), 3.0f, 1e-2);
}

TEST(AdamTest, ClipGradNorm) {
  Parameter a(Matrix::Scalar(0.0f));
  Parameter b(Matrix::Scalar(0.0f));
  a.grad = Matrix::Scalar(3.0f);
  b.grad = Matrix::Scalar(4.0f);
  AdamOptimizer optimizer({&a, &b});
  double pre = optimizer.ClipGradNorm(1.0);
  EXPECT_NEAR(pre, 5.0, 1e-6);
  double norm = std::sqrt(a.grad.scalar() * a.grad.scalar() +
                          b.grad.scalar() * b.grad.scalar());
  EXPECT_NEAR(norm, 1.0, 1e-5);
}

TEST(AdamTest, ClipIsNoOpBelowThreshold) {
  Parameter a(Matrix::Scalar(0.0f));
  a.grad = Matrix::Scalar(0.5f);
  AdamOptimizer optimizer({&a});
  optimizer.ClipGradNorm(1.0);
  EXPECT_FLOAT_EQ(a.grad.scalar(), 0.5f);
}

TEST(ClampParametersTest, EnforcesBox) {
  Rng rng(1);
  Parameter p(Matrix::Uniform(4, 4, -1.0f, 1.0f, &rng));
  ClampParameters({&p}, 0.01f);
  for (size_t i = 0; i < p.value.size(); ++i) {
    EXPECT_LE(std::abs(p.value.data()[i]), 0.01f);
  }
}

TEST(AdamTest, StepCountBiasCorrection) {
  // First step with gradient g moves by ~lr regardless of g's magnitude
  // (Adam property), direction matches -sign(g).
  Parameter x(Matrix::Scalar(0.0f));
  AdamOptimizer::Options opts;
  opts.learning_rate = 0.5;
  AdamOptimizer optimizer({&x}, opts);
  x.grad = Matrix::Scalar(1e-3f);
  optimizer.Step();
  EXPECT_NEAR(x.value.scalar(), -0.5f, 1e-2);
}

}  // namespace
}  // namespace neursc
