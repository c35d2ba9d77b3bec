// Property-based stress test of the autograd tape: random programs of
// smooth ops over 3x3 matrices must pass a finite-difference gradient
// check, and CHECK-guarded misuse (bad shapes, bad index lists) must
// abort.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/tape.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::MaxGradCheckError;

class TapeFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(TapeFuzzTest, RandomSmoothProgramGradCheck) {
  const int seed = GetParam();
  Rng init_rng(seed);
  Parameter a(Matrix::Uniform(3, 3, -0.8f, 0.8f, &init_rng));
  Parameter b(Matrix::Uniform(3, 3, -0.8f, 0.8f, &init_rng));

  // The program is a fixed random sequence of smooth ops; the RNG that
  // drives op selection is reseeded per build so the loss closure and the
  // backward build follow the identical program.
  auto build = [&](Tape* tape) {
    Rng program(seed * 977 + 3);
    Var x = tape->Leaf(&a);
    Var y = tape->Leaf(&b);
    for (int step = 0; step < 6; ++step) {
      switch (program.UniformIndex(7)) {
        case 0:
          x = tape->Add(x, y);
          break;
        case 1:
          x = tape->Sub(x, y);
          break;
        case 2:
          x = tape->Mul(x, y);
          break;
        case 3:
          x = tape->MatMul(x, y);
          break;
        case 4:
          x = tape->Tanh(x);
          break;
        case 5:
          x = tape->Scale(x, 0.7f);
          break;
        case 6:
          y = tape->Tanh(tape->MatMul(y, x));
          break;
      }
    }
    Var joined = tape->Add(tape->Tanh(x), tape->Tanh(y));
    return tape->ReduceSum(tape->Mul(joined, joined));
  };

  auto loss = [&]() {
    Tape tape;
    return static_cast<double>(tape.Value(build(&tape)).scalar());
  };
  a.ZeroGrad();
  b.ZeroGrad();
  {
    Tape tape;
    tape.Backward(build(&tape));
  }
  EXPECT_LT(MaxGradCheckError({&a, &b}, loss, 5e-4f), 3e-2)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, TapeFuzzTest,
                         ::testing::Range(0, 20));

using TapeDeathTest = ::testing::Test;

TEST(TapeDeathTest, DoubleBackwardAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Parameter p(Matrix::Scalar(1.0f));
        Tape tape;
        Var x = tape.Leaf(&p);
        Var y = tape.Mul(x, x);
        tape.Backward(y);
        tape.Backward(y);
      },
      "Backward");
}

TEST(TapeDeathTest, NonScalarBackwardAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Parameter p(Matrix(2, 2, 1.0f));
        Tape tape;
        Var x = tape.Leaf(&p);
        tape.Backward(x);
      },
      "scalar");
}

TEST(TapeDeathTest, MatMulShapeMismatchAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Tape tape;
        Var a = tape.Constant(Matrix(2, 3));
        Var b = tape.Constant(Matrix(2, 3));
        tape.MatMul(a, b);
      },
      "matmul");
}

TEST(TapeDeathTest, GatherOutOfRangeAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Tape tape;
        Var a = tape.Constant(Matrix(2, 2));
        tape.GatherRows(a, {5});
      },
      "");
}

// The message-passing ops read rows through their edge lists, so each
// must check the lists before its kernel runs: an index past its side's
// rows (including a uint32_t that would wrap a row offset) or a src list
// whose length differs from dst's aborts with nothing read.

TEST(TapeDeathTest, AggregateBadEdgeListAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto aggregate = [](std::vector<uint32_t> src, std::vector<uint32_t> dst,
                      size_t weight_rows) {
    Tape tape;
    Var x = tape.Constant(Matrix(3, 2));
    Var w = weight_rows > 0 ? tape.Constant(Matrix(weight_rows, 1)) : Var{};
    tape.Aggregate(x, src, dst, 4, w);
  };
  EXPECT_DEATH(aggregate({0, 3}, {1, 1}, 0), "edge index out of range");
  EXPECT_DEATH(aggregate({0, 0xffffffffu}, {1, 1}, 0),
               "edge index out of range");
  EXPECT_DEATH(aggregate({0, 1}, {1, 4}, 0), "edge index out of range");
  EXPECT_DEATH(aggregate({0, 1}, {1}, 0), "edge list length mismatch");
  EXPECT_DEATH(aggregate({0}, {1, 2}, 0), "edge list length mismatch");
  EXPECT_DEATH(aggregate({0, 1}, {1, 1}, 3), "wv.rows");
}

TEST(TapeDeathTest, EdgeScoresBadEdgeListAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto scores = [](std::vector<uint32_t> src, std::vector<uint32_t> dst,
                   size_t p_cols) {
    Tape tape;
    Var p = tape.Constant(Matrix(3, p_cols));
    tape.EdgeScores(p, src, dst);
  };
  EXPECT_DEATH(scores({0, 3}, {1, 1}, 2), "edge index out of range");
  EXPECT_DEATH(scores({0, 1}, {1, 0xffffffffu}, 2),
               "edge index out of range");
  EXPECT_DEATH(scores({0, 1}, {2}, 2), "edge list length mismatch");
  EXPECT_DEATH(scores({0}, {1, 2}, 2), "edge list length mismatch");
  EXPECT_DEATH(scores({0, 1}, {1, 1}, 1), "two columns");
  EXPECT_DEATH(scores({0, 1}, {1, 1}, 3), "two columns");
}

}  // namespace
}  // namespace neursc
