#include "nn/matrix.h"

#include <gtest/gtest.h>

namespace neursc {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m.at(1, 2), 1.5f);
  m.at(0, 1) = 7.0f;
  EXPECT_FLOAT_EQ(m.at(0, 1), 7.0f);
}

TEST(MatrixTest, FromRowsAndScalar) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_FLOAT_EQ(m.at(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(Matrix::Scalar(9.0f).scalar(), 9.0f);
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = Matrix::MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(MatrixTest, TransposeVariantsAgreeWithExplicit) {
  Rng rng(3);
  Matrix a = Matrix::Uniform(4, 3, -1, 1, &rng);
  Matrix b = Matrix::Uniform(4, 5, -1, 1, &rng);
  // a^T b via MatMulTransposeA.
  Matrix at(3, 4);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 3; ++c) at.at(c, r) = a.at(r, c);
  }
  Matrix expected = Matrix::MatMul(at, b);
  Matrix got = Matrix::MatMulTransposeA(a, b);
  EXPECT_LT(Matrix::MaxAbsDiff(expected, got), 1e-5f);

  Matrix c = Matrix::Uniform(6, 5, -1, 1, &rng);
  // b c^T via MatMulTransposeB.
  Matrix ct(5, 6);
  for (size_t r = 0; r < 6; ++r) {
    for (size_t k = 0; k < 5; ++k) ct.at(k, r) = c.at(r, k);
  }
  Matrix expected2 = Matrix::MatMul(b, ct);
  Matrix got2 = Matrix::MatMulTransposeB(b, c);
  EXPECT_LT(Matrix::MaxAbsDiff(expected2, got2), 1e-5f);
}

TEST(MatrixTest, InPlaceOps) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{10, 20}});
  a.AddInPlace(b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 11.0f);
  a.ScaleInPlace(2.0f);
  EXPECT_FLOAT_EQ(a.at(0, 0), 22.0f);
}

TEST(MatrixTest, ClampInPlace) {
  Matrix m = Matrix::FromRows({{-5, 0.005f, 5}});
  m.ClampInPlace(0.01f);
  EXPECT_FLOAT_EQ(m.at(0, 0), -0.01f);
  EXPECT_FLOAT_EQ(m.at(0, 1), 0.005f);
  EXPECT_FLOAT_EQ(m.at(0, 2), 0.01f);
}

TEST(MatrixTest, NormAndSum) {
  Matrix m = Matrix::FromRows({{3, 4}});
  EXPECT_FLOAT_EQ(m.Norm(), 5.0f);
  EXPECT_FLOAT_EQ(m.Sum(), 7.0f);
}

TEST(MatrixTest, GlorotBounds) {
  Rng rng(1);
  Matrix m = Matrix::GlorotUniform(10, 6, &rng);
  float bound = std::sqrt(6.0f / 16.0f);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::abs(m.data()[i]), bound);
  }
}

TEST(MatrixTest, ZerosOnesFill) {
  Matrix z = Matrix::Zeros(2, 2);
  EXPECT_FLOAT_EQ(z.Sum(), 0.0f);
  Matrix o = Matrix::Ones(2, 2);
  EXPECT_FLOAT_EQ(o.Sum(), 4.0f);
  o.Fill(0.25f);
  EXPECT_FLOAT_EQ(o.Sum(), 1.0f);
}

}  // namespace
}  // namespace neursc
