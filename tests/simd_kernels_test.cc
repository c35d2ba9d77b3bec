// Equivalence suite for the vectorised kernels (nn/simd.h).
//
// The AVX2 kernels must reproduce the scalar kernels bit for bit, and the
// Matrix GEMM entry points must reproduce the textbook loop orders they
// replaced: each output entry is accumulated in reduction order with one
// multiply and one add per term. The shapes cover every path through the
// kernels (empty, below one vector, exactly one vector, vector + tail,
// exactly one 32-column block, block + tail, two blocks); the inputs mix
// ordinary values with -0.0, NaN, +-inf and denormals.
//
// NaN payloads: when two different NaNs meet in one addition, IEEE 754
// leaves open which payload the sum carries, and compilers reorder the
// operands of a float addition freely, so the scalar code itself does not
// fix it. Entries where both results are NaN therefore compare by NaN-ness;
// every other entry must match bit for bit, -0.0 included.

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/matrix.h"
#include "nn/simd.h"

namespace neursc {
namespace {

constexpr size_t kSizes[] = {0, 1, 7, 8, 9, 31, 32, 33, 64, 65};

uint32_t Bits(float v) {
  uint32_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

std::string HexBits(float v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", Bits(v));
  return buf;
}

/// Bit equality, except that two NaNs match each other (file comment).
::testing::AssertionResult SameFloats(const float* got, const float* want,
                                      size_t n, const std::string& what) {
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    if (Bits(got[i]) != Bits(want[i])) {
      return ::testing::AssertionFailure()
             << what << " entry " << i << ": got " << HexBits(got[i])
             << ", want " << HexBits(want[i]);
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameMatrix(const Matrix& got, const Matrix& want,
                                      const std::string& what) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure() << what << ": shape differs";
  }
  return SameFloats(got.data(), want.data(), got.size(), what);
}

/// Ordinary values in [-2, 2); with `special`, about one entry in six is
/// one of -0.0, +0.0, NaN, +-inf, a denormal or a value near FLT_MAX.
std::vector<float> Values(size_t n, bool special, Rng* rng) {
  static const float kSpecials[] = {
      -0.0f,
      0.0f,
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::denorm_min(),
      -1e-40f,
      FLT_MIN / 2,
      3e38f,
      -3e38f,
  };
  std::vector<float> v(n);
  for (float& x : v) {
    if (special && rng->Uniform(0.0, 1.0) < 1.0 / 6) {
      x = kSpecials[static_cast<size_t>(
          rng->Uniform(0.0, static_cast<double>(std::size(kSpecials))))];
    } else {
      x = static_cast<float>(rng->Uniform(-2.0, 2.0));
    }
  }
  return v;
}

Matrix ValuesMatrix(size_t rows, size_t cols, bool special, Rng* rng) {
  Matrix m(rows, cols);
  std::vector<float> v = Values(rows * cols, special, rng);
  std::copy(v.begin(), v.end(), m.data());
  return m;
}

std::string Shape(size_t m, size_t k, size_t n, bool special) {
  return "m=" + std::to_string(m) + " k=" + std::to_string(k) +
         " n=" + std::to_string(n) + (special ? " special" : "");
}

// --- The Matrix GEMM entry points against the loop orders they replaced --

/// C = A * B, i-k-j: c[i][j] += a[i][k] * b[k][j] in k order.
Matrix ReferenceMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      for (size_t j = 0; j < b.cols(); ++j) {
        c.at(i, j) += a.at(i, k) * b.at(k, j);
      }
    }
  }
  return c;
}

/// C = A^T * B, k-i-j: rank-one updates in k order.
Matrix ReferenceMatMulTransposeA(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  for (size_t k = 0; k < a.rows(); ++k) {
    for (size_t i = 0; i < a.cols(); ++i) {
      for (size_t j = 0; j < b.cols(); ++j) {
        c.at(i, j) += a.at(k, i) * b.at(k, j);
      }
    }
  }
  return c;
}

/// C = A * B^T as dot products accumulated from 0 in k order.
Matrix ReferenceMatMulTransposeB(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      float dot = 0.0f;
      for (size_t k = 0; k < a.cols(); ++k) dot += a.at(i, k) * b.at(j, k);
      c.at(i, j) = dot;
    }
  }
  return c;
}

TEST(SimdKernelsTest, GemmEntryPointsMatchReferenceLoops) {
  Rng rng(8);
  for (bool special : {false, true}) {
    for (size_t m : kSizes) {
      for (size_t k : kSizes) {
        for (size_t n : kSizes) {
          const std::string what = Shape(m, k, n, special);
          Matrix a = ValuesMatrix(m, k, special, &rng);
          Matrix b = ValuesMatrix(k, n, special, &rng);
          ASSERT_TRUE(SameMatrix(Matrix::MatMul(a, b), ReferenceMatMul(a, b),
                                 "MatMul " + what));
          Matrix at = ValuesMatrix(k, m, special, &rng);
          ASSERT_TRUE(SameMatrix(Matrix::MatMulTransposeA(at, b),
                                 ReferenceMatMulTransposeA(at, b),
                                 "MatMulTransposeA " + what));
          Matrix bt = ValuesMatrix(n, k, special, &rng);
          ASSERT_TRUE(SameMatrix(Matrix::MatMulTransposeB(a, bt),
                                 ReferenceMatMulTransposeB(a, bt),
                                 "MatMulTransposeB " + what));
        }
      }
    }
  }
}

TEST(SimdKernelsTest, MatMulIntoAccumulatesOntoExistingOutput) {
  Rng rng(9);
  Matrix a = ValuesMatrix(9, 33, false, &rng);
  Matrix b = ValuesMatrix(33, 65, false, &rng);
  Matrix c = ValuesMatrix(9, 65, false, &rng);
  Matrix want = c;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      for (size_t j = 0; j < b.cols(); ++j) {
        want.at(i, j) += a.at(i, k) * b.at(k, j);
      }
    }
  }
  Matrix::MatMulInto(a, b, &c);
  EXPECT_TRUE(SameMatrix(c, want, "MatMulInto"));
}

/// The kernel before the dense rewrite: i-k-j with a per-(i, k) zero-skip.
/// Skipping a zero term adds nothing to a finite sum, so on finite inputs
/// without zeros it must agree with MatMul exactly.
TEST(SimdKernelsTest, MatMulMatchesZeroSkipKernelOnDenseInputs) {
  for (size_t n : {32, 128}) {
    Rng rng(7 + n);
    Matrix a = Matrix::Uniform(n, n, -1.0f, 1.0f, &rng);
    Matrix b = Matrix::Uniform(n, n, -1.0f, 1.0f, &rng);
    Matrix want(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t k = 0; k < n; ++k) {
        const float aik = a.at(i, k);
        if (aik == 0.0f) continue;
        for (size_t j = 0; j < n; ++j) want.at(i, j) += aik * b.at(k, j);
      }
    }
    EXPECT_TRUE(SameMatrix(Matrix::MatMul(a, b), want,
                           "n=" + std::to_string(n)));
  }
}

TEST(SimdKernelsTest, AddInPlaceMatchesElementwiseSum) {
  Rng rng(10);
  for (size_t n : kSizes) {
    Matrix x = ValuesMatrix(3, n, true, &rng);
    Matrix y = ValuesMatrix(3, n, true, &rng);
    Matrix want(3, n);
    for (size_t i = 0; i < x.size(); ++i) {
      want.data()[i] = x.data()[i] + y.data()[i];
    }
    x.AddInPlace(y);
    EXPECT_TRUE(SameMatrix(x, want, "n=" + std::to_string(n)));
  }
}

// --- AVX2 variants against the scalar variants ---------------------------

#if defined(NEURSC_SIMD_AVX2)

class SimdAvx2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simd::UsesAvx2()) GTEST_SKIP() << "this CPU has no AVX2";
  }
};

TEST_F(SimdAvx2Test, GemmMatchesScalarForBothOperandLayouts) {
  Rng rng(11);
  for (bool special : {false, true}) {
    for (size_t m : kSizes) {
      for (size_t k : kSizes) {
        for (size_t n : kSizes) {
          // A row-major (MatMul) and column-strided (MatMulTransposeA),
          // onto a non-zero C so the accumulate contract is covered too.
          std::vector<float> a = Values(m * k, special, &rng);
          std::vector<float> b = Values(k * n, special, &rng);
          std::vector<float> c0 = Values(m * n, special, &rng);
          for (bool transposed : {false, true}) {
            const size_t row_stride = transposed ? 1 : k;
            const size_t col_stride = transposed ? m : 1;
            std::vector<float> want = c0;
            std::vector<float> got = c0;
            simd::scalar::Gemm(m, k, n, a.data(), row_stride, col_stride,
                               b.data(), n, want.data(), n);
            simd::avx2::Gemm(m, k, n, a.data(), row_stride, col_stride,
                             b.data(), n, got.data(), n);
            ASSERT_TRUE(SameFloats(got.data(), want.data(), got.size(),
                                   Shape(m, k, n, special) +
                                       (transposed ? " A^T" : " A")));
          }
        }
      }
    }
  }
}

TEST_F(SimdAvx2Test, RowOpsMatchScalar) {
  Rng rng(12);
  for (size_t rows : kSizes) {
    for (size_t cols : kSizes) {
      const std::string what =
          "rows=" + std::to_string(rows) + " cols=" + std::to_string(cols);
      const size_t size = rows * cols;
      std::vector<float> x = Values(size, true, &rng);
      std::vector<float> y = Values(size, true, &rng);
      std::vector<float> bias = Values(cols, true, &rng);
      std::vector<float> w = Values(rows, true, &rng);
      std::vector<float> want(size);
      std::vector<float> got(size);

      simd::scalar::Add(x.data(), y.data(), want.data(), size);
      simd::avx2::Add(x.data(), y.data(), got.data(), size);
      ASSERT_TRUE(SameFloats(got.data(), want.data(), size, "Add " + what));

      // In place, as Matrix::AddInPlace calls it.
      want = x;
      got = x;
      simd::scalar::Add(want.data(), y.data(), want.data(), size);
      simd::avx2::Add(got.data(), y.data(), got.data(), size);
      ASSERT_TRUE(
          SameFloats(got.data(), want.data(), size, "Add in place " + what));

      simd::scalar::AddRowBroadcast(x.data(), bias.data(), want.data(), rows,
                                    cols);
      simd::avx2::AddRowBroadcast(x.data(), bias.data(), got.data(), rows,
                                  cols);
      ASSERT_TRUE(SameFloats(got.data(), want.data(), size,
                             "AddRowBroadcast " + what));

      simd::scalar::ColBroadcastMul(x.data(), w.data(), want.data(), rows,
                                    cols);
      simd::avx2::ColBroadcastMul(x.data(), w.data(), got.data(), rows, cols);
      ASSERT_TRUE(SameFloats(got.data(), want.data(), size,
                             "ColBroadcastMul " + what));

      // The accumulating row kernels, onto non-zero outputs.
      want = y;
      got = y;
      simd::scalar::AddColBroadcastMul(x.data(), w.data(), want.data(), rows,
                                       cols);
      simd::avx2::AddColBroadcastMul(x.data(), w.data(), got.data(), rows,
                                     cols);
      ASSERT_TRUE(SameFloats(got.data(), want.data(), size,
                             "AddColBroadcastMul " + what));

      std::vector<float> sums_want = bias;
      std::vector<float> sums_got = bias;
      simd::scalar::AddRows(x.data(), rows, cols, sums_want.data());
      simd::avx2::AddRows(x.data(), rows, cols, sums_got.data());
      ASSERT_TRUE(SameFloats(sums_got.data(), sums_want.data(), cols,
                             "AddRows " + what));

      // The left cols / 3 columns of x, then the rest, as the ConcatCols
      // backward reads its gradient.
      for (size_t offset : {size_t{0}, cols / 3}) {
        const size_t width = offset == 0 ? cols / 3 : cols - offset;
        std::vector<float> block_want = Values(rows * width, true, &rng);
        std::vector<float> block_got = block_want;
        simd::scalar::AddBlock(x.data() + offset, cols, rows, width,
                               block_want.data());
        simd::avx2::AddBlock(x.data() + offset, cols, rows, width,
                             block_got.data());
        ASSERT_TRUE(SameFloats(block_got.data(), block_want.data(),
                               block_got.size(),
                               "AddBlock offset " + std::to_string(offset) +
                                   " " + what));
      }

      simd::scalar::Relu(x.data(), want.data(), size);
      simd::avx2::Relu(x.data(), got.data(), size);
      ASSERT_TRUE(SameFloats(got.data(), want.data(), size, "Relu " + what));

      // Scatter rows onto fewer targets, with repeats, onto non-zero rows.
      const size_t out_rows = rows / 2 + 1;
      std::vector<uint32_t> targets(rows);
      for (size_t r = 0; r < rows; ++r) {
        targets[r] = static_cast<uint32_t>((r * 7) % out_rows);
      }
      std::vector<float> out0 = Values(out_rows * cols, true, &rng);
      std::vector<float> scatter_want = out0;
      std::vector<float> scatter_got = out0;
      simd::scalar::ScatterAddRows(x.data(), targets.data(), rows, cols,
                                   scatter_want.data());
      simd::avx2::ScatterAddRows(x.data(), targets.data(), rows, cols,
                                 scatter_got.data());
      ASSERT_TRUE(SameFloats(scatter_got.data(), scatter_want.data(),
                             scatter_got.size(), "ScatterAddRows " + what));
    }
  }
}

TEST_F(SimdAvx2Test, AggregateMatchesScalar) {
  // Aggregate over edge counts and row widths around the 8-wide spans, so
  // every vector body and scalar tail runs; repeated targets and
  // self-loops included.
  Rng rng(14);
  constexpr size_t kRows = 11;
  for (size_t edges : kSizes) {
    for (size_t cols : kSizes) {
      const std::string what =
          "edges=" + std::to_string(edges) + " cols=" + std::to_string(cols);
      std::vector<uint32_t> src(edges);
      std::vector<uint32_t> dst(edges);
      for (size_t e = 0; e < edges; ++e) {
        src[e] = static_cast<uint32_t>(rng.UniformIndex(kRows));
        dst[e] = e % 3 == 2 ? src[e] : static_cast<uint32_t>(e % 4);
      }
      std::vector<float> x = Values(kRows * cols, true, &rng);
      std::vector<float> w = Values(edges, true, &rng);

      // Onto non-zero rows, with and without weights.
      const std::vector<float> out0 = Values(kRows * cols, true, &rng);
      for (const float* weights : {static_cast<const float*>(nullptr),
                                   static_cast<const float*>(w.data())}) {
        std::vector<float> agg_want = out0;
        std::vector<float> agg_got = out0;
        simd::scalar::Aggregate(x.data(), src.data(), dst.data(), weights,
                                edges, cols, agg_want.data());
        simd::avx2::Aggregate(x.data(), src.data(), dst.data(), weights,
                              edges, cols, agg_got.data());
        ASSERT_TRUE(SameFloats(agg_got.data(), agg_want.data(),
                               agg_got.size(),
                               (weights ? "Aggregate weighted " :
                                          "Aggregate ") + what));
      }
    }
  }
}

TEST_F(SimdAvx2Test, ReluKeepsNegativeZeroAndNaNBitsExactly) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> x = {-0.0f, 0.0f, nan,   -nan,  -1.0f, 1.0f,
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::denorm_min(),
                          -0.0f, nan};
  std::vector<float> got(x.size());
  simd::avx2::Relu(x.data(), got.data(), x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    const float want = x[i] < 0.0f ? 0.0f : x[i];
    // Exact bits here, NaN payload and sign included: Relu has a single
    // operand, so nothing leaves the result open.
    EXPECT_EQ(Bits(got[i]), Bits(want)) << "entry " << i;
  }
}

TEST_F(SimdAvx2Test, ElementwiseKernelsMatchScalar) {
  Rng rng(13);
  for (size_t n : kSizes) {
    for (bool special : {false, true}) {
      const std::string what =
          "n=" + std::to_string(n) + (special ? " special" : "");
      std::vector<float> x = Values(n, special, &rng);
      std::vector<float> y = Values(n, special, &rng);
      std::vector<float> out0 = Values(n, special, &rng);
      for (float slope : {0.2f, -1.0f}) {
        std::vector<float> want(n);
        std::vector<float> got(n);
        simd::scalar::LeakyRelu(x.data(), slope, want.data(), n);
        simd::avx2::LeakyRelu(x.data(), slope, got.data(), n);
        ASSERT_TRUE(
            SameFloats(got.data(), want.data(), n, "LeakyRelu " + what));

        want = out0;
        got = out0;
        simd::scalar::AddScaled(x.data(), slope, want.data(), n);
        simd::avx2::AddScaled(x.data(), slope, got.data(), n);
        ASSERT_TRUE(
            SameFloats(got.data(), want.data(), n, "AddScaled " + what));

        want = out0;
        got = out0;
        simd::scalar::AddLeakyReluGrad(x.data(), y.data(), slope, want.data(),
                                       n);
        simd::avx2::AddLeakyReluGrad(x.data(), y.data(), slope, got.data(), n);
        ASSERT_TRUE(SameFloats(got.data(), want.data(), n,
                               "AddLeakyReluGrad " + what));
      }
      std::vector<float> want = out0;
      std::vector<float> got = out0;
      simd::scalar::AddMul(x.data(), y.data(), want.data(), n);
      simd::avx2::AddMul(x.data(), y.data(), got.data(), n);
      ASSERT_TRUE(SameFloats(got.data(), want.data(), n, "AddMul " + what));

      want = out0;
      got = out0;
      simd::scalar::AddReluGrad(x.data(), y.data(), want.data(), n);
      simd::avx2::AddReluGrad(x.data(), y.data(), got.data(), n);
      ASSERT_TRUE(
          SameFloats(got.data(), want.data(), n, "AddReluGrad " + what));
    }
  }
}

TEST_F(SimdAvx2Test, GradientMasksKeepSignedZerosAndSpecialsExactly) {
  // Every (x, g, out) triple over the special values, so each mask sees
  // x = -0.0, +0.0, NaN, +-inf and denormals on both sides of its compare,
  // and a masked entry adds +0.0 onto a -0.0 gradient.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> specials = {-0.0f, 0.0f,    nan,     inf,  -inf,
                                       denorm, -denorm, -1.5f, 2.25f};
  std::vector<float> x;
  std::vector<float> g;
  std::vector<float> out0;
  for (float xv : specials) {
    for (float gv : specials) {
      for (float ov : specials) {
        x.push_back(xv);
        g.push_back(gv);
        out0.push_back(ov);
      }
    }
  }
  const size_t n = x.size();
  std::vector<float> want = out0;
  std::vector<float> got = out0;
  simd::scalar::AddReluGrad(x.data(), g.data(), want.data(), n);
  simd::avx2::AddReluGrad(x.data(), g.data(), got.data(), n);
  EXPECT_TRUE(SameFloats(got.data(), want.data(), n, "AddReluGrad"));

  want = out0;
  got = out0;
  simd::scalar::AddLeakyReluGrad(x.data(), g.data(), 0.2f, want.data(), n);
  simd::avx2::AddLeakyReluGrad(x.data(), g.data(), 0.2f, got.data(), n);
  EXPECT_TRUE(SameFloats(got.data(), want.data(), n, "AddLeakyReluGrad"));

  // The forward LeakyRelu has a single operand, so its bits are fully
  // fixed, NaN payload and sign included.
  simd::scalar::LeakyRelu(x.data(), 0.2f, want.data(), n);
  simd::avx2::LeakyRelu(x.data(), 0.2f, got.data(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(Bits(got[i]), Bits(want[i])) << "LeakyRelu entry " << i;
  }
}

TEST_F(SimdAvx2Test, AdamStepMatchesScalarOverSeveralSteps) {
  Rng rng(14);
  for (size_t n : kSizes) {
    const std::string what = "n=" + std::to_string(n);
    std::vector<float> value_want = Values(n, false, &rng);
    std::vector<float> value_got = value_want;
    std::vector<float> m_want(n, 0.0f);
    std::vector<float> v_want(n, 0.0f);
    std::vector<float> m_got = m_want;
    std::vector<float> v_got = v_want;
    for (int step = 1; step <= 6; ++step) {
      // Ordinary gradients; every other entry is zero, negative or a
      // denormal instead.
      static const float kGrads[] = {
          0.0f, -0.0f, -0.75f, std::numeric_limits<float>::denorm_min(),
          -FLT_MIN / 4};
      std::vector<float> grad = Values(n, false, &rng);
      for (size_t j = step % 2; j < n; j += 2) {
        grad[j] = kGrads[(j / 2 + step) % std::size(kGrads)];
      }
      simd::AdamCoefficients coeffs;
      coeffs.beta1 = 0.9;
      coeffs.beta2 = 0.999;
      coeffs.bias1 = 1.0 - std::pow(coeffs.beta1, step);
      coeffs.bias2 = 1.0 - std::pow(coeffs.beta2, step);
      coeffs.learning_rate = 1e-3;
      coeffs.epsilon = 1e-8;
      simd::scalar::AdamStep(grad.data(), coeffs, value_want.data(),
                             m_want.data(), v_want.data(), n);
      simd::avx2::AdamStep(grad.data(), coeffs, value_got.data(),
                           m_got.data(), v_got.data(), n);
      const std::string at = what + " step " + std::to_string(step);
      ASSERT_TRUE(
          SameFloats(value_got.data(), value_want.data(), n, "value " + at));
      ASSERT_TRUE(SameFloats(m_got.data(), m_want.data(), n, "m " + at));
      ASSERT_TRUE(SameFloats(v_got.data(), v_want.data(), n, "v " + at));
    }
  }
}

#endif  // NEURSC_SIMD_AVX2

}  // namespace
}  // namespace neursc
