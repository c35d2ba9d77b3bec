#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "nn/simd.h"

namespace neursc {

Matrix Matrix::GlorotUniform(size_t rows, size_t cols, Rng* rng) {
  float s = std::sqrt(6.0f / static_cast<float>(rows + cols));
  return Uniform(rows, cols, -s, s, rng);
}

Matrix Matrix::Uniform(size_t rows, size_t cols, float lo, float hi,
                       Rng* rng) {
  Matrix m(rows, cols);
  for (float& v : m.data_) {
    v = static_cast<float>(rng->Uniform(lo, hi));
  }
  return m;
}

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    NEURSC_CHECK(rows[r].size() == m.cols_) << "ragged rows";
    std::copy(rows[r].begin(), rows[r].end(), m.row(r));
  }
  return m;
}

float Matrix::scalar() const {
  NEURSC_CHECK(rows_ == 1 && cols_ == 1) << "scalar() on " << rows_ << "x"
                                         << cols_;
  return data_[0];
}

void Matrix::AddInPlace(const Matrix& other) {
  NEURSC_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  simd::Add(data(), other.data(), data(), data_.size());
}

void Matrix::AxpyInPlace(float alpha, const Matrix& other) {
  NEURSC_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

void Matrix::ScaleInPlace(float alpha) {
  for (float& v : data_) v *= alpha;
}

void Matrix::ClampInPlace(float limit) {
  for (float& v : data_) v = std::clamp(v, -limit, limit);
}

Matrix Matrix::MatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows_, b.cols_);
  MatMulInto(a, b, &c);
  return c;
}

// The three products share simd::Gemm, which accumulates every C entry in
// reduction order with one multiply and one add per term (no FMA; the
// library builds with -ffp-contract=off). The association is therefore
// the textbook one whichever kernel variant runs.

void Matrix::MatMulInto(const Matrix& a, const Matrix& b, Matrix* c) {
  NEURSC_CHECK(a.cols_ == b.rows_) << "matmul shape mismatch";
  NEURSC_CHECK(c->rows_ == a.rows_ && c->cols_ == b.cols_);
  simd::Gemm(a.rows_, a.cols_, b.cols_, a.data(), a.cols_, 1, b.data(),
             b.cols_, c->data(), c->cols_);
}

Matrix Matrix::MatMulTransposeA(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols_, b.cols_);
  MatMulTransposeAInto(a, b, &c);
  return c;
}

Matrix Matrix::MatMulTransposeB(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows_, b.rows_);
  MatMulTransposeBInto(a, b, &c);
  return c;
}

void Matrix::MatMulTransposeAInto(const Matrix& a, const Matrix& b,
                                  Matrix* c) {
  NEURSC_CHECK(a.rows_ == b.rows_) << "matmul^T shape mismatch";
  NEURSC_CHECK(c->rows_ == a.cols_ && c->cols_ == b.cols_);
  // A^T(i, p) = a(p, i): row stride 1, column stride a.cols_.
  simd::Gemm(a.cols_, a.rows_, b.cols_, a.data(), 1, a.cols_, b.data(),
             b.cols_, c->data(), c->cols_);
}

void Matrix::MatMulTransposeBInto(const Matrix& a, const Matrix& b,
                                  Matrix* c) {
  NEURSC_CHECK(a.cols_ == b.cols_) << "matmul B^T shape mismatch";
  NEURSC_CHECK(c->rows_ == a.rows_ && c->cols_ == b.rows_);
  // Pack B^T row-major so the core streams contiguous rows of it. The
  // buffer is per thread and only grows, so the Tape's backward pass
  // allocates nothing here once warm.
  thread_local std::vector<float> packed;
  const size_t k = b.cols_;
  const size_t n = b.rows_;
  if (packed.size() < k * n) packed.resize(k * n);
  for (size_t j = 0; j < n; ++j) {
    const float* brow = b.row(j);
    for (size_t p = 0; p < k; ++p) packed[p * n + j] = brow[p];
  }
  simd::Gemm(a.rows_, k, n, a.data(), a.cols_, 1, packed.data(), n,
             c->data(), c->cols_);
}

float Matrix::Norm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(s));
}

float Matrix::Sum() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return static_cast<float>(s);
}

float Matrix::MaxAbsDiff(const Matrix& a, const Matrix& b) {
  NEURSC_CHECK(a.rows_ == b.rows_ && a.cols_ == b.cols_);
  float m = 0.0f;
  for (size_t i = 0; i < a.data_.size(); ++i) {
    m = std::max(m, std::abs(a.data_[i] - b.data_[i]));
  }
  return m;
}

std::string Matrix::DebugString(int max_rows) const {
  std::ostringstream out;
  out << rows_ << "x" << cols_ << " [";
  for (size_t r = 0; r < rows_ && r < static_cast<size_t>(max_rows); ++r) {
    out << (r == 0 ? "[" : " [");
    for (size_t c = 0; c < cols_ && c < 8; ++c) {
      out << at(r, c) << (c + 1 < cols_ ? ", " : "");
    }
    out << "]";
  }
  if (rows_ > static_cast<size_t>(max_rows)) out << " ...";
  out << "]";
  return out.str();
}

}  // namespace neursc
