#ifndef NEURSC_NN_MATRIX_H_
#define NEURSC_NN_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace neursc {

/// A dense row-major float matrix. This is the storage type of the neural
/// substrate; all differentiable operations live on the autograd Tape
/// (tape.h), Matrix itself only provides raw numerics.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix Zeros(size_t rows, size_t cols) { return Matrix(rows, cols); }
  static Matrix Ones(size_t rows, size_t cols) {
    return Matrix(rows, cols, 1.0f);
  }
  /// Glorot/Xavier uniform initialization: U(-s, s), s = sqrt(6/(in+out)).
  static Matrix GlorotUniform(size_t rows, size_t cols, Rng* rng);
  /// Entries drawn uniformly from [lo, hi).
  static Matrix Uniform(size_t rows, size_t cols, float lo, float hi,
                        Rng* rng);
  /// 1x1 matrix holding a scalar.
  static Matrix Scalar(float v) {
    Matrix m(1, 1);
    m.data_[0] = v;
    return m;
  }
  /// Builds from nested initializer data (row-major), for tests.
  static Matrix FromRows(const std::vector<std::vector<float>>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  /// Allocated float capacity (>= size()). Exposed for the Tape's
  /// arena accounting: Reshape() only touches the heap when the new size
  /// exceeds this.
  size_t capacity() const { return data_.capacity(); }

  /// Repurposes this matrix as a zero-filled (rows x cols) buffer, reusing
  /// the existing allocation whenever its capacity suffices. The workspace
  /// primitive behind the Tape's slot reuse.
  void Reshape(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0f);
  }

  float& at(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float at(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  float* row(size_t r) { return data_.data() + r * cols_; }
  const float* row(size_t r) const { return data_.data() + r * cols_; }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Scalar accessor; matrix must be 1x1.
  float scalar() const;

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// this += other (same shape).
  void AddInPlace(const Matrix& other);
  /// this *= alpha.
  void ScaleInPlace(float alpha);
  /// Clamps every entry into [-limit, limit] (WGAN weight clipping).
  void ClampInPlace(float limit);

  /// C = A * B. Shapes must agree ([m,k] x [k,n]).
  static Matrix MatMul(const Matrix& a, const Matrix& b);
  /// C += A * B into a caller-owned, pre-shaped, zero-filled `c`
  /// ([m,n]). MatMul() is a thin wrapper; both share one kernel, so the
  /// allocating and workspace-reusing paths are bit-identical.
  static void MatMulInto(const Matrix& a, const Matrix& b, Matrix* c);
  /// C = A^T * B ([k,m]^T x [k,n] -> [m,n]).
  static Matrix MatMulTransposeA(const Matrix& a, const Matrix& b);
  /// C = A * B^T ([m,k] x [n,k]^T -> [m,n]).
  static Matrix MatMulTransposeB(const Matrix& a, const Matrix& b);
  /// C += A^T * B and C += A * B^T into a pre-shaped, zero-filled `c`;
  /// the allocating forms above wrap them.
  static void MatMulTransposeAInto(const Matrix& a, const Matrix& b,
                                   Matrix* c);
  static void MatMulTransposeBInto(const Matrix& a, const Matrix& b,
                                   Matrix* c);

  /// Frobenius norm.
  float Norm() const;
  /// Sum of all entries.
  float Sum() const;

  /// Max |a-b| over entries; shapes must match.
  static float MaxAbsDiff(const Matrix& a, const Matrix& b);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace neursc

#endif  // NEURSC_NN_MATRIX_H_
