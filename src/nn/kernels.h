#ifndef NEURSC_NN_KERNELS_H_
#define NEURSC_NN_KERNELS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "nn/matrix.h"
#include "nn/simd.h"

namespace neursc {
namespace fwd {

/// Forward kernels of the nn op vocabulary: the Tape (tape.cc) computes
/// every op's forward value by calling these functions, so there is
/// exactly one definition of each op's arithmetic and evaluation order.
/// tests/golden_output_test.cc pins the floats they produce.
///
/// Convention: `out` is pre-shaped by the caller. Kernels that accumulate
/// (MatMul via Matrix::MatMulInto, ScatterAddRows, SumRows) additionally
/// require `out` zero-filled; the others overwrite every entry.
///
/// Add, AddRowBroadcast, Relu, ScatterAddRows and ColBroadcastMul run on
/// the dispatched nn/simd.h kernels, whose scalar and AVX2 variants give
/// bit-identical results (docs/execution.md, "Vectorized kernels").

inline void Copy(const Matrix& a, Matrix* out) {
  NEURSC_CHECK(out->rows() == a.rows() && out->cols() == a.cols());
  std::copy(a.data(), a.data() + a.size(), out->data());
}

inline void Add(const Matrix& a, const Matrix& b, Matrix* out) {
  NEURSC_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  simd::Add(a.data(), b.data(), out->data(), a.size());
}

/// x (n x d) plus bias (1 x d) broadcast over rows.
inline void AddRowBroadcast(const Matrix& x, const Matrix& bias,
                            Matrix* out) {
  NEURSC_CHECK(bias.rows() == 1 && bias.cols() == x.cols());
  simd::AddRowBroadcast(x.data(), bias.data(), out->data(), x.rows(),
                        x.cols());
}

inline void Sub(const Matrix& a, const Matrix& b, Matrix* out) {
  NEURSC_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  for (size_t i = 0; i < a.size(); ++i) {
    out->data()[i] = a.data()[i] - b.data()[i];
  }
}

inline void Mul(const Matrix& a, const Matrix& b, Matrix* out) {
  NEURSC_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  for (size_t i = 0; i < a.size(); ++i) {
    out->data()[i] = a.data()[i] * b.data()[i];
  }
}

inline void Scale(const Matrix& a, float s, Matrix* out) {
  for (size_t i = 0; i < a.size(); ++i) out->data()[i] = a.data()[i] * s;
}

inline void Relu(const Matrix& a, Matrix* out) {
  simd::Relu(a.data(), out->data(), a.size());
}

inline void LeakyRelu(const Matrix& a, float negative_slope, Matrix* out) {
  for (size_t i = 0; i < a.size(); ++i) {
    float x = a.data()[i];
    out->data()[i] = x > 0.0f ? x : negative_slope * x;
  }
}

inline void Sigmoid(const Matrix& a, Matrix* out) {
  for (size_t i = 0; i < a.size(); ++i) {
    out->data()[i] = 1.0f / (1.0f + std::exp(-a.data()[i]));
  }
}

inline void Tanh(const Matrix& a, Matrix* out) {
  for (size_t i = 0; i < a.size(); ++i) {
    out->data()[i] = std::tanh(a.data()[i]);
  }
}

/// exp() with input clamped to [-30, 30] for numeric safety.
inline void Exp(const Matrix& a, Matrix* out) {
  for (size_t i = 0; i < a.size(); ++i) {
    out->data()[i] = std::exp(std::clamp(a.data()[i], -30.0f, 30.0f));
  }
}

/// Natural log with the input floored at 1e-12.
inline void Log(const Matrix& a, Matrix* out) {
  for (size_t i = 0; i < a.size(); ++i) {
    out->data()[i] = std::log(std::max(a.data()[i], 1e-12f));
  }
}

/// Row-wise softmax with per-row max subtraction; the exp sum accumulates
/// in double.
inline void RowSoftmax(const Matrix& x, Matrix* out) {
  for (size_t r = 0; r < x.rows(); ++r) {
    const float* xrow = x.row(r);
    float* orow = out->row(r);
    float mx = xrow[0];
    for (size_t c = 1; c < x.cols(); ++c) mx = std::max(mx, xrow[c]);
    double sum = 0.0;
    for (size_t c = 0; c < x.cols(); ++c) {
      orow[c] = std::exp(xrow[c] - mx);
      sum += orow[c];
    }
    float inv = static_cast<float>(1.0 / std::max(sum, 1e-30));
    for (size_t c = 0; c < x.cols(); ++c) orow[c] *= inv;
  }
}

inline void ConcatCols(const Matrix& a, const Matrix& b, Matrix* out) {
  NEURSC_CHECK(a.rows() == b.rows());
  for (size_t r = 0; r < a.rows(); ++r) {
    std::copy(a.row(r), a.row(r) + a.cols(), out->row(r));
    std::copy(b.row(r), b.row(r) + b.cols(), out->row(r) + a.cols());
  }
}

inline void ConcatRows(const std::vector<const Matrix*>& parts,
                       Matrix* out) {
  size_t row = 0;
  for (const Matrix* p : parts) {
    NEURSC_CHECK(p->cols() == out->cols());
    std::copy(p->data(), p->data() + p->size(), out->row(row));
    row += p->rows();
  }
  NEURSC_CHECK(row == out->rows());
}

inline void GatherRows(const Matrix& x, const std::vector<uint32_t>& rows,
                       Matrix* out) {
  for (size_t i = 0; i < rows.size(); ++i) {
    NEURSC_CHECK(rows[i] < x.rows());
    std::copy(x.row(rows[i]), x.row(rows[i]) + x.cols(), out->row(i));
  }
}

/// out[targets[i]] += x[i]; `out` must be zero-filled.
inline void ScatterAddRows(const Matrix& x,
                           const std::vector<uint32_t>& targets,
                           Matrix* out) {
  NEURSC_CHECK(targets.size() == x.rows());
  for (uint32_t t : targets) NEURSC_CHECK(t < out->rows());
  simd::ScatterAddRows(x.data(), targets.data(), x.rows(), x.cols(),
                       out->data());
}

/// Per-segment softmax of a column vector, max-subtracted, exp sums in
/// double. `seg_max`/`seg_sum` are caller scratch (resized here) so a
/// reused tape pays no steady-state allocation.
inline void SegmentSoftmax(const Matrix& x,
                           const std::vector<uint32_t>& segments,
                           size_t num_segments, Matrix* out,
                           std::vector<float>* seg_max,
                           std::vector<double>* seg_sum) {
  NEURSC_CHECK(x.cols() == 1 && segments.size() == x.rows());
  seg_max->assign(num_segments, -1e30f);
  for (size_t i = 0; i < segments.size(); ++i) {
    NEURSC_CHECK(segments[i] < num_segments);
    (*seg_max)[segments[i]] =
        std::max((*seg_max)[segments[i]], x.at(i, 0));
  }
  seg_sum->assign(num_segments, 0.0);
  for (size_t i = 0; i < segments.size(); ++i) {
    float e = std::exp(x.at(i, 0) - (*seg_max)[segments[i]]);
    out->at(i, 0) = e;
    (*seg_sum)[segments[i]] += e;
  }
  for (size_t i = 0; i < segments.size(); ++i) {
    out->at(i, 0) = static_cast<float>(
        out->at(i, 0) / std::max((*seg_sum)[segments[i]], 1e-30));
  }
}

/// Multiplies row i of x (m x d) by scalar w[i] (w is m x 1).
inline void ColBroadcastMul(const Matrix& x, const Matrix& w, Matrix* out) {
  NEURSC_CHECK(w.cols() == 1 && w.rows() == x.rows());
  simd::ColBroadcastMul(x.data(), w.data(), out->data(), x.rows(), x.cols());
}

/// Column-wise sum, accumulating in row order; `out` (1 x d) must be
/// zero-filled.
inline void SumRows(const Matrix& x, Matrix* out) {
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) out->at(0, c) += x.at(r, c);
  }
}

inline void ReduceSum(const Matrix& x, Matrix* out) {
  out->at(0, 0) = x.Sum();
}

/// The q-error forward pieces (Eq. 10). `under`/`over` select the branch
/// whose derivative the Tape records for Backward.
struct QErrorParts {
  double c = 0.0;
  double under = 0.0;
  double over = 0.0;
  float loss = 0.0f;
};

inline QErrorParts QError(double c_hat, double target, double eps) {
  QErrorParts parts;
  parts.c = std::max(target, 1.0);
  parts.under = parts.c / (c_hat + eps);  // penalizes underestimation
  parts.over = c_hat / parts.c;           // penalizes overestimation
  parts.loss = static_cast<float>(std::max(parts.under, parts.over));
  return parts;
}

}  // namespace fwd
}  // namespace neursc

#endif  // NEURSC_NN_KERNELS_H_
