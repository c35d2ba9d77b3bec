#ifndef NEURSC_NN_SIMD_H_
#define NEURSC_NN_SIMD_H_

// Vectorised kernels behind Matrix's GEMMs, the Tape's hot forward row
// ops, message passing and backward accumulation, and the Adam update
// (docs/execution.md, "Vectorized kernels"). Internal to the nn library: model code calls
// Matrix / Tape / AdamOptimizer, never this header; the kernel equivalence
// test includes it to compare the variants directly.
//
// Every kernel exists twice, in `scalar::` and `avx2::`, with the same
// per-entry arithmetic: the AVX2 variant vectorises only across
// independent outputs, never across a reduction index, and uses a
// multiply followed by an add (never FMA). Both therefore produce
// bit-identical results, and the unqualified `simd::` entry points may
// pick either at run time. They pick AVX2 whenever the CPU supports it;
// there is no other switch.
//
// The AVX2 variants are compiled with __attribute__((target("avx2"))), so
// the build flags stay the same. They exist only on x86-64 GCC/Clang
// builds (NEURSC_SIMD_AVX2); everywhere else the dispatched entry points
// call the scalar variants.

#include <cstddef>
#include <cstdint>

#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define NEURSC_SIMD_AVX2 1
#endif

namespace neursc {
namespace simd {

/// The per-step constants of one Adam update (AdamOptimizer::Step):
/// bias1 = 1 - beta1^t and bias2 = 1 - beta2^t at step t.
struct AdamCoefficients {
  double beta1 = 0.0;
  double beta2 = 0.0;
  double bias1 = 0.0;
  double bias2 = 0.0;
  double learning_rate = 0.0;
  double epsilon = 0.0;
};

/// Kernel signatures, shared by all three namespaces below.
///
/// Gemm: C[i, :] += sum_p A(i, p) * B[p, :] for i < m, p < k, over n
///   columns, accumulating in p order. A(i, p) = a[i * a_row_stride +
///   p * a_col_stride], so one core serves A and A^T; B and C are
///   row-major with leading dimensions ldb and ldc.
/// Add: out[j] = a[j] + b[j]; `out` may alias `a` or `b`.
/// AddRowBroadcast: out[r, :] = x[r, :] + bias[:] over a rows x cols block;
///   `out` may alias `x`.
/// AddRows: out[:] = out[:] + x[r, :] for r < rows, in row order: the
///   column sums of a rows x cols block, accumulated onto out.
/// AddBlock: out[r, c] = out[r, c] + x[r * x_stride + c] for r < rows and
///   c < cols; out is row-major with `cols` columns.
/// ColBroadcastMul: out[r, :] = x[r, :] * w[r].
/// AddColBroadcastMul: out[r, :] = out[r, :] + x[r, :] * w[r].
/// ScatterAddRows: out[targets[r], :] = out[targets[r], :] + x[r, :], in
///   row order; every target must be in range (the caller checks).
/// EdgeScores: out[e] = sum_p x[dst[e], p] * a[p] + sum_p x[src[e], p] *
///   a[cols + p] for e < edges: one float accumulator per edge, from 0, one
///   multiply then one add per term, the dst terms first, each in p order.
///   x is row-major with `cols` columns; every index must be in range.
/// EdgeScoresBackward: EdgeScores' input gradients for the output
///   gradient g (one entry per edge). When a_grad is not null, for e <
///   edges in order, a_grad[p] = a_grad[p] + x[dst[e], p] * g[e] and
///   a_grad[cols + p] = a_grad[cols + p] + x[src[e], p] * g[e]. Then, when
///   x_grad is not null, x_grad[src[e], :] = x_grad[src[e], :] + a[cols,
///   2 cols) * g[e] for e in order, and then x_grad[dst[e], :] =
///   x_grad[dst[e], :] + a[0, cols) * g[e] for e in order.
/// Aggregate: for e < edges in order, out[dst[e], :] = out[dst[e], :] +
///   x[src[e], :] * w[e], or out[dst[e], :] + x[src[e], :] when w is null;
///   every index must be in range.
/// Relu: out[j] = x[j] < 0 ? 0 : x[j] (keeps -0.0 and NaN as they are).
/// LeakyRelu: out[j] = x[j] > 0 ? x[j] : slope * x[j].
/// AddMul: out[j] = out[j] + a[j] * b[j].
/// AddScaled: out[j] = out[j] + x[j] * s.
/// AddReluGrad: out[j] = out[j] + (x[j] <= 0 ? 0 : g[j]).
/// AddLeakyReluGrad: out[j] = out[j] + (x[j] <= 0 ? g[j] * slope : g[j]).
/// AdamStep: for each j, in double, m' = beta1 * m + (1 - beta1) * g and
///   v' = beta2 * v + (1 - beta2) * g * g; m[j] and v[j] take m' and v'
///   rounded to float, and value[j] -= float(lr * (m' / bias1) /
///   (sqrt(v' / bias2) + epsilon)).
#define NEURSC_SIMD_KERNELS_                                                 \
  void Gemm(size_t m, size_t k, size_t n, const float* a,                   \
            size_t a_row_stride, size_t a_col_stride, const float* b,       \
            size_t ldb, float* c, size_t ldc);                              \
  void Add(const float* a, const float* b, float* out, size_t n);           \
  void AddRowBroadcast(const float* x, const float* bias, float* out,       \
                       size_t rows, size_t cols);                           \
  void AddRows(const float* x, size_t rows, size_t cols, float* out);       \
  void AddBlock(const float* x, size_t x_stride, size_t rows, size_t cols,  \
                float* out);                                                \
  void ColBroadcastMul(const float* x, const float* w, float* out,          \
                       size_t rows, size_t cols);                           \
  void AddColBroadcastMul(const float* x, const float* w, float* out,       \
                          size_t rows, size_t cols);                        \
  void ScatterAddRows(const float* x, const uint32_t* targets, size_t rows, \
                      size_t cols, float* out);                             \
  void EdgeScores(const float* x, const float* a, const uint32_t* src,      \
                  const uint32_t* dst, size_t edges, size_t cols,           \
                  float* out);                                              \
  void EdgeScoresBackward(const float* x, const float* a, const float* g,   \
                          const uint32_t* src, const uint32_t* dst,         \
                          size_t edges, size_t cols, float* a_grad,         \
                          float* x_grad);                                   \
  void Aggregate(const float* x, const uint32_t* src, const uint32_t* dst,  \
                 const float* w, size_t edges, size_t cols, float* out);    \
  void Relu(const float* x, float* out, size_t n);                          \
  void LeakyRelu(const float* x, float slope, float* out, size_t n);        \
  void AddMul(const float* a, const float* b, float* out, size_t n);        \
  void AddScaled(const float* x, float s, float* out, size_t n);            \
  void AddReluGrad(const float* x, const float* g, float* out, size_t n);   \
  void AddLeakyReluGrad(const float* x, const float* g, float slope,        \
                        float* out, size_t n);                              \
  void AdamStep(const float* grad, const AdamCoefficients& coeffs,          \
                float* value, float* m, float* v, size_t n);

namespace scalar {
NEURSC_SIMD_KERNELS_
}  // namespace scalar

#if defined(NEURSC_SIMD_AVX2)
namespace avx2 {
NEURSC_SIMD_KERNELS_
}  // namespace avx2
#endif

/// Dispatched entry points: the AVX2 variant when the CPU has AVX2.
NEURSC_SIMD_KERNELS_

#undef NEURSC_SIMD_KERNELS_

/// True iff the dispatched entry points run the AVX2 variants. Decided once
/// per process, on first use.
bool UsesAvx2();

}  // namespace simd
}  // namespace neursc

#endif  // NEURSC_NN_SIMD_H_
