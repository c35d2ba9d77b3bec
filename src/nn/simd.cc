#include "nn/simd.h"

#include <cmath>

#if defined(NEURSC_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace neursc {
namespace simd {

namespace scalar {

void Gemm(size_t m, size_t k, size_t n, const float* a, size_t a_row_stride,
          size_t a_col_stride, const float* b, size_t ldb, float* c,
          size_t ldc) {
  if (m == 0 || k == 0 || n == 0) return;
  // i-p-j order: streams over B and C rows. Every C entry receives one
  // addition per p, in p order — the association the AVX2 variant keeps.
  for (size_t i = 0; i < m; ++i) {
    const float* ai = a + i * a_row_stride;
    float* ci = c + i * ldc;
    for (size_t p = 0; p < k; ++p) {
      const float aip = ai[p * a_col_stride];
      const float* bp = b + p * ldb;
      for (size_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

void Add(const float* a, const float* b, float* out, size_t n) {
  for (size_t j = 0; j < n; ++j) out[j] = a[j] + b[j];
}

void AddRowBroadcast(const float* x, const float* bias, float* out,
                     size_t rows, size_t cols) {
  for (size_t r = 0; r < rows; ++r) {
    Add(x + r * cols, bias, out + r * cols, cols);
  }
}

void AddRows(const float* x, size_t rows, size_t cols, float* out) {
  for (size_t r = 0; r < rows; ++r) Add(out, x + r * cols, out, cols);
}

void AddBlock(const float* x, size_t x_stride, size_t rows, size_t cols,
              float* out) {
  for (size_t r = 0; r < rows; ++r) {
    Add(out + r * cols, x + r * x_stride, out + r * cols, cols);
  }
}

void ColBroadcastMul(const float* x, const float* w, float* out, size_t rows,
                     size_t cols) {
  for (size_t r = 0; r < rows; ++r) {
    const float wr = w[r];
    for (size_t c = 0; c < cols; ++c) out[r * cols + c] = x[r * cols + c] * wr;
  }
}

void ScatterAddRows(const float* x, const uint32_t* targets, size_t rows,
                    size_t cols, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    float* orow = out + targets[r] * cols;
    Add(orow, x + r * cols, orow, cols);
  }
}

void Relu(const float* x, float* out, size_t n) {
  for (size_t j = 0; j < n; ++j) out[j] = x[j] < 0.0f ? 0.0f : x[j];
}

void LeakyRelu(const float* x, float slope, float* out, size_t n) {
  for (size_t j = 0; j < n; ++j) out[j] = x[j] > 0.0f ? x[j] : slope * x[j];
}

void AddMul(const float* a, const float* b, float* out, size_t n) {
  for (size_t j = 0; j < n; ++j) out[j] += a[j] * b[j];
}

void AddScaled(const float* x, float s, float* out, size_t n) {
  for (size_t j = 0; j < n; ++j) out[j] += x[j] * s;
}

void AddColBroadcastMul(const float* x, const float* w, float* out,
                        size_t rows, size_t cols) {
  for (size_t r = 0; r < rows; ++r) {
    AddScaled(x + r * cols, w[r], out + r * cols, cols);
  }
}

void Aggregate(const float* x, const uint32_t* src, const uint32_t* dst,
               const float* w, size_t edges, size_t cols, float* out) {
  for (size_t e = 0; e < edges; ++e) {
    float* orow = out + dst[e] * cols;
    const float* xrow = x + src[e] * cols;
    if (w == nullptr) {
      Add(orow, xrow, orow, cols);
    } else {
      AddScaled(xrow, w[e], orow, cols);
    }
  }
}

void AddReluGrad(const float* x, const float* g, float* out, size_t n) {
  for (size_t j = 0; j < n; ++j) out[j] += x[j] <= 0.0f ? 0.0f : g[j];
}

void AddLeakyReluGrad(const float* x, const float* g, float slope,
                      float* out, size_t n) {
  for (size_t j = 0; j < n; ++j) out[j] += x[j] <= 0.0f ? g[j] * slope : g[j];
}

void AdamStep(const float* grad, const AdamCoefficients& coeffs,
              float* value, float* m, float* v, size_t n) {
  const double b1 = coeffs.beta1;
  const double b2 = coeffs.beta2;
  for (size_t j = 0; j < n; ++j) {
    const double g = grad[j];
    const double mj = b1 * m[j] + (1.0 - b1) * g;
    const double vj = b2 * v[j] + (1.0 - b2) * g * g;
    m[j] = static_cast<float>(mj);
    v[j] = static_cast<float>(vj);
    const double m_hat = mj / coeffs.bias1;
    const double v_hat = vj / coeffs.bias2;
    value[j] -= static_cast<float>(coeffs.learning_rate * m_hat /
                                   (std::sqrt(v_hat) + coeffs.epsilon));
  }
}

}  // namespace scalar

#if defined(NEURSC_SIMD_AVX2)
namespace avx2 {

#define NEURSC_AVX2_ __attribute__((target("avx2")))

namespace {

/// out[j] = a[j] + b[j], a as the first operand, as scalar::Add.
NEURSC_AVX2_ inline void AddSpan(const float* a, const float* b, float* out,
                                 size_t n) {
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(out + j, _mm256_add_ps(_mm256_loadu_ps(a + j),
                                            _mm256_loadu_ps(b + j)));
  }
  for (; j < n; ++j) out[j] = a[j] + b[j];
}

/// Columns p..p+3 of eight rows: lane r of col[q] is rows[r][p + q]. Each
/// register holds row i in its low half and row i + 4 in its high half, so
/// in-lane unpacks and shuffles finish the transpose. They move bits, so
/// every value, NaN payloads included, is kept.
NEURSC_AVX2_ inline void LoadColumns8x4(const float* const* rows, size_t p,
                                        __m256* col) {
  __m256 r[4];
  for (size_t i = 0; i < 4; ++i) {
    r[i] = _mm256_insertf128_ps(
        _mm256_castps128_ps256(_mm_loadu_ps(rows[i] + p)),
        _mm_loadu_ps(rows[i + 4] + p), 1);
  }
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  col[0] = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  col[1] = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  col[2] = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  col[3] = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
}

/// Lane r of acc plus sum_p rows[r][p] * v[p * v_stride] for p < k: one
/// mul, then one add, per p, in p order, eight dot products side by side.
NEURSC_AVX2_ inline __m256 AccumulateDots8(const float* const* rows,
                                           size_t k, const float* v,
                                           size_t v_stride, __m256 acc) {
  size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    __m256 col[4];
    LoadColumns8x4(rows, p, col);
    for (size_t q = 0; q < 4; ++q) {
      acc = _mm256_add_ps(
          acc, _mm256_mul_ps(col[q], _mm256_set1_ps(v[(p + q) * v_stride])));
    }
  }
  for (; p < k; ++p) {
    const __m256 column =
        _mm256_setr_ps(rows[0][p], rows[1][p], rows[2][p], rows[3][p],
                       rows[4][p], rows[5][p], rows[6][p], rows[7][p]);
    acc = _mm256_add_ps(acc,
                        _mm256_mul_ps(column, _mm256_set1_ps(v[p * v_stride])));
  }
  return acc;
}

/// The eight entries c[0], c[ldc], ..., c[7 * ldc] of one C column.
NEURSC_AVX2_ inline __m256 LoadColumn8(const float* c, size_t ldc) {
  return _mm256_setr_ps(c[0], c[ldc], c[2 * ldc], c[3 * ldc], c[4 * ldc],
                        c[5 * ldc], c[6 * ldc], c[7 * ldc]);
}

NEURSC_AVX2_ inline void StoreColumn8(__m256 v, float* c, size_t ldc) {
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, v);
  for (size_t r = 0; r < 8; ++r) c[r * ldc] = lanes[r];
}

// The narrow-column kernels below compute C[i0 + r, j] for the columns j
// in [j0, n) past the last 8-wide block, eight rows of C per register:
// lane r of an accumulator holds one entry and receives one mul, then one
// add, per p, in p order. `a` and `c` point at row i0.

/// A transposed (row stride 1): A(i0..i0+7, p) is one load per p. The
/// kBlocks groups of eight rows keep independent accumulators, which hides
/// the latency of the adds (the unroll pragma keeps them in registers).
template <size_t kBlocks>
NEURSC_AVX2_ inline void NarrowColumnsAT(size_t k, const float* a,
                                         size_t a_col_stride, const float* b,
                                         size_t ldb, size_t j0, size_t n,
                                         float* c, size_t ldc) {
  for (size_t j = j0; j < n; ++j) {
    __m256 acc[kBlocks];
    for (size_t r = 0; r < kBlocks; ++r) {
      acc[r] = LoadColumn8(c + 8 * r * ldc + j, ldc);
    }
    for (size_t p = 0; p < k; ++p) {
      const float* ap = a + p * a_col_stride;
      const __m256 bv = _mm256_set1_ps(b[p * ldb + j]);
#pragma GCC unroll 4
      for (size_t r = 0; r < kBlocks; ++r) {
        acc[r] = _mm256_add_ps(
            acc[r], _mm256_mul_ps(_mm256_loadu_ps(ap + 8 * r), bv));
      }
    }
    for (size_t r = 0; r < kBlocks; ++r) {
      StoreColumn8(acc[r], c + 8 * r * ldc + j, ldc);
    }
  }
}

/// A row-major (column stride 1), eight rows: AccumulateDots8 transposes
/// blocks of 8 rows x 4 columns of A in registers, so lane r again holds
/// A(i0 + r, p).
NEURSC_AVX2_ inline void NarrowColumnsA(size_t k, const float* a,
                                        size_t a_row_stride, const float* b,
                                        size_t ldb, size_t j0, size_t n,
                                        float* c, size_t ldc) {
  const float* rows[8];
  for (size_t r = 0; r < 8; ++r) rows[r] = a + r * a_row_stride;
  for (size_t j = j0; j < n; ++j) {
    StoreColumn8(AccumulateDots8(rows, k, b + j, ldb, LoadColumn8(c + j, ldc)),
                 c + j, ldc);
  }
}

/// out[j] = out[j] + x[j] * s, as scalar::AddScaled.
NEURSC_AVX2_ inline void AddScaledSpan(const float* x, float s, float* out,
                                       size_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(x + j), sv);
    _mm256_storeu_ps(out + j, _mm256_add_ps(_mm256_loadu_ps(out + j), prod));
  }
  for (; j < n; ++j) out[j] += x[j] * s;
}

/// Columns [0, 8 kBlocks) of AddRows (x and out point at the block's first
/// column): the block's sums stay in registers across the row loop.
template <size_t kBlocks>
NEURSC_AVX2_ inline void AddRowsBlock(const float* x, size_t rows,
                                      size_t cols, float* out) {
  __m256 acc[kBlocks];
  for (size_t b = 0; b < kBlocks; ++b) acc[b] = _mm256_loadu_ps(out + 8 * b);
  for (size_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
#pragma GCC unroll 4
    for (size_t b = 0; b < kBlocks; ++b) {
      acc[b] = _mm256_add_ps(acc[b], _mm256_loadu_ps(xr + 8 * b));
    }
  }
  for (size_t b = 0; b < kBlocks; ++b) _mm256_storeu_ps(out + 8 * b, acc[b]);
}

}  // namespace

NEURSC_AVX2_ void Gemm(size_t m, size_t k, size_t n, const float* a,
                       size_t a_row_stride, size_t a_col_stride,
                       const float* b, size_t ldb, float* c, size_t ldc) {
  if (m == 0 || k == 0 || n == 0) return;
  const size_t n8 = n - n % 8;
  for (size_t i = 0; i < m; ++i) {
    const float* ai = a + i * a_row_stride;
    float* ci = c + i * ldc;
    size_t j = 0;
    // A 32-column block of the C row stays in four accumulators across the
    // whole p loop: one broadcast and four B loads per p, no C traffic.
    for (; j + 32 <= n8; j += 32) {
      __m256 c0 = _mm256_loadu_ps(ci + j);
      __m256 c1 = _mm256_loadu_ps(ci + j + 8);
      __m256 c2 = _mm256_loadu_ps(ci + j + 16);
      __m256 c3 = _mm256_loadu_ps(ci + j + 24);
      const float* bp = b + j;
      for (size_t p = 0; p < k; ++p, bp += ldb) {
        const __m256 av = _mm256_set1_ps(ai[p * a_col_stride]);
        c0 = _mm256_add_ps(c0, _mm256_mul_ps(av, _mm256_loadu_ps(bp)));
        c1 = _mm256_add_ps(c1, _mm256_mul_ps(av, _mm256_loadu_ps(bp + 8)));
        c2 = _mm256_add_ps(c2, _mm256_mul_ps(av, _mm256_loadu_ps(bp + 16)));
        c3 = _mm256_add_ps(c3, _mm256_mul_ps(av, _mm256_loadu_ps(bp + 24)));
      }
      _mm256_storeu_ps(ci + j, c0);
      _mm256_storeu_ps(ci + j + 8, c1);
      _mm256_storeu_ps(ci + j + 16, c2);
      _mm256_storeu_ps(ci + j + 24, c3);
    }
    for (; j < n8; j += 8) {
      __m256 c0 = _mm256_loadu_ps(ci + j);
      const float* bp = b + j;
      for (size_t p = 0; p < k; ++p, bp += ldb) {
        const __m256 av = _mm256_set1_ps(ai[p * a_col_stride]);
        c0 = _mm256_add_ps(c0, _mm256_mul_ps(av, _mm256_loadu_ps(bp)));
      }
      _mm256_storeu_ps(ci + j, c0);
    }
  }
  if (n8 == n) return;
  // The narrow columns past the last 8-wide block (n = 1 for a matrix
  // times a vector) are vectorised across rows instead; the rows left over
  // run the scalar loop.
  size_t i0 = 0;
  if (a_row_stride == 1) {
    for (; i0 + 32 <= m; i0 += 32) {
      NarrowColumnsAT<4>(k, a + i0, a_col_stride, b, ldb, n8, n,
                         c + i0 * ldc, ldc);
    }
    for (; i0 + 8 <= m; i0 += 8) {
      NarrowColumnsAT<1>(k, a + i0, a_col_stride, b, ldb, n8, n,
                         c + i0 * ldc, ldc);
    }
  } else if (a_col_stride == 1) {
    for (; i0 + 8 <= m; i0 += 8) {
      NarrowColumnsA(k, a + i0 * a_row_stride, a_row_stride, b, ldb, n8, n,
                     c + i0 * ldc, ldc);
    }
  }
  for (size_t i = i0; i < m; ++i) {
    const float* ai = a + i * a_row_stride;
    float* ci = c + i * ldc;
    for (size_t j = n8; j < n; ++j) {
      float cij = ci[j];
      for (size_t p = 0; p < k; ++p) {
        cij += ai[p * a_col_stride] * b[p * ldb + j];
      }
      ci[j] = cij;
    }
  }
}

NEURSC_AVX2_ void Add(const float* a, const float* b, float* out, size_t n) {
  AddSpan(a, b, out, n);
}

NEURSC_AVX2_ void AddRowBroadcast(const float* x, const float* bias,
                                  float* out, size_t rows, size_t cols) {
  for (size_t r = 0; r < rows; ++r) {
    AddSpan(x + r * cols, bias, out + r * cols, cols);
  }
}

// AddRows keeps a block of sums in registers across the whole row loop:
// each entry still takes its terms in row order, one add per term.

NEURSC_AVX2_ void AddRows(const float* x, size_t rows, size_t cols,
                          float* out) {
  size_t j = 0;
  for (; j + 32 <= cols; j += 32) AddRowsBlock<4>(x + j, rows, cols, out + j);
  for (; j + 8 <= cols; j += 8) AddRowsBlock<1>(x + j, rows, cols, out + j);
  for (; j < cols; ++j) {
    float acc = out[j];
    for (size_t r = 0; r < rows; ++r) acc = acc + x[r * cols + j];
    out[j] = acc;
  }
}

NEURSC_AVX2_ void AddBlock(const float* x, size_t x_stride, size_t rows,
                           size_t cols, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    AddSpan(out + r * cols, x + r * x_stride, out + r * cols, cols);
  }
}

NEURSC_AVX2_ void ColBroadcastMul(const float* x, const float* w, float* out,
                                  size_t rows, size_t cols) {
  for (size_t r = 0; r < rows; ++r) {
    const float* xrow = x + r * cols;
    float* orow = out + r * cols;
    const float wr = w[r];
    const __m256 wv = _mm256_set1_ps(wr);
    size_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      _mm256_storeu_ps(orow + c, _mm256_mul_ps(_mm256_loadu_ps(xrow + c), wv));
    }
    for (; c < cols; ++c) orow[c] = xrow[c] * wr;
  }
}

NEURSC_AVX2_ void AddColBroadcastMul(const float* x, const float* w,
                                     float* out, size_t rows, size_t cols) {
  for (size_t r = 0; r < rows; ++r) {
    AddScaledSpan(x + r * cols, w[r], out + r * cols, cols);
  }
}

NEURSC_AVX2_ void ScatterAddRows(const float* x, const uint32_t* targets,
                                 size_t rows, size_t cols, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    float* orow = out + targets[r] * cols;
    AddSpan(orow, x + r * cols, orow, cols);
  }
}

NEURSC_AVX2_ void Aggregate(const float* x, const uint32_t* src,
                            const uint32_t* dst, const float* w, size_t edges,
                            size_t cols, float* out) {
  // Vectorised along the row, one edge at a time, so repeated targets take
  // their additions in edge order.
  for (size_t e = 0; e < edges; ++e) {
    float* orow = out + dst[e] * cols;
    const float* xrow = x + src[e] * cols;
    if (w == nullptr) {
      AddSpan(orow, xrow, orow, cols);
    } else {
      AddScaledSpan(xrow, w[e], orow, cols);
    }
  }
}

NEURSC_AVX2_ void Relu(const float* x, float* out, size_t n) {
  // max_ps returns its second operand when the operands compare equal or
  // either is NaN, so (zero, x) maps -0.0 to -0.0 and NaN to itself,
  // exactly as `x < 0 ? 0 : x`. GCC and Clang keep the operand order of
  // this intrinsic because max is not commutative under IEEE rules.
  const __m256 zero = _mm256_setzero_ps();
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(out + j, _mm256_max_ps(zero, _mm256_loadu_ps(x + j)));
  }
  for (; j < n; ++j) out[j] = x[j] < 0.0f ? 0.0f : x[j];
}

NEURSC_AVX2_ void LeakyRelu(const float* x, float slope, float* out,
                            size_t n) {
  // _CMP_GT_OQ is false for NaN, which then takes slope * x as the scalar
  // ternary does.
  const __m256 zero = _mm256_setzero_ps();
  const __m256 sv = _mm256_set1_ps(slope);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 xv = _mm256_loadu_ps(x + j);
    const __m256 pos = _mm256_cmp_ps(xv, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(out + j,
                     _mm256_blendv_ps(_mm256_mul_ps(sv, xv), xv, pos));
  }
  scalar::LeakyRelu(x + j, slope, out + j, n - j);
}

NEURSC_AVX2_ void AddMul(const float* a, const float* b, float* out,
                         size_t n) {
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 prod =
        _mm256_mul_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j));
    _mm256_storeu_ps(out + j, _mm256_add_ps(_mm256_loadu_ps(out + j), prod));
  }
  scalar::AddMul(a + j, b + j, out + j, n - j);
}

NEURSC_AVX2_ void AddScaled(const float* x, float s, float* out, size_t n) {
  AddScaledSpan(x, s, out, n);
}

// The gradient masks: _CMP_LE_OQ is false for NaN, so a NaN input passes
// the gradient through as `x <= 0 ? ... : g` does, and a masked entry still
// receives its add of +0.0 (which turns a -0.0 gradient into +0.0).

NEURSC_AVX2_ void AddReluGrad(const float* x, const float* g, float* out,
                              size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 off =
        _mm256_cmp_ps(_mm256_loadu_ps(x + j), zero, _CMP_LE_OQ);
    const __m256 d = _mm256_andnot_ps(off, _mm256_loadu_ps(g + j));
    _mm256_storeu_ps(out + j, _mm256_add_ps(_mm256_loadu_ps(out + j), d));
  }
  scalar::AddReluGrad(x + j, g + j, out + j, n - j);
}

NEURSC_AVX2_ void AddLeakyReluGrad(const float* x, const float* g,
                                   float slope, float* out, size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 sv = _mm256_set1_ps(slope);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 off =
        _mm256_cmp_ps(_mm256_loadu_ps(x + j), zero, _CMP_LE_OQ);
    const __m256 gv = _mm256_loadu_ps(g + j);
    const __m256 d = _mm256_blendv_ps(gv, _mm256_mul_ps(gv, sv), off);
    _mm256_storeu_ps(out + j, _mm256_add_ps(_mm256_loadu_ps(out + j), d));
  }
  scalar::AddLeakyReluGrad(x + j, g + j, slope, out + j, n - j);
}

NEURSC_AVX2_ void AdamStep(const float* grad, const AdamCoefficients& coeffs,
                           float* value, float* m, float* v, size_t n) {
  // Four double lanes. The float -> double conversions are exact, and
  // mul, div, sqrt and the double -> float conversions round to nearest in
  // every lane, as the scalar operations and casts do.
  const __m256d b1 = _mm256_set1_pd(coeffs.beta1);
  const __m256d b2 = _mm256_set1_pd(coeffs.beta2);
  const __m256d one_b1 = _mm256_set1_pd(1.0 - coeffs.beta1);
  const __m256d one_b2 = _mm256_set1_pd(1.0 - coeffs.beta2);
  const __m256d bias1 = _mm256_set1_pd(coeffs.bias1);
  const __m256d bias2 = _mm256_set1_pd(coeffs.bias2);
  const __m256d lr = _mm256_set1_pd(coeffs.learning_rate);
  const __m256d eps = _mm256_set1_pd(coeffs.epsilon);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d g = _mm256_cvtps_pd(_mm_loadu_ps(grad + j));
    const __m256d mj =
        _mm256_add_pd(_mm256_mul_pd(b1, _mm256_cvtps_pd(_mm_loadu_ps(m + j))),
                      _mm256_mul_pd(one_b1, g));
    const __m256d vj = _mm256_add_pd(
        _mm256_mul_pd(b2, _mm256_cvtps_pd(_mm_loadu_ps(v + j))),
        _mm256_mul_pd(_mm256_mul_pd(one_b2, g), g));
    _mm_storeu_ps(m + j, _mm256_cvtpd_ps(mj));
    _mm_storeu_ps(v + j, _mm256_cvtpd_ps(vj));
    const __m256d m_hat = _mm256_div_pd(mj, bias1);
    const __m256d v_hat = _mm256_div_pd(vj, bias2);
    const __m256d step =
        _mm256_div_pd(_mm256_mul_pd(lr, m_hat),
                      _mm256_add_pd(_mm256_sqrt_pd(v_hat), eps));
    _mm_storeu_ps(value + j, _mm_sub_ps(_mm_loadu_ps(value + j),
                                        _mm256_cvtpd_ps(step)));
  }
  scalar::AdamStep(grad + j, coeffs, value + j, m + j, v + j, n - j);
}

#undef NEURSC_AVX2_

}  // namespace avx2
#endif  // NEURSC_SIMD_AVX2

bool UsesAvx2() {
#if defined(NEURSC_SIMD_AVX2)
  // A function-local static is initialised on first use, never before
  // libgcc's CPU-detection constructor has run; __builtin_cpu_init() makes
  // that explicit for a first use from another static initialiser.
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
#else
  return false;
#endif
}

#if defined(NEURSC_SIMD_AVX2)
#define NEURSC_DISPATCH_(fn, ...) \
  (UsesAvx2() ? avx2::fn(__VA_ARGS__) : scalar::fn(__VA_ARGS__))
#else
#define NEURSC_DISPATCH_(fn, ...) scalar::fn(__VA_ARGS__)
#endif

void Gemm(size_t m, size_t k, size_t n, const float* a, size_t a_row_stride,
          size_t a_col_stride, const float* b, size_t ldb, float* c,
          size_t ldc) {
  NEURSC_DISPATCH_(Gemm, m, k, n, a, a_row_stride, a_col_stride, b, ldb, c,
                   ldc);
}

void Add(const float* a, const float* b, float* out, size_t n) {
  NEURSC_DISPATCH_(Add, a, b, out, n);
}

void AddRowBroadcast(const float* x, const float* bias, float* out,
                     size_t rows, size_t cols) {
  NEURSC_DISPATCH_(AddRowBroadcast, x, bias, out, rows, cols);
}

void AddRows(const float* x, size_t rows, size_t cols, float* out) {
  NEURSC_DISPATCH_(AddRows, x, rows, cols, out);
}

void AddBlock(const float* x, size_t x_stride, size_t rows, size_t cols,
              float* out) {
  NEURSC_DISPATCH_(AddBlock, x, x_stride, rows, cols, out);
}

void ColBroadcastMul(const float* x, const float* w, float* out, size_t rows,
                     size_t cols) {
  NEURSC_DISPATCH_(ColBroadcastMul, x, w, out, rows, cols);
}

void AddColBroadcastMul(const float* x, const float* w, float* out,
                        size_t rows, size_t cols) {
  NEURSC_DISPATCH_(AddColBroadcastMul, x, w, out, rows, cols);
}

void ScatterAddRows(const float* x, const uint32_t* targets, size_t rows,
                    size_t cols, float* out) {
  NEURSC_DISPATCH_(ScatterAddRows, x, targets, rows, cols, out);
}

void Aggregate(const float* x, const uint32_t* src, const uint32_t* dst,
               const float* w, size_t edges, size_t cols, float* out) {
  NEURSC_DISPATCH_(Aggregate, x, src, dst, w, edges, cols, out);
}

void Relu(const float* x, float* out, size_t n) {
  NEURSC_DISPATCH_(Relu, x, out, n);
}

void LeakyRelu(const float* x, float slope, float* out, size_t n) {
  NEURSC_DISPATCH_(LeakyRelu, x, slope, out, n);
}

void AddMul(const float* a, const float* b, float* out, size_t n) {
  NEURSC_DISPATCH_(AddMul, a, b, out, n);
}

void AddScaled(const float* x, float s, float* out, size_t n) {
  NEURSC_DISPATCH_(AddScaled, x, s, out, n);
}

void AddReluGrad(const float* x, const float* g, float* out, size_t n) {
  NEURSC_DISPATCH_(AddReluGrad, x, g, out, n);
}

void AddLeakyReluGrad(const float* x, const float* g, float slope,
                      float* out, size_t n) {
  NEURSC_DISPATCH_(AddLeakyReluGrad, x, g, slope, out, n);
}

void AdamStep(const float* grad, const AdamCoefficients& coeffs,
              float* value, float* m, float* v, size_t n) {
  NEURSC_DISPATCH_(AdamStep, grad, coeffs, value, m, v, n);
}

#undef NEURSC_DISPATCH_

}  // namespace simd
}  // namespace neursc
