#include "nn/simd.h"

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

}  // namespace

NEURSC_AVX2_ void Gemm(size_t m, size_t k, size_t n, const float* a,
                       size_t a_row_stride, size_t a_col_stride,
                       const float* b, size_t ldb, float* c, size_t ldc) {
  if (m == 0 || k == 0 || n == 0) return;
  for (size_t i = 0; i < m; ++i) {
    const float* ai = a + i * a_row_stride;
    float* ci = c + i * ldc;
    size_t j = 0;
    // A 32-column block of the C row stays in four accumulators across the
    // whole p loop: one broadcast and four B loads per p, no C traffic.
    for (; j + 32 <= n; j += 32) {
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
    for (; j + 8 <= n; j += 8) {
      __m256 c0 = _mm256_loadu_ps(ci + j);
      const float* bp = b + j;
      for (size_t p = 0; p < k; ++p, bp += ldb) {
        const __m256 av = _mm256_set1_ps(ai[p * a_col_stride]);
        c0 = _mm256_add_ps(c0, _mm256_mul_ps(av, _mm256_loadu_ps(bp)));
      }
      _mm256_storeu_ps(ci + j, c0);
    }
    for (; j < n; ++j) {
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

NEURSC_AVX2_ void ScatterAddRows(const float* x, const uint32_t* targets,
                                 size_t rows, size_t cols, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    float* orow = out + targets[r] * cols;
    AddSpan(orow, x + r * cols, orow, cols);
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

void ColBroadcastMul(const float* x, const float* w, float* out, size_t rows,
                     size_t cols) {
  NEURSC_DISPATCH_(ColBroadcastMul, x, w, out, rows, cols);
}

void ScatterAddRows(const float* x, const uint32_t* targets, size_t rows,
                    size_t cols, float* out) {
  NEURSC_DISPATCH_(ScatterAddRows, x, targets, rows, cols, out);
}

void Relu(const float* x, float* out, size_t n) {
  NEURSC_DISPATCH_(Relu, x, out, n);
}

#undef NEURSC_DISPATCH_

}  // namespace simd
}  // namespace neursc
