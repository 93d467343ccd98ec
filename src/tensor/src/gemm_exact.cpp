// The exact training GEMM: out = op(A) * op(B) with every output element
// computed the way gemm_naive computes it — start at 0.0, then for p
// ascending one rounded multiply and one rounded add, never a fused
// multiply-add — so the result is bit-identical to gemm_naive on the
// materialized transposes, on every path.
//
// The AVX2 kernel below carries __attribute__((target("avx2"))) and is
// compiled without FMA (this TU gets no -mfma, and the library builds with
// -ffp-contract=off), so _mm256_add_pd(_mm256_mul_pd(..)) cannot be
// contracted into an FMA behind our back.  It runs 4-lane column strips
// over j, up to 8 rows per strip with the accumulators resident in ymm
// registers across the whole k extent; the 1-3 column tail is a masked
// strip.  op(A) is read through a (row, column) stride pair, so A^T costs
// nothing; op(B) = B^T is packed once per call into a thread-local
// row-major panel so every strip reads B contiguously.
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "le/tensor/ops.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LE_EXACT_AVX2 __attribute__((target("avx2")))
#endif

namespace le::tensor {

namespace {

/// op(A)'s and op(B)'s (rows x cols) for one layout.
struct ExactShape {
  std::size_t m, k, n;
};

ExactShape check_exact_shapes(const Matrix& a, const Matrix& b,
                              const Matrix& out, GemmOp op) {
  const bool ta = op == GemmOp::kTN, tb = op == GemmOp::kNT;
  const std::size_t m = ta ? a.cols() : a.rows();
  const std::size_t k = ta ? a.rows() : a.cols();
  const std::size_t kb = tb ? b.cols() : b.rows();
  const std::size_t n = tb ? b.rows() : b.cols();
  if (k != kb || out.rows() != m || out.cols() != n) {
    throw std::invalid_argument("gemm_exact: shape mismatch");
  }
  if (&out == &a || &out == &b) {
    throw std::invalid_argument("gemm_exact: out must not alias an input");
  }
  return {m, k, n};
}

#if defined(LE_EXACT_AVX2)

// out[R rows][4 lanes] = sum_p opA(i, p) * B[p, lanes], each product and
// each partial sum rounded separately, p ascending from a 0.0 start.
// kMasked loads and stores only the lanes set in `mask`.
template <std::size_t R, bool kMasked>
LE_EXACT_AVX2 inline void exact_tile(const double* a, std::size_t a_rs,
                                     std::size_t a_cs, const double* b,
                                     std::size_t ldb, double* c,
                                     std::size_t ldc, std::size_t k,
                                     __m256i mask) {
  __m256d acc[R];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) acc[r] = _mm256_setzero_pd();
  for (std::size_t p = 0; p < k; ++p) {
    __m256d b0;
    if constexpr (kMasked) {
      b0 = _mm256_maskload_pd(b + p * ldb, mask);
    } else {
      b0 = _mm256_loadu_pd(b + p * ldb);
    }
    const double* ap = a + p * a_cs;
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      acc[r] = _mm256_add_pd(
          acc[r], _mm256_mul_pd(_mm256_broadcast_sd(ap + r * a_rs), b0));
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    if constexpr (kMasked) {
      _mm256_maskstore_pd(c + r * ldc, mask, acc[r]);
    } else {
      _mm256_storeu_pd(c + r * ldc, acc[r]);
    }
  }
}

// One 4-lane column strip over all m rows: 8-row tiles (eight independent
// add chains hide the add latency), then one tile for the 1-7 left over.
template <bool kMasked>
LE_EXACT_AVX2 void exact_strip(const double* a, std::size_t a_rs,
                               std::size_t a_cs, const double* b,
                               std::size_t ldb, double* c, std::size_t ldc,
                               std::size_t m, std::size_t k, __m256i mask) {
  std::size_t r = 0;
  for (; r + 8 <= m; r += 8) {
    exact_tile<8, kMasked>(a + r * a_rs, a_rs, a_cs, b, ldb, c + r * ldc, ldc,
                           k, mask);
  }
  a += r * a_rs;
  c += r * ldc;
  switch (m - r) {
    case 7: exact_tile<7, kMasked>(a, a_rs, a_cs, b, ldb, c, ldc, k, mask); break;
    case 6: exact_tile<6, kMasked>(a, a_rs, a_cs, b, ldb, c, ldc, k, mask); break;
    case 5: exact_tile<5, kMasked>(a, a_rs, a_cs, b, ldb, c, ldc, k, mask); break;
    case 4: exact_tile<4, kMasked>(a, a_rs, a_cs, b, ldb, c, ldc, k, mask); break;
    case 3: exact_tile<3, kMasked>(a, a_rs, a_cs, b, ldb, c, ldc, k, mask); break;
    case 2: exact_tile<2, kMasked>(a, a_rs, a_cs, b, ldb, c, ldc, k, mask); break;
    case 1: exact_tile<1, kMasked>(a, a_rs, a_cs, b, ldb, c, ldc, k, mask); break;
    default: break;
  }
}

// Lane mask with the low `live` (1-4) lanes set: maskload/maskstore test
// each 64-bit lane's sign bit.
LE_EXACT_AVX2 inline __m256i exact_lane_mask(std::size_t live) {
  const __m256i lanes = _mm256_setr_epi64x(0, 1, 2, 3);
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(live)),
                            lanes);
}

LE_EXACT_AVX2 void exact_avx2(const double* a, std::size_t a_rs,
                              std::size_t a_cs, const double* b, double* c,
                              const ExactShape& s) {
  const __m256i all_lanes = exact_lane_mask(4);
  std::size_t j = 0;
  for (; j + 4 <= s.n; j += 4) {
    exact_strip<false>(a, a_rs, a_cs, b + j, s.n, c + j, s.n, s.m, s.k,
                       all_lanes);
  }
  if (j < s.n) {
    exact_strip<true>(a, a_rs, a_cs, b + j, s.n, c + j, s.n, s.m, s.k,
                      exact_lane_mask(s.n - j));
  }
}

#endif  // LE_EXACT_AVX2

}  // namespace

void gemm_exact_avx2(const Matrix& a, const Matrix& b, Matrix& out,
                     GemmOp op) {
  const ExactShape s = check_exact_shapes(a, b, out, op);
#if defined(LE_EXACT_AVX2)
  if (s.m == 0 || s.n == 0) return;
  // op(A)(i, p) = a[i * a_rs + p * a_cs]: A^T is a stride swap.
  const bool ta = op == GemmOp::kTN;
  const std::size_t a_rs = ta ? 1 : a.cols();
  const std::size_t a_cs = ta ? a.cols() : 1;
  const double* panel = b.data();
  if (op == GemmOp::kNT) {
    // B^T packed k x n row-major; the buffer keeps its capacity, so a
    // training loop's steady state allocates nothing here.
    thread_local std::vector<double> packed;
    packed.resize(s.k * s.n);
    for (std::size_t j = 0; j < s.n; ++j) {
      const double* brow = b.data() + j * s.k;
      for (std::size_t p = 0; p < s.k; ++p) packed[p * s.n + j] = brow[p];
    }
    panel = packed.data();
  }
  exact_avx2(a.data(), a_rs, a_cs, panel, out.data(), s);
#else
  (void)s;
  gemm_exact(a, b, out, op);  // non-x86: dispatch never selects this path
#endif
}

void gemm_exact(const Matrix& a, const Matrix& b, Matrix& out, GemmOp op) {
  (void)check_exact_shapes(a, b, out, op);
  if (avx2_or_wider(active_gemm_kernel())) {
    gemm_exact_avx2(a, b, out, op);
    return;
  }
  // The scalar reference: gemm_naive itself, on materialized transposes.
  switch (op) {
    case GemmOp::kNN:
      gemm_naive(a, b, out);
      return;
    case GemmOp::kTN:
      gemm_naive(a.transposed(), b, out);
      return;
    case GemmOp::kNT:
      gemm_naive(a, b.transposed(), out);
      return;
  }
}

}  // namespace le::tensor
