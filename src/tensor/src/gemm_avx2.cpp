// AVX2+FMA GEMM micro-kernels.  This translation unit (alone in le_tensor)
// is compiled with -mavx2 -mfma; nothing here may run unless
// cpu_has_avx2_fma() — the tensor::gemm() dispatcher enforces that, so the
// library still loads and runs on pre-AVX2 hardware.
//
// Structure: gemm_avx2 keeps gemm_blocked's macro-block loop nest (the
// blocking proven by the tail-shape property suite in tests/test_tensor.cpp
// and tuned by the ATLAS-style autotuner).  Inside a block, the 8-wide
// column groups run a 4x8 register tile: 4 rows of A broadcast against two
// 4-wide column vectors of B, eight FMA accumulators resident in ymm
// registers across the whole kc extent.  Everything else — tail rows (<4)
// of those groups, a 4-wide column group, and a column tail of 1-3 columns
// — runs as 4-lane column strips of up to 8 rows, the tail one masked
// (_mm256_maskload_pd / _mm256_maskstore_pd), so there is no scalar inner
// loop left.  Every output element is one FMA chain over k in order,
// whichever tile computes it, so a row gets bit-identical results whether
// it is multiplied alone or inside a batch.
//
// dense_avx2 is the same loop nest with an epilogue: on the last k-block a
// tile adds the bias and applies tanh or ReLU to its accumulators before
// its one store, so a Dense -> activation pair costs one pass over its
// output instead of three (GEMM, bias, activation).
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "le/tensor/ops.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

namespace le::tensor {

namespace {

// Rational minimax tanh (numerator degree 13 odd / denominator degree 6
// even, the widely used fast-tanh form) with the input clamped to [-9, 9],
// where tanh has saturated to within 4e-8 of +-1.  Absolute error vs
// std::tanh is < 1e-7 over the whole real line — the serving-path
// tolerance contract of DESIGN.md section 13.  vtanh_avx2 and the fused
// dense epilogue both call this one function, so a value gets the same
// bits whichever of them applies it.
inline __m256d tanh4(__m256d v) {
  constexpr double kClamp = 9.0;
  constexpr double a1 = 4.89352455891786e-03;
  constexpr double a3 = 6.37261928875436e-04;
  constexpr double a5 = 1.48572235717979e-05;
  constexpr double a7 = 5.12229709037114e-08;
  constexpr double a9 = -8.60467152213735e-11;
  constexpr double a11 = 2.00018790482477e-13;
  constexpr double a13 = -2.76076847742355e-16;
  constexpr double b0 = 4.89352518554385e-03;
  constexpr double b2 = 2.26843463243900e-03;
  constexpr double b4 = 1.18534705686654e-04;
  constexpr double b6 = 1.19825839466702e-06;
  // v is the second operand of both: maxpd/minpd return it when either
  // operand is NaN, so a NaN lane stays NaN, as std::tanh gives.
  v = _mm256_min_pd(_mm256_set1_pd(kClamp),
                    _mm256_max_pd(_mm256_set1_pd(-kClamp), v));
  const __m256d v2 = _mm256_mul_pd(v, v);
  __m256d p = _mm256_set1_pd(a13);
  p = _mm256_fmadd_pd(p, v2, _mm256_set1_pd(a11));
  p = _mm256_fmadd_pd(p, v2, _mm256_set1_pd(a9));
  p = _mm256_fmadd_pd(p, v2, _mm256_set1_pd(a7));
  p = _mm256_fmadd_pd(p, v2, _mm256_set1_pd(a5));
  p = _mm256_fmadd_pd(p, v2, _mm256_set1_pd(a3));
  p = _mm256_fmadd_pd(p, v2, _mm256_set1_pd(a1));
  p = _mm256_mul_pd(p, v);
  __m256d q = _mm256_set1_pd(b6);
  q = _mm256_fmadd_pd(q, v2, _mm256_set1_pd(b4));
  q = _mm256_fmadd_pd(q, v2, _mm256_set1_pd(b2));
  q = _mm256_fmadd_pd(q, v2, _mm256_set1_pd(b0));
  return _mm256_div_pd(p, q);
}

// max(x, 0) with vrelu_avx2's operand order: NaN and both zeros give +0.0.
inline __m256d relu4(__m256d v) {
  return _mm256_max_pd(v, _mm256_setzero_pd());
}

// What a tile does around its k loop.  `resume` starts the accumulators
// from C's partial sums (every k-block after the first; the first starts
// from +0.0, the value gemm_naive's zero fill would load).  On the last
// k-block a non-null `bias` (already offset to the tile's first column) is
// added and `activation` applied in registers before the one store: the
// same rounded add as a separate `out += bias` pass, then the same
// tanh4/relu4 as vtanh_avx2/vrelu_avx2, so the fused result is the layered
// one bit for bit.
struct TileStep {
  bool resume = false;
  const double* bias = nullptr;
  DenseActivation activation = DenseActivation::kNone;

  [[nodiscard]] TileStep at_column(std::size_t j) const noexcept {
    return {resume, bias == nullptr ? nullptr : bias + j, activation};
  }

  // Epilogue of one accumulator whose lanes are bias lanes `b`.
  [[nodiscard]] __m256d finish(__m256d v, __m256d b) const noexcept {
    v = _mm256_add_pd(v, b);
    switch (activation) {
      case DenseActivation::kTanh: return tanh4(v);
      case DenseActivation::kRelu: return relu4(v);
      case DenseActivation::kNone: break;
    }
    return v;
  }
};

// C tile[4][8] (+)= A[4 rows, kc] * B[kc, 8 cols]; all pointers are into the
// full row-major matrices (lda/ldb/ldc are the parent row strides).
inline void tile_4x8(const double* a, std::size_t lda, const double* b,
                     std::size_t ldb, double* c, std::size_t ldc,
                     std::size_t kc, const TileStep& step) {
  __m256d c00, c01, c10, c11, c20, c21, c30, c31;
  if (step.resume) {
    c00 = _mm256_loadu_pd(c + 0 * ldc);
    c01 = _mm256_loadu_pd(c + 0 * ldc + 4);
    c10 = _mm256_loadu_pd(c + 1 * ldc);
    c11 = _mm256_loadu_pd(c + 1 * ldc + 4);
    c20 = _mm256_loadu_pd(c + 2 * ldc);
    c21 = _mm256_loadu_pd(c + 2 * ldc + 4);
    c30 = _mm256_loadu_pd(c + 3 * ldc);
    c31 = _mm256_loadu_pd(c + 3 * ldc + 4);
  } else {
    c00 = c01 = c10 = c11 = c20 = c21 = c30 = c31 = _mm256_setzero_pd();
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256d b0 = _mm256_loadu_pd(b + p * ldb);
    const __m256d b1 = _mm256_loadu_pd(b + p * ldb + 4);
    const __m256d a0 = _mm256_broadcast_sd(a + 0 * lda + p);
    c00 = _mm256_fmadd_pd(a0, b0, c00);
    c01 = _mm256_fmadd_pd(a0, b1, c01);
    const __m256d a1 = _mm256_broadcast_sd(a + 1 * lda + p);
    c10 = _mm256_fmadd_pd(a1, b0, c10);
    c11 = _mm256_fmadd_pd(a1, b1, c11);
    const __m256d a2 = _mm256_broadcast_sd(a + 2 * lda + p);
    c20 = _mm256_fmadd_pd(a2, b0, c20);
    c21 = _mm256_fmadd_pd(a2, b1, c21);
    const __m256d a3 = _mm256_broadcast_sd(a + 3 * lda + p);
    c30 = _mm256_fmadd_pd(a3, b0, c30);
    c31 = _mm256_fmadd_pd(a3, b1, c31);
  }
  if (step.bias != nullptr) {
    const __m256d bias0 = _mm256_loadu_pd(step.bias);
    const __m256d bias1 = _mm256_loadu_pd(step.bias + 4);
    c00 = step.finish(c00, bias0);
    c01 = step.finish(c01, bias1);
    c10 = step.finish(c10, bias0);
    c11 = step.finish(c11, bias1);
    c20 = step.finish(c20, bias0);
    c21 = step.finish(c21, bias1);
    c30 = step.finish(c30, bias0);
    c31 = step.finish(c31, bias1);
  }
  _mm256_storeu_pd(c + 0 * ldc, c00);
  _mm256_storeu_pd(c + 0 * ldc + 4, c01);
  _mm256_storeu_pd(c + 1 * ldc, c10);
  _mm256_storeu_pd(c + 1 * ldc + 4, c11);
  _mm256_storeu_pd(c + 2 * ldc, c20);
  _mm256_storeu_pd(c + 2 * ldc + 4, c21);
  _mm256_storeu_pd(c + 3 * ldc, c30);
  _mm256_storeu_pd(c + 3 * ldc + 4, c31);
}

// C tile[R][4] (+)= A[R rows, kc] * B[kc, 4 cols]: one accumulator per row.
// kMasked loads and stores only the lanes set in `mask` (bias included),
// so a 1-3 column tail reads and writes nothing past the matrix edge.
template <std::size_t R, bool kMasked>
inline void tile_rx4(const double* a, std::size_t lda, const double* b,
                     std::size_t ldb, double* c, std::size_t ldc,
                     std::size_t kc, __m256i mask, const TileStep& step) {
  const auto load = [mask](const double* src) {
    if constexpr (kMasked) {
      return _mm256_maskload_pd(src, mask);
    } else {
      (void)mask;
      return _mm256_loadu_pd(src);
    }
  };
  __m256d acc[R];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    acc[r] = step.resume ? load(c + r * ldc) : _mm256_setzero_pd();
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256d b0 = load(b + p * ldb);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      acc[r] = _mm256_fmadd_pd(_mm256_broadcast_sd(a + r * lda + p), b0,
                               acc[r]);
    }
  }
  if (step.bias != nullptr) {
    const __m256d bias = load(step.bias);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) acc[r] = step.finish(acc[r], bias);
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

// One 4-lane column strip over `rows` rows: 8-row tiles (eight independent
// FMA chains hide the FMA latency), then one tile for the 1-7 left over.
template <bool kMasked>
void column_strip(const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, double* c, std::size_t ldc, std::size_t kc,
                  std::size_t rows, __m256i mask, const TileStep& step) {
  std::size_t r = 0;
  for (; r + 8 <= rows; r += 8) {
    tile_rx4<8, kMasked>(a + r * lda, lda, b, ldb, c + r * ldc, ldc, kc, mask,
                         step);
  }
  a += r * lda;
  c += r * ldc;
  switch (rows - r) {
    case 7: tile_rx4<7, kMasked>(a, lda, b, ldb, c, ldc, kc, mask, step); break;
    case 6: tile_rx4<6, kMasked>(a, lda, b, ldb, c, ldc, kc, mask, step); break;
    case 5: tile_rx4<5, kMasked>(a, lda, b, ldb, c, ldc, kc, mask, step); break;
    case 4: tile_rx4<4, kMasked>(a, lda, b, ldb, c, ldc, kc, mask, step); break;
    case 3: tile_rx4<3, kMasked>(a, lda, b, ldb, c, ldc, kc, mask, step); break;
    case 2: tile_rx4<2, kMasked>(a, lda, b, ldb, c, ldc, kc, mask, step); break;
    case 1: tile_rx4<1, kMasked>(a, lda, b, ldb, c, ldc, kc, mask, step); break;
    default: break;
  }
}

// Lane mask with the low `live` (1-4) lanes set: maskload/maskstore test
// each 64-bit lane's sign bit.
inline __m256i lane_mask(std::size_t live) {
  const __m256i lanes = _mm256_setr_epi64x(0, 1, 2, 3);
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(live)),
                            lanes);
}

// out = A * B, then (with a non-null bias) + bias and the activation, in
// gemm_blocked's macro-block loop nest.  Every element is one FMA chain
// over k in order, whichever tile computes it, so a row gets bit-identical
// results whether it is multiplied alone or inside a batch.  There is
// always at least one k-block, so k = 0 still writes every element.
void tiled_product(const Matrix& a, const Matrix& b, const double* bias,
                   DenseActivation activation, Matrix& out,
                   const GemmBlocking& blocking) {
  if (a.cols() != b.rows() || out.rows() != a.rows() ||
      out.cols() != b.cols()) {
    throw std::invalid_argument("gemm: shape mismatch");
  }
  if (&out == &a || &out == &b) {
    throw std::invalid_argument("gemm: out must not alias an input");
  }
  if (blocking.mc == 0 || blocking.kc == 0 || blocking.nc == 0) {
    throw std::invalid_argument("gemm_avx2: block sizes must be positive");
  }
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = out.data();
  const __m256i all_lanes = lane_mask(4);
  for (std::size_t i0 = 0; i0 < m; i0 += blocking.mc) {
    const std::size_t i1 = std::min(i0 + blocking.mc, m);
    for (std::size_t p0 = 0; p0 == 0 || p0 < k; p0 += blocking.kc) {
      const std::size_t p1 = std::min(p0 + blocking.kc, k);
      const std::size_t kc = p1 - p0;
      const double* ap = pa + p0;  // A columns [p0, p1)
      const double* bp = pb + p0 * n;  // B rows [p0, p1)
      const TileStep step{p0 > 0, p1 == k ? bias : nullptr, activation};
      for (std::size_t j0 = 0; j0 < n; j0 += blocking.nc) {
        const std::size_t j1 = std::min(j0 + blocking.nc, n);
        // 8-wide column groups: 4x8 tiles, then the <4 tail rows as two
        // 4-lane strips per group.
        const std::size_t j8 = j0 + (j1 - j0) / 8 * 8;
        std::size_t i = i0;
        for (; i + 4 <= i1; i += 4) {
          for (std::size_t j = j0; j < j8; j += 8) {
            tile_4x8(ap + i * k, k, bp + j, n, pc + i * n + j, n, kc,
                     step.at_column(j));
          }
        }
        for (std::size_t j = j0; j < j8 && i < i1; j += 4) {
          column_strip<false>(ap + i * k, k, bp + j, n, pc + i * n + j, n, kc,
                              i1 - i, all_lanes, step.at_column(j));
        }
        // The last 1-7 columns over every row of the block: one full
        // 4-lane strip and/or one masked strip of 1-3 lanes.
        std::size_t j = j8;
        if (j + 4 <= j1) {
          column_strip<false>(ap + i0 * k, k, bp + j, n, pc + i0 * n + j, n,
                              kc, i1 - i0, all_lanes, step.at_column(j));
          j += 4;
        }
        if (j < j1) {
          column_strip<true>(ap + i0 * k, k, bp + j, n, pc + i0 * n + j, n, kc,
                             i1 - i0, lane_mask(j1 - j), step.at_column(j));
        }
      }
    }
  }
}

}  // namespace

void gemm_avx2(const Matrix& a, const Matrix& b, Matrix& out,
               const GemmBlocking& blocking) {
  tiled_product(a, b, nullptr, DenseActivation::kNone, out, blocking);
}

void dense_avx2(const Matrix& a, const Matrix& w, std::span<const double> bias,
                Matrix& out, DenseActivation activation,
                const GemmBlocking& blocking) {
  if (bias.size() != w.cols()) {
    throw std::invalid_argument("dense: bias length != output width");
  }
  tiled_product(a, w, bias.data(), activation, out, blocking);
}

void vtanh_avx2(std::span<const double> x, std::span<double> y) {
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y.data() + i, tanh4(_mm256_loadu_pd(x.data() + i)));
  }
  if (i < n) {
    // Tail (<4): run the identical vector code on a padded copy so every
    // element sees bit-for-bit the same arithmetic regardless of where it
    // lands in a span — predict (1 row) and predict_batch (b rows) must
    // agree exactly.
    alignas(32) double pad_in[4] = {0.0, 0.0, 0.0, 0.0};
    alignas(32) double pad_out[4];
    for (std::size_t r = i; r < n; ++r) pad_in[r - i] = x[r];
    _mm256_store_pd(pad_out, tanh4(_mm256_load_pd(pad_in)));
    for (std::size_t r = i; r < n; ++r) y[r] = pad_out[r - i];
  }
}

void vrelu_avx2(std::span<const double> x, std::span<double> y) {
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y.data() + i, relu4(_mm256_loadu_pd(x.data() + i)));
  }
  for (; i < n; ++i) y[i] = x[i] > 0.0 ? x[i] : 0.0;
}

}  // namespace le::tensor

#else  // non-x86: keep the symbols linkable; dispatch never selects them
       // because cpu_has_avx2_fma() is constant false.

namespace le::tensor {

void gemm_avx2(const Matrix& a, const Matrix& b, Matrix& out,
               const GemmBlocking& blocking) {
  gemm_blocked(a, b, out, blocking);
}

void dense_avx2(const Matrix& a, const Matrix& w, std::span<const double> bias,
                Matrix& out, DenseActivation activation,
                const GemmBlocking& blocking) {
  dense(a, w, bias, out, activation, {GemmKernel::kScalar, blocking});
}

void vtanh_avx2(std::span<const double> x, std::span<double> y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = std::tanh(x[i]);
}

void vrelu_avx2(std::span<const double> x, std::span<double> y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] > 0.0 ? x[i] : 0.0;
}

}  // namespace le::tensor

#endif

