// AVX-512F GEMM and fused dense kernels.  This translation unit is compiled
// with -mavx512f -mfma; nothing here may run unless cpu_has_avx512f() — the
// tensor::gemm() and tensor::dense() dispatch enforces that.
//
// gemm_avx512 and dense_avx512 are simd_tiles.hpp's tile loop nest, the one
// gemm_avx2 runs, on 8-lane zmm vectors: 32-column groups run 4-row x
// 4-zmm register tiles (16 accumulators), and tail rows and the remaining
// whole 8-lane columns run as zmm strips of up to 8 rows.  The last 1-7
// columns run as gemm_avx2's 4-lane ymm strips (a full one, then one
// masked): a 3-column output layer took 0.71 us on 8-row strips under an
// __mmask8 and 0.53 us on masked ymm strips (64x32x3, 4-vCPU Xeon).  Every
// output element is the same FMA chain over k in order as on AVX2, and the
// epilogue is the same rounded bias add and the same tanh_lanes sequence,
// so the results equal gemm_avx2/dense_avx2 bit for bit; only the lane
// count differs.
#include <stdexcept>

#include "le/tensor/ops.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include "simd_tiles.hpp"

namespace le::tensor {

namespace {

// simd_tiles.hpp's lane traits for 8-lane zmm vectors.  They need no
// column-tail mask: the last 1-7 columns run on Ymm4Lanes.
struct Zmm8Lanes {
  using Vec = __m512d;
  static constexpr std::size_t kWidth = 8;

  static Vec zero() noexcept { return _mm512_setzero_pd(); }
  static Vec set1(double x) noexcept { return _mm512_set1_pd(x); }
  static Vec load(const double* p) noexcept { return _mm512_loadu_pd(p); }
  static void store(double* p, Vec v) noexcept { _mm512_storeu_pd(p, v); }
  static Vec broadcast(const double* p) noexcept {
    return _mm512_set1_pd(*p);
  }
  static Vec fmadd(Vec a, Vec b, Vec c) noexcept {
    return _mm512_fmadd_pd(a, b, c);
  }
  static Vec add(Vec a, Vec b) noexcept { return _mm512_add_pd(a, b); }
  static Vec mul(Vec a, Vec b) noexcept { return _mm512_mul_pd(a, b); }
  static Vec div(Vec a, Vec b) noexcept { return _mm512_div_pd(a, b); }
  // The zero-masked forms under an all-ones mask are plain vminpd/vmaxpd.
  // GCC 12's _mm512_min_pd/_mm512_max_pd pass _mm512_undefined_pd() as the
  // unused merge source, which -Wuninitialized and -Wmaybe-uninitialized
  // report wherever the call is inlined.
  static Vec min(Vec a, Vec b) noexcept {
    return _mm512_maskz_min_pd(0xFF, a, b);
  }
  static Vec max(Vec a, Vec b) noexcept {
    return _mm512_maskz_max_pd(0xFF, a, b);
  }
};

}  // namespace

void gemm_avx512(const Matrix& a, const Matrix& b, Matrix& out,
                 const GemmBlocking& blocking) {
  tiled_product<Zmm8Lanes, 4, 4, Ymm4Lanes>(
      a, b, nullptr, DenseActivation::kNone, out, blocking);
}

void dense_avx512(const Matrix& a, const Matrix& w,
                  std::span<const double> bias, Matrix& out,
                  DenseActivation activation, const GemmBlocking& blocking) {
  if (bias.size() != w.cols()) {
    throw std::invalid_argument("dense: bias length != output width");
  }
  tiled_product<Zmm8Lanes, 4, 4, Ymm4Lanes>(a, w, bias.data(), activation,
                                            out, blocking);
}

}  // namespace le::tensor

#else  // non-x86: keep the symbols linkable; dispatch never selects them
       // because cpu_has_avx512f() is constant false.

namespace le::tensor {

void gemm_avx512(const Matrix& a, const Matrix& b, Matrix& out,
                 const GemmBlocking& blocking) {
  gemm_avx2(a, b, out, blocking);
}

void dense_avx512(const Matrix& a, const Matrix& w,
                  std::span<const double> bias, Matrix& out,
                  DenseActivation activation, const GemmBlocking& blocking) {
  dense_avx2(a, w, bias, out, activation, blocking);
}

}  // namespace le::tensor

#endif
