// AVX2+FMA GEMM micro-kernels.  This translation unit is compiled with
// -mavx2 -mfma; nothing here may run unless cpu_has_avx2_fma() — the
// tensor::gemm() dispatcher enforces that, so the library still loads and
// runs on pre-AVX2 hardware.
//
// Structure: gemm_avx2 is simd_tiles.hpp's tile loop nest on 4-lane ymm
// vectors (Ymm4Lanes).  It keeps gemm_blocked's macro-block loop nest (the
// blocking proven by the tail-shape property suite in tests/test_tensor.cpp
// and tuned by the ATLAS-style autotuner).  Inside a block, the 8-wide column
// groups run a 4x8 register tile: 4 rows of A broadcast against two 4-wide
// column vectors of B, eight FMA accumulators resident in ymm registers
// across the whole kc extent.  Everything else — tail rows (<4) of those
// groups, a 4-wide column group, and a column tail of 1-3 columns — runs as
// 4-lane column strips of up to 8 rows, the tail one masked
// (_mm256_maskload_pd / _mm256_maskstore_pd), so there is no scalar inner
// loop left.  Every output element is one FMA chain over k in order,
// whichever tile computes it, so a row gets bit-identical results whether
// it is multiplied alone or inside a batch.
//
// dense_avx2 is the same loop nest with an epilogue: on the last k-block a
// tile adds the bias and applies tanh or ReLU to its accumulators before
// its one store, so a Dense -> activation pair costs one pass over its
// output instead of three (GEMM, bias, activation).
#include <cmath>
#include <stdexcept>

#include "le/tensor/ops.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include "simd_tiles.hpp"

namespace le::tensor {

void gemm_avx2(const Matrix& a, const Matrix& b, Matrix& out,
               const GemmBlocking& blocking) {
  tiled_product<Ymm4Lanes, 4, 2>(a, b, nullptr, DenseActivation::kNone, out,
                                 blocking);
}

void dense_avx2(const Matrix& a, const Matrix& w, std::span<const double> bias,
                Matrix& out, DenseActivation activation,
                const GemmBlocking& blocking) {
  if (bias.size() != w.cols()) {
    throw std::invalid_argument("dense: bias length != output width");
  }
  tiled_product<Ymm4Lanes, 4, 2>(a, w, bias.data(), activation, out,
                                 blocking);
}

void vtanh_avx2(std::span<const double> x, std::span<double> y) {
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y.data() + i,
                     tanh_lanes<Ymm4Lanes>(_mm256_loadu_pd(x.data() + i)));
  }
  if (i < n) {
    // Tail (<4): run the identical vector code on a padded copy so every
    // element sees bit-for-bit the same arithmetic regardless of where it
    // lands in a span — predict (1 row) and predict_batch (b rows) must
    // agree exactly.
    alignas(32) double pad_in[4] = {0.0, 0.0, 0.0, 0.0};
    alignas(32) double pad_out[4];
    for (std::size_t r = i; r < n; ++r) pad_in[r - i] = x[r];
    _mm256_store_pd(pad_out, tanh_lanes<Ymm4Lanes>(_mm256_load_pd(pad_in)));
    for (std::size_t r = i; r < n; ++r) y[r] = pad_out[r - i];
  }
}

void vrelu_avx2(std::span<const double> x, std::span<double> y) {
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y.data() + i,
                     relu_lanes<Ymm4Lanes>(_mm256_loadu_pd(x.data() + i)));
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

