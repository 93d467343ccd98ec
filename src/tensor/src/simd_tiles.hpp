// The SIMD tile loop nest behind gemm_avx2/dense_avx2 and
// gemm_avx512/dense_avx512, written once over a lane-traits type `L`:
//
//   L::Vec, L::kWidth              vector type, lanes
//   zero, set1, load, store        unaligned
//   broadcast, fmadd, add, mul,    one instruction each; min and max return
//   div, min, max                  their second operand when either is NaN
//
// The traits that run the masked column tail (the `Tail` of tiled_product)
// also have L::Mask, mask(live) for the low `live` (1 .. kWidth-1) lanes,
// and load/store overloads that take a Mask and touch only those lanes
// (nothing past the matrix edge).
//
// Ymm4Lanes, the 4-lane AVX2 traits, live here because both TUs use them:
// gemm_avx2.cpp for everything, gemm_avx512.cpp (whose own traits are 8-lane
// zmm) for the last 1-7 columns.  Only the two SIMD TUs include this
// header, each with its own ISA flags (-mavx2 -mfma, -mavx512f -mfma).
// Everything here sits in an anonymous namespace, so each TU compiles its
// own copy: the linker can never pick an inline body compiled for AVX-512
// to serve the AVX2 or baseline code.
//
// The bits do not depend on L or on the tile shape.  Every output element
// is one FMA chain over k in order, starting from +0.0 (or from C's partial
// sum on a later k-block), whichever tile computes it; the epilogue is one
// rounded add of the bias, then tanh_lanes or max(x, 0), lane by lane, with
// the same operations in the same order at every width.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <type_traits>

#include <immintrin.h>

#include "le/tensor/ops.hpp"

namespace le::tensor {
namespace {

// Lane traits for 4-lane ymm vectors.  The column-tail mask is a lane
// vector: maskload/maskstore test each lane's sign bit.
struct Ymm4Lanes {
  using Vec = __m256d;
  using Mask = __m256i;
  static constexpr std::size_t kWidth = 4;

  static Vec zero() noexcept { return _mm256_setzero_pd(); }
  static Vec set1(double x) noexcept { return _mm256_set1_pd(x); }
  static Vec load(const double* p) noexcept { return _mm256_loadu_pd(p); }
  static Vec load(const double* p, Mask m) noexcept {
    return _mm256_maskload_pd(p, m);
  }
  static void store(double* p, Vec v) noexcept { _mm256_storeu_pd(p, v); }
  static void store(double* p, Mask m, Vec v) noexcept {
    _mm256_maskstore_pd(p, m, v);
  }
  static Vec broadcast(const double* p) noexcept {
    return _mm256_broadcast_sd(p);
  }
  static Vec fmadd(Vec a, Vec b, Vec c) noexcept {
    return _mm256_fmadd_pd(a, b, c);
  }
  static Vec add(Vec a, Vec b) noexcept { return _mm256_add_pd(a, b); }
  static Vec mul(Vec a, Vec b) noexcept { return _mm256_mul_pd(a, b); }
  static Vec div(Vec a, Vec b) noexcept { return _mm256_div_pd(a, b); }
  static Vec min(Vec a, Vec b) noexcept { return _mm256_min_pd(a, b); }
  static Vec max(Vec a, Vec b) noexcept { return _mm256_max_pd(a, b); }
  static Mask mask(std::size_t live) noexcept {
    const __m256i lanes = _mm256_setr_epi64x(0, 1, 2, 3);
    return _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(live)), lanes);
  }
};

// Rational minimax tanh (numerator degree 13 odd / denominator degree 6
// even, the widely used fast-tanh form) with the input clamped to [-9, 9],
// where tanh has saturated to within 4e-8 of +-1.  Absolute error vs
// std::tanh is < 1e-7 over the whole real line — the serving-path
// tolerance contract of DESIGN.md section 13.  Coefficients are in Horner
// order, highest power first.
constexpr double kTanhClamp = 9.0;
constexpr double kTanhNumerator[] = {
    -2.76076847742355e-16, 2.00018790482477e-13, -8.60467152213735e-11,
    5.12229709037114e-08,  1.48572235717979e-05, 6.37261928875436e-04,
    4.89352455891786e-03};
constexpr double kTanhDenominator[] = {
    1.19825839466702e-06, 1.18534705686654e-04, 2.26843463243900e-03,
    4.89352518554385e-03};

// tanh on every lane of `v`.  vtanh_avx2 and both fused dense epilogues
// call this one function, so a value gets the same bits whichever of them
// applies it, at either width.
template <class L>
inline typename L::Vec tanh_lanes(typename L::Vec v) {
  using Vec = typename L::Vec;
  // v is the second operand of both: max and min return it when either
  // operand is NaN, so a NaN lane stays NaN, as std::tanh gives.
  v = L::min(L::set1(kTanhClamp), L::max(L::set1(-kTanhClamp), v));
  const Vec v2 = L::mul(v, v);
  const auto horner = [v2](const auto& coefficients) {
    Vec acc = L::set1(coefficients[0]);
    for (std::size_t i = 1; i < std::size(coefficients); ++i) {
      acc = L::fmadd(acc, v2, L::set1(coefficients[i]));
    }
    return acc;
  };
  return L::div(L::mul(horner(kTanhNumerator), v), horner(kTanhDenominator));
}

// max(x, 0) with vrelu's operand order: NaN and both zeros give +0.0.
template <class L>
inline typename L::Vec relu_lanes(typename L::Vec v) {
  return L::max(v, L::zero());
}

// What a tile does around its k loop.  `resume` starts the accumulators
// from C's partial sums (every k-block after the first; the first starts
// from +0.0, the value gemm_naive's zero fill would load).  On the last
// k-block a non-null `bias` (already offset to the tile's first column) is
// added and `activation` applied in registers before the one store: the
// same rounded add as a separate `out += bias` pass, then the same
// tanh_lanes/relu_lanes as vtanh/vrelu, so the fused result is the layered
// one bit for bit.
template <class L>
struct TileStep {
  bool resume = false;
  const double* bias = nullptr;
  DenseActivation activation = DenseActivation::kNone;

  [[nodiscard]] TileStep at_column(std::size_t j) const noexcept {
    return {resume, bias == nullptr ? nullptr : bias + j, activation};
  }

  // The same step for strips of another lane width.
  template <class T>
  [[nodiscard]] TileStep<T> as() const noexcept {
    return {resume, bias, activation};
  }

  // Epilogue of one accumulator whose lanes are bias lanes `b`.
  [[nodiscard]] typename L::Vec finish(typename L::Vec v,
                                       typename L::Vec b) const noexcept {
    v = L::add(v, b);
    switch (activation) {
      case DenseActivation::kTanh: return tanh_lanes<L>(v);
      case DenseActivation::kRelu: return relu_lanes<L>(v);
      case DenseActivation::kNone: break;
    }
    return v;
  }
};

// How a tile loads and stores B, C and the bias: AllLanes touches every
// lane, LiveLanes only the lanes set in `mask`, so a column tail reads and
// writes nothing past the matrix edge.
template <class L>
struct AllLanes {
  [[nodiscard]] typename L::Vec load(const double* p) const noexcept {
    return L::load(p);
  }
  void store(double* p, typename L::Vec v) const noexcept { L::store(p, v); }
};

template <class L>
struct LiveLanes {
  typename L::Mask mask;

  [[nodiscard]] typename L::Vec load(const double* p) const noexcept {
    return L::load(p, mask);
  }
  void store(double* p, typename L::Vec v) const noexcept {
    L::store(p, mask, v);
  }
};

// C tile[R rows][C vectors] (+)= A[R rows, kc] * B[kc, C * kWidth cols];
// all pointers are into the full row-major matrices (lda/ldb/ldc are the
// parent row strides).  `lanes` is AllLanes<L>, or LiveLanes<L> for a
// one-vector column tail.
template <class L, std::size_t R, std::size_t C, class Lanes>
inline void tile(const double* a, std::size_t lda, const double* b,
                 std::size_t ldb, double* c, std::size_t ldc, std::size_t kc,
                 const Lanes& lanes, const TileStep<L>& step) {
  static_assert(std::is_same_v<Lanes, AllLanes<L>> || C == 1,
                "only a one-vector strip is masked");
  using Vec = typename L::Vec;
  Vec acc[R][C];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t v = 0; v < C; ++v) {
      acc[r][v] =
          step.resume ? lanes.load(c + r * ldc + v * L::kWidth) : L::zero();
    }
  }
  for (std::size_t p = 0; p < kc; ++p) {
    Vec bv[C];
#pragma GCC unroll 4
    for (std::size_t v = 0; v < C; ++v) {
      bv[v] = lanes.load(b + p * ldb + v * L::kWidth);
    }
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const Vec ar = L::broadcast(a + r * lda + p);
#pragma GCC unroll 4
      for (std::size_t v = 0; v < C; ++v) {
        acc[r][v] = L::fmadd(ar, bv[v], acc[r][v]);
      }
    }
  }
  if (step.bias != nullptr) {
    Vec bias[C];
#pragma GCC unroll 4
    for (std::size_t v = 0; v < C; ++v) {
      bias[v] = lanes.load(step.bias + v * L::kWidth);
    }
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
      for (std::size_t v = 0; v < C; ++v) {
        acc[r][v] = step.finish(acc[r][v], bias[v]);
      }
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t v = 0; v < C; ++v) {
      lanes.store(c + r * ldc + v * L::kWidth, acc[r][v]);
    }
  }
}

// One kWidth-lane column strip over `rows` rows: 8-row tiles (eight
// independent FMA chains hide the FMA latency), then one tile for the 1-7
// left over.
template <class L, class Lanes = AllLanes<L>>
void column_strip(const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, double* c, std::size_t ldc, std::size_t kc,
                  std::size_t rows, const TileStep<L>& step,
                  const Lanes& lanes = {}) {
  std::size_t r = 0;
  for (; r + 8 <= rows; r += 8) {
    tile<L, 8, 1>(a + r * lda, lda, b, ldb, c + r * ldc, ldc, kc, lanes,
                  step);
  }
  a += r * lda;
  c += r * ldc;
  switch (rows - r) {
    case 7: tile<L, 7, 1>(a, lda, b, ldb, c, ldc, kc, lanes, step); break;
    case 6: tile<L, 6, 1>(a, lda, b, ldb, c, ldc, kc, lanes, step); break;
    case 5: tile<L, 5, 1>(a, lda, b, ldb, c, ldc, kc, lanes, step); break;
    case 4: tile<L, 4, 1>(a, lda, b, ldb, c, ldc, kc, lanes, step); break;
    case 3: tile<L, 3, 1>(a, lda, b, ldb, c, ldc, kc, lanes, step); break;
    case 2: tile<L, 2, 1>(a, lda, b, ldb, c, ldc, kc, lanes, step); break;
    case 1: tile<L, 1, 1>(a, lda, b, ldb, c, ldc, kc, lanes, step); break;
    default: break;
  }
}

// out = A * B, then (with a non-null bias) + bias and the activation, in
// gemm_blocked's macro-block loop nest.  Inside a block, column groups of
// kTileVecs vectors run kTileRows x kTileVecs register tiles; everything
// else runs as one-vector column strips of up to 8 rows: the tail rows of
// those groups and the whole L vectors after the last group, then the
// columns left over in `Tail` vectors (narrower than L, or L itself), the
// last 1 .. Tail::kWidth-1 of them masked.  There is always at least one
// k-block, so k = 0 still writes every element.
template <class L, std::size_t kTileRows, std::size_t kTileVecs,
          class Tail = L>
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
    throw std::invalid_argument("gemm: block sizes must be positive");
  }
  constexpr std::size_t kGroup = kTileVecs * L::kWidth;
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = out.data();
  for (std::size_t i0 = 0; i0 < m; i0 += blocking.mc) {
    const std::size_t i1 = std::min(i0 + blocking.mc, m);
    for (std::size_t p0 = 0; p0 == 0 || p0 < k; p0 += blocking.kc) {
      const std::size_t p1 = std::min(p0 + blocking.kc, k);
      const std::size_t kc = p1 - p0;
      const double* ap = pa + p0;      // A columns [p0, p1)
      const double* bp = pb + p0 * n;  // B rows [p0, p1)
      const TileStep<L> step{p0 > 0, p1 == k ? bias : nullptr, activation};
      for (std::size_t j0 = 0; j0 < n; j0 += blocking.nc) {
        const std::size_t j1 = std::min(j0 + blocking.nc, n);
        // Whole column groups: full tiles, then the tail rows as one-vector
        // strips per group.
        const std::size_t jg = j0 + (j1 - j0) / kGroup * kGroup;
        std::size_t i = i0;
        for (; i + kTileRows <= i1; i += kTileRows) {
          for (std::size_t j = j0; j < jg; j += kGroup) {
            tile<L, kTileRows, kTileVecs>(ap + i * k, k, bp + j, n,
                                          pc + i * n + j, n, kc,
                                          AllLanes<L>{}, step.at_column(j));
          }
        }
        for (std::size_t j = j0; j < jg && i < i1; j += L::kWidth) {
          column_strip<L>(ap + i * k, k, bp + j, n, pc + i * n + j, n, kc,
                          i1 - i, step.at_column(j));
        }
        // The columns after the last group, over every row of the block:
        // whole-vector strips, then Tail strips, the last one masked.
        std::size_t j = jg;
        for (; j + L::kWidth <= j1; j += L::kWidth) {
          column_strip<L>(ap + i0 * k, k, bp + j, n, pc + i0 * n + j, n, kc,
                          i1 - i0, step.at_column(j));
        }
        const TileStep<Tail> tail_step = step.template as<Tail>();
        for (; j + Tail::kWidth <= j1; j += Tail::kWidth) {
          column_strip<Tail>(ap + i0 * k, k, bp + j, n, pc + i0 * n + j, n,
                             kc, i1 - i0, tail_step.at_column(j));
        }
        if (j < j1) {
          column_strip<Tail>(ap + i0 * k, k, bp + j, n, pc + i0 * n + j, n,
                             kc, i1 - i0, tail_step.at_column(j),
                             LiveLanes<Tail>{Tail::mask(j1 - j)});
        }
      }
    }
  }
}

}  // namespace
}  // namespace le::tensor
