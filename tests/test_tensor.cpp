// Unit and property tests for the dense linear-algebra substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <span>
#include <tuple>
#include <vector>

#include "le/tensor/matrix.hpp"
#include "le/tensor/ops.hpp"
#include "le/tensor/simd.hpp"

namespace le::tensor {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ConstructsWithFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
  }
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, RowSpanAliasesStorage) {
  Matrix m(2, 2, 0.0);
  m.row(1)[0] = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 7.0);
}

TEST(Matrix, ReshapePreservesCount) {
  Matrix m(2, 6, 1.0);
  m.reshape(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_THROW(m.reshape(5, 5), std::invalid_argument);
}

TEST(Matrix, TransposedRoundTrip) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_EQ(t.transposed(), m);
}

TEST(Matrix, IdentityDiagonal) {
  Matrix i = identity(4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Gemm, KnownProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Gemm, IdentityIsNeutral) {
  Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  EXPECT_EQ(matmul(a, identity(3)), a);
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3), out(2, 3);
  EXPECT_THROW(gemm_naive(a, b, out), std::invalid_argument);
}

TEST(Gemm, ZeroBlockSizeThrows) {
  Matrix a(4, 4), b(4, 4), out(4, 4);
  EXPECT_THROW(gemm_blocked(a, b, out, {0, 4, 4}), std::invalid_argument);
}

/// Property: blocked GEMM agrees with the naive kernel for any blocking.
class GemmBlockingProperty : public ::testing::TestWithParam<GemmBlocking> {};

TEST_P(GemmBlockingProperty, MatchesNaive) {
  std::mt19937 gen(99);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Matrix a(37, 23), b(23, 41);
  for (double& v : a.flat()) v = dist(gen);
  for (double& v : b.flat()) v = dist(gen);
  Matrix expected(37, 41), actual(37, 41);
  gemm_naive(a, b, expected);
  gemm_blocked(a, b, actual, GetParam());
  EXPECT_LT(max_abs_diff(expected, actual), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Blockings, GemmBlockingProperty,
    ::testing::Values(GemmBlocking{1, 1, 1}, GemmBlocking{4, 8, 16},
                      GemmBlocking{64, 64, 64}, GemmBlocking{128, 3, 7},
                      GemmBlocking{1000, 1000, 1000}));

TEST(MatVec, MatchesGemm) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  std::vector<double> x{1.0, -1.0};
  std::vector<double> y(3, 0.0);
  matvec(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(y[2], -1.0);
}

TEST(MatVec, TransposedMatchesExplicitTranspose) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  std::vector<double> x{1.0, 0.5, -1.0};
  std::vector<double> got(2, 0.0), expected(2, 0.0);
  matvec_transposed(a, x, got);
  matvec(a.transposed(), x, expected);
  EXPECT_DOUBLE_EQ(got[0], expected[0]);
  EXPECT_DOUBLE_EQ(got[1], expected[1]);
}

TEST(VectorOps, AxpyDotNorm) {
  std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y{1.0, 1.0, 1.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[2], 7.0);
  EXPECT_DOUBLE_EQ(dot(x, x), 14.0);
  EXPECT_DOUBLE_EQ(norm2(std::vector<double>{3.0, 4.0}), 5.0);
}

TEST(VectorOps, LengthMismatchThrows) {
  std::vector<double> x{1.0}, y{1.0, 2.0};
  EXPECT_THROW((void)dot(x, y), std::invalid_argument);
  EXPECT_THROW(axpy(1.0, x, y), std::invalid_argument);
}

TEST(ElementWise, AddSubHadamard) {
  Matrix a{{1.0, 2.0}}, b{{3.0, 4.0}}, c(1, 2);
  add(a, b, c);
  EXPECT_DOUBLE_EQ(c(0, 1), 6.0);
  sub(a, b, c);
  EXPECT_DOUBLE_EQ(c(0, 0), -2.0);
  hadamard(a, b, c);
  EXPECT_DOUBLE_EQ(c(0, 1), 8.0);
}

TEST(ElementWise, FrobeniusAndMaxDiff) {
  Matrix a{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(frobenius_norm(a), 5.0);
  Matrix b{{3.0, 0.5}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
}

// ---------------------------------------------------------------------------
// Micro-kernel layer: dispatch, tail shapes, vector activations.
// Tolerances are the DESIGN.md section 13 contract.
// ---------------------------------------------------------------------------

Matrix random_matrix(std::size_t rows, std::size_t cols, std::mt19937& gen) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Matrix m(rows, cols);
  for (double& v : m.flat()) v = dist(gen);
  return m;
}

/// Restores the process-wide kernel override on scope exit so one test
/// cannot leak a pinned kernel into the rest of the suite.
struct KernelOverrideGuard {
  ~KernelOverrideGuard() { set_gemm_kernel_override(std::nullopt); }
};

struct GemmShape {
  std::size_t m, k, n;
};

/// Property (hot-path correctness sweep): every blocked/SIMD kernel agrees
/// with gemm_naive on shapes that exercise tail blocks (non-multiples of
/// both the macro blocking and the 4x8 register tile) and degenerate 0/1
/// dimensions, across randomized blockings.
TEST(GemmProperty, TailAndDegenerateShapesMatchNaiveUnderRandomBlockings) {
  const GemmShape shapes[] = {
      {0, 0, 0}, {0, 5, 3},  {4, 0, 6},   {3, 7, 0},   {1, 1, 1},
      {1, 64, 1}, {2, 3, 5}, {37, 23, 41}, {65, 3, 9},  {5, 129, 8},
      {4, 16, 8}, {3, 8, 7}, {12, 31, 19}, {128, 1, 17},
      // Narrow outputs: the AVX2 kernel's masked 1-3 lane strips, alone
      // (n < 4) and behind a full 4-lane strip (n = 6, 7).
      {64, 32, 3}, {4, 32, 1}, {4, 32, 2}, {8, 7, 3}, {3, 32, 3},
      {1, 32, 3}, {9, 33, 6}, {6, 17, 7}};
  std::mt19937 gen(2024);
  std::uniform_int_distribution<std::size_t> block_dist(1, 160);
  for (const GemmShape& s : shapes) {
    const Matrix a = random_matrix(s.m, s.k, gen);
    const Matrix b = random_matrix(s.k, s.n, gen);
    Matrix expected(s.m, s.n), actual(s.m, s.n);
    gemm_naive(a, b, expected);
    for (int trial = 0; trial < 5; ++trial) {
      const GemmBlocking blocking{block_dist(gen), block_dist(gen),
                                  block_dist(gen)};
      gemm_blocked(a, b, actual, blocking);
      EXPECT_LT(max_abs_diff(expected, actual), 1e-12)
          << "scalar " << s.m << "x" << s.k << "x" << s.n << " mc="
          << blocking.mc << " kc=" << blocking.kc << " nc=" << blocking.nc;
      if (cpu_has_avx2_fma()) {
        gemm_avx2(a, b, actual, blocking);
        EXPECT_LT(max_abs_diff(expected, actual), 1e-12)
            << "avx2 " << s.m << "x" << s.k << "x" << s.n << " mc="
            << blocking.mc << " kc=" << blocking.kc << " nc=" << blocking.nc;
      }
      if (cpu_has_avx512f()) {
        gemm_avx512(a, b, actual, blocking);
        EXPECT_LT(max_abs_diff(expected, actual), 1e-12)
            << "avx512 " << s.m << "x" << s.k << "x" << s.n << " mc="
            << blocking.mc << " kc=" << blocking.kc << " nc=" << blocking.nc;
      }
    }
  }
}

/// True when two equal-shaped matrices hold the same bits (unlike ==, which
/// equates -0.0 with 0.0).
bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Property: gemm_exact equals gemm_naive on explicitly transposed operands
/// bit for bit, for the NN, TN and NT layouts, under every runnable kernel
/// and through the AVX2 entry point directly.  Random m, k, n in 1..40
/// cover the 8-row tiles and their 1-7 row remainders; every fourth case
/// forces n = 1..3 (the masked strip alone) and every fourth m = 1.  The
/// output starts as NaN, so an element the kernel skips cannot pass.
TEST(GemmExact, EveryLayoutIsBitIdenticalToNaiveOnExplicitTransposes) {
  KernelOverrideGuard guard;
  std::mt19937 gen(1909);
  std::uniform_int_distribution<std::size_t> dim(1, 40);
  for (int trial = 0; trial < 240; ++trial) {
    std::size_t m = dim(gen), k = dim(gen), n = dim(gen);
    if (trial % 4 == 1) n = 1 + static_cast<std::size_t>(trial / 4 % 3);
    if (trial % 4 == 2) m = 1;
    const Matrix a = random_matrix(m, k, gen);
    const Matrix b = random_matrix(k, n, gen);
    const Matrix at = a.transposed(), bt = b.transposed();
    Matrix expected(m, n);
    gemm_naive(a, b, expected);
    const auto check = [&](const char* path, auto&& run) {
      for (const auto& [op, lhs, rhs] :
           {std::tuple{GemmOp::kNN, &a, &b}, std::tuple{GemmOp::kTN, &at, &b},
            std::tuple{GemmOp::kNT, &a, &bt}}) {
        Matrix actual(m, n, std::nan(""));
        run(*lhs, *rhs, actual, op);
        EXPECT_TRUE(same_bits(expected, actual))
            << path << " op=" << static_cast<int>(op) << " " << m << "x" << k
            << "x" << n;
      }
    };
    for (GemmKernel kernel :
         {GemmKernel::kScalar, GemmKernel::kAvx2, GemmKernel::kAvx512}) {
      set_gemm_kernel_override(kernel);
      check(to_string(kernel).c_str(),
            [](const Matrix& x, const Matrix& y, Matrix& out, GemmOp op) {
              gemm_exact(x, y, out, op);
            });
    }
    if (cpu_has_avx2_fma()) {
      check("avx2", [](const Matrix& x, const Matrix& y, Matrix& out,
                       GemmOp op) { gemm_exact_avx2(x, y, out, op); });
    }
  }
}

TEST(GemmExact, ShapeMismatchAndAliasingThrowOnEveryLayout) {
  KernelOverrideGuard guard;
  const Matrix a(4, 3, 1.0), b(3, 5, 1.0);
  for (GemmKernel kernel :
       {GemmKernel::kScalar, GemmKernel::kAvx2, GemmKernel::kAvx512}) {
    set_gemm_kernel_override(kernel);
    Matrix out(4, 5);
    EXPECT_NO_THROW(gemm_exact(a, b, out, GemmOp::kNN));
    EXPECT_THROW(gemm_exact(a, b, out, GemmOp::kTN), std::invalid_argument);
    EXPECT_THROW(gemm_exact(a, b, out, GemmOp::kNT), std::invalid_argument);
    Matrix wrong(5, 4);
    EXPECT_THROW(gemm_exact(a, b, wrong, GemmOp::kNN), std::invalid_argument);
    Matrix sq(3, 3, 1.0);
    EXPECT_THROW(gemm_exact(sq, sq, sq, GemmOp::kTN), std::invalid_argument);
    EXPECT_THROW(gemm_exact(sq, sq, sq, GemmOp::kNT), std::invalid_argument);
  }
}

TEST(GemmProperty, OutAliasingAnOperandThrows) {
  Matrix a(4, 4, 1.0), b(4, 4, 1.0);
  EXPECT_THROW(gemm_naive(a, b, a), std::invalid_argument);
  EXPECT_THROW(gemm_naive(a, b, b), std::invalid_argument);
  EXPECT_THROW(gemm_blocked(a, b, a, {2, 2, 2}), std::invalid_argument);
  EXPECT_THROW(gemm(a, b, b), std::invalid_argument);
}

TEST(GemmDispatch, PlanEntryPointMatchesNaiveForEveryKernelChoice) {
  std::mt19937 gen(7);
  const Matrix a = random_matrix(13, 21, gen);
  const Matrix b = random_matrix(21, 11, gen);
  Matrix expected(13, 11), actual(13, 11);
  gemm_naive(a, b, expected);
  for (GemmKernel kernel : {GemmKernel::kAuto, GemmKernel::kScalar,
                            GemmKernel::kAvx2, GemmKernel::kAvx512}) {
    // A kernel the CPU lacks must degrade to one it has, not fault.
    gemm(a, b, actual, GemmPlan{kernel, GemmBlocking{8, 8, 8}});
    EXPECT_LT(max_abs_diff(expected, actual), 1e-12);
  }
}

TEST(GemmDispatch, OverrideRoundTripsAndForcesThePlanKernel) {
  KernelOverrideGuard guard;
  set_gemm_kernel_override(GemmKernel::kScalar);
  EXPECT_EQ(active_gemm_kernel(), GemmKernel::kScalar);
  EXPECT_TRUE(gemm_kernel_forced());
  if (cpu_has_avx2_fma()) {
    set_gemm_kernel_override(GemmKernel::kAvx2);
    EXPECT_EQ(active_gemm_kernel(), GemmKernel::kAvx2);
    EXPECT_TRUE(gemm_kernel_forced());
  }
  // A forced kAvx512 clamps to the best kernel this CPU has.
  set_gemm_kernel_override(GemmKernel::kAvx512);
  EXPECT_EQ(active_gemm_kernel(), runnable_gemm_kernel(GemmKernel::kAuto));
  EXPECT_TRUE(gemm_kernel_forced());
  set_gemm_kernel_override(std::nullopt);
  // Back to the CPUID/LE_KERNEL default; it must be a concrete kernel.
  EXPECT_NE(active_gemm_kernel(), GemmKernel::kAuto);
}

TEST(GemmDispatch, ForcedOverrideWinsOverAnExplicitPlanKernel) {
  KernelOverrideGuard guard;
  std::mt19937 gen(11);
  const Matrix a = random_matrix(6, 10, gen);
  const Matrix b = random_matrix(10, 9, gen);
  Matrix reference(6, 9), pinned(6, 9);
  set_gemm_kernel_override(GemmKernel::kScalar);
  gemm(a, b, reference, GemmPlan{GemmKernel::kScalar, {}});
  // The operator escape hatch: a pinned process-wide kernel trumps the
  // per-layer plan, so the explicit kAvx2 request runs scalar — bitwise.
  gemm(a, b, pinned, GemmPlan{GemmKernel::kAvx2, {}});
  EXPECT_EQ(max_abs_diff(reference, pinned), 0.0);
}

TEST(VTanh, WithinDocumentedToleranceOfStdTanh) {
  std::vector<double> x;
  for (double v = -12.0; v <= 12.0; v += 1e-3) x.push_back(v);
  for (double v : {0.0, 1e-300, -1e-300, 8.999999, -8.999999, 700.0, -700.0,
                   1e308, -1e308}) {
    x.push_back(v);
  }
  std::vector<double> y(x.size());
  vtanh(x, y);
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    worst = std::max(worst, std::abs(y[i] - std::tanh(x[i])));
    EXPECT_LE(std::abs(y[i]), 1.0);
  }
  EXPECT_LT(worst, 1e-7);  // the section 13 activation tolerance
}

TEST(VTanh, TailElementsAreBitIdenticalRegardlessOfSpanLength) {
  // The AVX2 kernel runs tail elements through the same vector code on a
  // padded buffer, so predict (1 row) and predict_batch (b rows) see
  // bit-identical activations.  Check every prefix length across the
  // 4-lane boundary.
  std::mt19937 gen(5);
  std::uniform_real_distribution<double> dist(-4.0, 4.0);
  std::vector<double> x(11);
  for (double& v : x) v = dist(gen);
  std::vector<double> full(x.size());
  vtanh(x, full);
  for (std::size_t len = 1; len <= x.size(); ++len) {
    std::vector<double> part(len);
    vtanh(std::span<const double>{x.data(), len}, part);
    for (std::size_t i = 0; i < len; ++i) EXPECT_EQ(part[i], full[i]);
  }
}

TEST(VRelu, ExactOnAllPathsIncludingTails) {
  std::mt19937 gen(17);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  for (std::size_t len : {std::size_t{1}, std::size_t{4}, std::size_t{7},
                          std::size_t{64}, std::size_t{65}}) {
    std::vector<double> x(len), y(len);
    for (double& v : x) v = dist(gen);
    x[0] = 0.0;
    vrelu(x, y);
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(y[i], std::max(x[i], 0.0));
    }
  }
}

TEST(VTanhVRelu, SpanContractAliasingAndLengths) {
  std::vector<double> buf{-1.0, 0.5, 2.0, -0.25, 1.5};
  std::vector<double> expected(buf.size());
  vtanh(buf, expected);
  // Exact aliasing is allowed (the in-place activation hot path)...
  std::vector<double> inplace = buf;
  vtanh(inplace, inplace);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(inplace[i], expected[i]);
  }
  // ...but length mismatches and partial overlap are hard errors.
  std::vector<double> wrong(3);
  EXPECT_THROW(vtanh(buf, wrong), std::invalid_argument);
  EXPECT_THROW(vrelu(buf, wrong), std::invalid_argument);
  std::span<double> shifted{buf.data() + 1, buf.size() - 1};
  EXPECT_THROW(
      vtanh(std::span<const double>{buf.data(), buf.size() - 1}, shifted),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fused dense layer (dense / dense_avx2)

/// The top-left rows x cols block of `m`.
Matrix block(const Matrix& m, std::size_t rows, std::size_t cols) {
  Matrix out(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) out(r, c) = m(r, c);
  }
  return out;
}

/// What a fused dense layer must equal: the plan's GEMM, then `+= bias`,
/// then vtanh/vrelu, as three passes under the active kernel.
Matrix layered_dense(const Matrix& a, const Matrix& w,
                     std::span<const double> bias, DenseActivation activation,
                     const GemmBlocking& blocking = {}) {
  Matrix out(a.rows(), w.cols());
  gemm(a, w, out, {GemmKernel::kAuto, blocking});
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) += bias[c];
  }
  if (activation == DenseActivation::kTanh) vtanh(out.flat(), out.flat());
  if (activation == DenseActivation::kRelu) vrelu(out.flat(), out.flat());
  return out;
}

constexpr DenseActivation kEpilogues[] = {
    DenseActivation::kNone, DenseActivation::kTanh, DenseActivation::kRelu};

/// The kernels a fused-kernel property runs under: forced kScalar, and
/// kAvx2 and kAvx512 where the CPU has them.
std::vector<GemmKernel> runnable_kernels() {
  std::vector<GemmKernel> kernels{GemmKernel::kScalar};
  if (cpu_has_avx2_fma()) kernels.push_back(GemmKernel::kAvx2);
  if (cpu_has_avx512f()) kernels.push_back(GemmKernel::kAvx512);
  return kernels;
}

/// Property: dense() equals the layered GEMM, `+= bias`, vtanh/vrelu
/// sequence bit for bit, for m in 1..9, 64, 65, k in 1..70 (kc = 64, so
/// k > 64 takes two k-blocks and the epilogue must wait for the second),
/// n in 1..9, 32, 33 (4x8 tiles, the 4-lane strip and the masked 1-3 lane
/// strip), every epilogue, under forced kScalar, kAvx2 and kAvx512, where
/// dense_avx2 and dense_avx512 are also called directly.  Outputs start as
/// NaN, so an element the kernel skips cannot pass.
TEST(DenseFused, EqualsLayeredGemmBiasActivationOnEveryShapeAndKernel) {
  KernelOverrideGuard guard;
  std::mt19937 gen(2019);
  const Matrix a_all = random_matrix(65, 70, gen);
  const Matrix w_all = random_matrix(70, 33, gen);
  const Matrix bias_all = random_matrix(1, 33, gen);
  const std::vector<std::size_t> ms{1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 65};
  const std::vector<std::size_t> ns{1, 2, 3, 4, 5, 6, 7, 8, 9, 32, 33};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const GemmKernel kernel : runnable_kernels()) {
    set_gemm_kernel_override(kernel);
    for (std::size_t k = 1; k <= 70; ++k) {
      for (const std::size_t n : ns) {
        const Matrix w = block(w_all, k, n);
        const std::span<const double> bias{bias_all.data(), n};
        for (const std::size_t m : ms) {
          const Matrix a = block(a_all, m, k);
          for (const DenseActivation act : kEpilogues) {
            const Matrix expected = layered_dense(a, w, bias, act);
            Matrix out(m, n, nan);
            dense(a, w, bias, out, act);
            ASSERT_TRUE(same_bits(expected, out))
                << to_string(kernel) << " " << m << "x" << k << "x" << n
                << " epilogue " << static_cast<int>(act);
            if (kernel == GemmKernel::kAvx2) {
              Matrix direct(m, n, nan);
              dense_avx2(a, w, bias, direct, act);
              ASSERT_TRUE(same_bits(expected, direct))
                  << "dense_avx2 " << m << "x" << k << "x" << n;
            }
            if (kernel == GemmKernel::kAvx512) {
              Matrix direct(m, n, nan);
              dense_avx512(a, w, bias, direct, act);
              ASSERT_TRUE(same_bits(expected, direct))
                  << "dense_avx512 " << m << "x" << k << "x" << n;
            }
          }
        }
      }
    }
  }
}

/// Property: the epilogue runs once, after the last k-block, under any
/// blocking: random mc, kc, nc in 1..9 split every dimension into several
/// blocks, and the per-layer plan's kernel is honoured as gemm() honours
/// it (an explicit kScalar plan runs the layered path).
TEST(DenseFused, EqualsLayeredUnderRandomBlockingsAndPlans) {
  KernelOverrideGuard guard;
  std::mt19937 gen(1909);
  std::uniform_int_distribution<std::size_t> dim(1, 40);
  std::uniform_int_distribution<std::size_t> block_dist(1, 9);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t m = dim(gen), k = dim(gen), n = dim(gen);
    const Matrix a = random_matrix(m, k, gen);
    const Matrix w = random_matrix(k, n, gen);
    const Matrix bias = random_matrix(1, n, gen);
    const GemmBlocking blocking{block_dist(gen), block_dist(gen),
                                block_dist(gen)};
    for (const GemmKernel kernel : runnable_kernels()) {
      for (const DenseActivation act : kEpilogues) {
        const GemmPlan plan{kernel, blocking};
        Matrix expected(m, n);
        gemm(a, w, expected, plan);
        for (std::size_t r = 0; r < m; ++r) {
          for (std::size_t c = 0; c < n; ++c) expected(r, c) += bias(0, c);
        }
        if (act == DenseActivation::kTanh) {
          vtanh(expected.flat(), expected.flat());
        }
        if (act == DenseActivation::kRelu) {
          vrelu(expected.flat(), expected.flat());
        }
        Matrix out(m, n, std::numeric_limits<double>::quiet_NaN());
        dense(a, w, bias.flat(), out, act, plan);
        ASSERT_TRUE(same_bits(expected, out))
            << to_string(kernel) << " " << m << "x" << k << "x" << n
            << " mc=" << blocking.mc << " kc=" << blocking.kc
            << " nc=" << blocking.nc << " epilogue " << static_cast<int>(act);
      }
    }
  }
}

/// A row answered alone gets the bits it gets inside a batch, under every
/// kernel and epilogue.
TEST(DenseFused, RowAloneEqualsTheSameRowInsideABatch) {
  KernelOverrideGuard guard;
  std::mt19937 gen(64);
  const Matrix a = random_matrix(65, 37, gen);
  const Matrix w = random_matrix(37, 33, gen);
  const Matrix bias = random_matrix(1, 33, gen);
  for (const GemmKernel kernel : runnable_kernels()) {
    set_gemm_kernel_override(kernel);
    for (const DenseActivation act : kEpilogues) {
      Matrix batch(65, 33);
      dense(a, w, bias.flat(), batch, act);
      for (std::size_t r = 0; r < a.rows(); ++r) {
        Matrix row(1, 37), alone(1, 33);
        std::copy(a.row(r).begin(), a.row(r).end(), row.data());
        dense(row, w, bias.flat(), alone, act);
        ASSERT_EQ(std::memcmp(alone.data(), batch.row(r).data(),
                              33 * sizeof(double)),
                  0)
            << to_string(kernel) << " row " << r;
      }
    }
  }
}

/// -0.0, NaN, +-inf and subnormals in the input (and -0.0 and a subnormal
/// in the bias) reach the epilogue with the layered path's bits: the same
/// rounded add, the same clamp of tanh4 (NaN clamps to -9) and the same
/// max(x, 0) operand order (NaN and -0.0 give +0.0).
TEST(DenseFused, SpecialValuesMatchTheLayeredPath) {
  KernelOverrideGuard guard;
  std::mt19937 gen(7);
  const double specials[] = {-0.0,
                             0.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             -2.5e-310,
                             1e-300};
  Matrix a = random_matrix(13, 9, gen);
  for (std::size_t i = 0; i < a.size(); i += 3) {
    a.data()[i] = specials[(i / 3) % std::size(specials)];
  }
  // A row of zeros and -0.0 only: its product is +0.0 before the bias.
  for (std::size_t c = 0; c < a.cols(); ++c) a(12, c) = c % 2 ? -0.0 : 0.0;
  const Matrix w = random_matrix(9, 11, gen);
  Matrix bias = random_matrix(1, 11, gen);
  bias(0, 0) = -0.0;
  bias(0, 1) = std::numeric_limits<double>::denorm_min();
  bias(0, 2) = 0.0;
  for (const GemmKernel kernel : runnable_kernels()) {
    set_gemm_kernel_override(kernel);
    for (const DenseActivation act : kEpilogues) {
      const Matrix expected = layered_dense(a, w, bias.flat(), act);
      Matrix out(a.rows(), w.cols());
      dense(a, w, bias.flat(), out, act);
      EXPECT_TRUE(same_bits(expected, out))
          << to_string(kernel) << " epilogue " << static_cast<int>(act);
    }
    // The ReLU epilogue is x > 0 ? x : 0 of the pre-activation, NaN rows
    // included, whatever kernel vrelu runs on.
    Matrix pre(a.rows(), w.cols()), relu(a.rows(), w.cols());
    dense(a, w, bias.flat(), pre, DenseActivation::kNone);
    dense(a, w, bias.flat(), relu, DenseActivation::kRelu);
    for (double& v : pre.flat()) v = v > 0.0 ? v : 0.0;
    EXPECT_TRUE(same_bits(pre, relu)) << to_string(kernel);
  }
}

// ---------------------------------------------------------------------------
// The AVX-512 tier against the AVX2 one, bit for bit: the same FMA chain
// per element and the same tanh sequence, on 8 lanes instead of 4.

/// gemm_avx512 and dense_avx512 (every epilogue) against gemm_avx2 and
/// dense_avx2, bit for bit, for m in 1..9, 64, 65, k in 1..70 (two k-blocks
/// past 64) and n in 1..9, 16, 17, 32, 33: the 4x32 zmm tiles, whole 8-lane
/// strips and the masked 1-7 lane strip.  Outputs start as NaN.
TEST(DenseFused, Avx512EqualsAvx2OnEveryShapeAndEpilogue) {
  if (!cpu_has_avx512f()) GTEST_SKIP() << "no AVX-512F on this host";
  std::mt19937 gen(512);
  const Matrix a_all = random_matrix(65, 70, gen);
  const Matrix w_all = random_matrix(70, 33, gen);
  const Matrix bias_all = random_matrix(1, 33, gen);
  const std::vector<std::size_t> ms{1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 65};
  const std::vector<std::size_t> ns{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 32, 33};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t k = 1; k <= 70; ++k) {
    for (const std::size_t n : ns) {
      const Matrix w = block(w_all, k, n);
      const std::span<const double> bias{bias_all.data(), n};
      for (const std::size_t m : ms) {
        const Matrix a = block(a_all, m, k);
        Matrix avx2(m, n, nan), avx512(m, n, nan);
        gemm_avx2(a, w, avx2);
        gemm_avx512(a, w, avx512);
        ASSERT_TRUE(same_bits(avx2, avx512))
            << "gemm " << m << "x" << k << "x" << n;
        for (const DenseActivation act : kEpilogues) {
          avx2.fill(nan);
          avx512.fill(nan);
          dense_avx2(a, w, bias, avx2, act);
          dense_avx512(a, w, bias, avx512, act);
          ASSERT_TRUE(same_bits(avx2, avx512))
              << "dense " << m << "x" << k << "x" << n << " epilogue "
              << static_cast<int>(act);
        }
      }
    }
  }
}

/// The same under random blockings (mc, kc, nc in 1..9 cut every dimension
/// into several blocks, so the epilogue waits for the last k-block) and
/// through the plan entry points: a kAvx512 plan equals a kAvx2 plan.
TEST(DenseFused, Avx512EqualsAvx2UnderRandomBlockingsAndPlans) {
  if (!cpu_has_avx512f()) GTEST_SKIP() << "no AVX-512F on this host";
  std::mt19937 gen(8);
  std::uniform_int_distribution<std::size_t> dim(1, 40);
  std::uniform_int_distribution<std::size_t> block_dist(1, 9);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t m = dim(gen), k = dim(gen), n = dim(gen);
    const Matrix a = random_matrix(m, k, gen);
    const Matrix w = random_matrix(k, n, gen);
    const Matrix bias = random_matrix(1, n, gen);
    const GemmBlocking blocking{block_dist(gen), block_dist(gen),
                                block_dist(gen)};
    for (const DenseActivation act : kEpilogues) {
      Matrix avx2(m, n), avx512(m, n);
      dense_avx2(a, w, bias.flat(), avx2, act, blocking);
      dense_avx512(a, w, bias.flat(), avx512, act, blocking);
      ASSERT_TRUE(same_bits(avx2, avx512))
          << m << "x" << k << "x" << n << " mc=" << blocking.mc
          << " kc=" << blocking.kc << " nc=" << blocking.nc << " epilogue "
          << static_cast<int>(act);
      if (!gemm_kernel_forced()) {
        dense(a, w, bias.flat(), avx2, act, {GemmKernel::kAvx2, blocking});
        dense(a, w, bias.flat(), avx512, act, {GemmKernel::kAvx512, blocking});
        ASSERT_TRUE(same_bits(avx2, avx512)) << "plans " << trial;
      }
    }
  }
}

/// A row answered alone on kAvx512 gets the bits it gets inside a batch on
/// kAvx2, and the other way round.
TEST(DenseFused, Avx512RowAloneEqualsTheAvx2Batch) {
  if (!cpu_has_avx512f()) GTEST_SKIP() << "no AVX-512F on this host";
  std::mt19937 gen(65);
  const Matrix a = random_matrix(65, 37, gen);
  const Matrix w = random_matrix(37, 33, gen);
  const Matrix bias = random_matrix(1, 33, gen);
  for (const DenseActivation act : kEpilogues) {
    Matrix batch2(65, 33), batch512(65, 33);
    dense_avx2(a, w, bias.flat(), batch2, act);
    dense_avx512(a, w, bias.flat(), batch512, act);
    for (std::size_t r = 0; r < a.rows(); ++r) {
      Matrix row(1, 37), alone2(1, 33), alone512(1, 33);
      std::copy(a.row(r).begin(), a.row(r).end(), row.data());
      dense_avx2(row, w, bias.flat(), alone2, act);
      dense_avx512(row, w, bias.flat(), alone512, act);
      ASSERT_EQ(std::memcmp(alone512.data(), batch2.row(r).data(),
                            33 * sizeof(double)),
                0)
          << "row " << r << " epilogue " << static_cast<int>(act);
      ASSERT_EQ(std::memcmp(alone2.data(), batch512.row(r).data(),
                            33 * sizeof(double)),
                0)
          << "row " << r << " epilogue " << static_cast<int>(act);
    }
  }
}

/// -0.0, NaN, +-inf, subnormals and huge finite values reach both tiers'
/// FMA chains and epilogues with the same bits.  Row 0 is the overflow row
/// {1e308, 1e308} . {10, -10}: each FMA adds an exact product to a running
/// sum, so both tiers read +inf before the bias (where separately rounded
/// products would give inf - inf = NaN), and tanh clamps it to 1.
TEST(DenseFused, Avx512SpecialValuesEqualAvx2) {
  if (!cpu_has_avx512f()) GTEST_SKIP() << "no AVX-512F on this host";
  std::mt19937 gen(9);
  const double specials[] = {-0.0,
                             0.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             -2.5e-310,
                             1e308,
                             -1e308};
  for (const std::size_t n : {1, 3, 8, 11, 17, 33}) {
    Matrix a = random_matrix(13, 9, gen);
    for (std::size_t i = 0; i < a.size(); i += 3) {
      a.data()[i] = specials[(i / 3) % std::size(specials)];
    }
    for (std::size_t c = 0; c < a.cols(); ++c) a(0, c) = c < 2 ? 1e308 : 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) a(12, c) = c % 2 ? -0.0 : 0.0;
    Matrix w = random_matrix(9, n, gen);
    for (std::size_t c = 0; c < n; ++c) {
      w(0, c) = 10.0;
      w(1, c) = -10.0;
    }
    Matrix bias = random_matrix(1, n, gen);
    bias(0, 0) = -0.0;
    if (n > 1) bias(0, 1) = std::numeric_limits<double>::denorm_min();
    for (const DenseActivation act : kEpilogues) {
      Matrix avx2(a.rows(), n), avx512(a.rows(), n);
      dense_avx2(a, w, bias.flat(), avx2, act);
      dense_avx512(a, w, bias.flat(), avx512, act);
      EXPECT_TRUE(same_bits(avx2, avx512))
          << "n " << n << " epilogue " << static_cast<int>(act);
      if (act == DenseActivation::kTanh) {
        // The overflow row, first columns: w's rows 2.. add finite terms
        // to +inf, so the pre-activation stays +inf and tanh gives ~1.
        EXPECT_NEAR(avx512(0, 0), 1.0, 1e-7) << "n " << n;
      }
    }
  }
}

TEST(DenseFused, RejectsABiasOfTheWrongLengthAndAliasing) {
  Matrix a(2, 3), w(3, 4), out(2, 4);
  const std::vector<double> short_bias(3, 0.0), bias(4, 0.0);
  EXPECT_THROW(dense(a, w, short_bias, out), std::invalid_argument);
  Matrix wrong(2, 3);
  EXPECT_THROW(dense(a, w, bias, wrong), std::invalid_argument);
  Matrix square(3, 3);
  EXPECT_THROW(dense(square, square, std::vector<double>(3, 0.0), square),
               std::invalid_argument);
}

}  // namespace
}  // namespace le::tensor
