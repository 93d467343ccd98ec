/// @file
/// Dense linear-algebra kernels.
///
/// Every kernel exists in a plain (reference) form; gemm additionally has a
/// cache-blocked form whose block sizes are exposed as parameters so the
/// MLautotuning experiment (bench_gemm_blocking, the paper's ATLAS example)
/// can search over them.
#pragma once

#include <cstddef>
#include <span>

#include "le/tensor/matrix.hpp"
#include "le/tensor/simd.hpp"

namespace le::tensor {

/// Block sizes for the tiled GEMM.  The defaults suit small L1 caches; the
/// autotune library searches this space.
struct GemmBlocking {
  std::size_t mc = 64;  ///< rows of A per macro block
  std::size_t kc = 64;  ///< inner (shared) dimension per block
  std::size_t nc = 64;  ///< cols of B per macro block
};

/// A complete kernel choice for one GEMM call site: which micro-kernel
/// family runs it and at what blocking.  The per-layer inference autotuner
/// (nn::Network::autotune_inference, the ATLAS example generalized) searches
/// this space per layer shape; kAuto defers the kernel pick to
/// active_gemm_kernel() at call time.
struct GemmPlan {
  GemmKernel kernel = GemmKernel::kAuto;
  GemmBlocking blocking;
};

/// out = A * B (reference triple loop, ikj order). Shapes must conform.
/// `out` must not alias `a` or `b` (all gemm variants zero `out` first).
void gemm_naive(const Matrix& a, const Matrix& b, Matrix& out);

/// out = A * B with cache blocking. Bit-for-bit identical accumulation order
/// is NOT guaranteed relative to gemm_naive; results agree to rounding.
void gemm_blocked(const Matrix& a, const Matrix& b, Matrix& out,
                  const GemmBlocking& blocking = {});

/// out = A * B through the AVX2+FMA register-tiled micro-kernel (4x8 tiles
/// inside the same macro-block structure as gemm_blocked; tail rows and
/// columns run as 4-lane strips, the last 1-3 columns masked).  Precondition:
/// cpu_has_avx2_fma() — call through gemm() for the checked dispatch.
/// Accumulation order differs from the scalar kernels; results agree to the
/// tolerance documented in DESIGN.md section 13.
void gemm_avx2(const Matrix& a, const Matrix& b, Matrix& out,
               const GemmBlocking& blocking = {});

/// out = A * B through the AVX-512F form of gemm_avx2's tile loop nest
/// (8-lane zmm tiles; the last 1-7 columns on its 4-lane strips).  Precondition:
/// cpu_has_avx512f().  Every element is the same FMA chain over k as in
/// gemm_avx2, so the two give the same bits on every shape and input.
void gemm_avx512(const Matrix& a, const Matrix& b, Matrix& out,
                 const GemmBlocking& blocking = {});

/// out = A * B through the plan's kernel: kAuto resolves via
/// active_gemm_kernel() (CPUID + LE_KERNEL override), and a kernel the CPU
/// cannot run clamps to the best kernel the CPU runs
/// (runnable_gemm_kernel) rather than faulting.  This is the single
/// entry point of the serving hot path (nn::Layer::infer).
void gemm(const Matrix& a, const Matrix& b, Matrix& out,
          const GemmPlan& plan = {});

/// The pointwise step a fused dense layer applies after its bias.
enum class DenseActivation {
  kNone,  ///< out = A * W + bias
  kTanh,  ///< out = tanh(A * W + bias), through vtanh's kernel
  kRelu,  ///< out = max(A * W + bias, 0), through vrelu's kernel
};

/// One inference dense layer: out = act(A * W + bias), `bias` one entry per
/// column of W.  When the plan resolves to kAvx2 or kAvx512 (as gemm()
/// resolves it) this is dense_avx2 or dense_avx512, one pass with the bias
/// and activation applied in registers; otherwise it is gemm(), then a
/// `+= bias` pass, then vtanh/vrelu, which under kScalar means gemm_blocked
/// and std::tanh.  Each gives the same bits as that layered sequence on its
/// kernel, and kAvx512 gives kAvx2's bits.  `out` must already have A's
/// rows and W's columns and must not alias an input.
void dense(const Matrix& a, const Matrix& w, std::span<const double> bias,
           Matrix& out, DenseActivation activation = DenseActivation::kNone,
           const GemmPlan& plan = {});

/// AVX2 form of dense() (precondition cpu_has_avx2_fma()): gemm_avx2's
/// tiles with the epilogue run on each tile's accumulators after its last
/// k-block, so the result equals gemm_avx2, `+= bias`, then
/// vtanh_avx2/vrelu_avx2 bit for bit.
void dense_avx2(const Matrix& a, const Matrix& w, std::span<const double> bias,
                Matrix& out, DenseActivation activation,
                const GemmBlocking& blocking = {});

/// AVX-512F form of dense() (precondition cpu_has_avx512f()): gemm_avx512's
/// tiles with dense_avx2's epilogue on 8 lanes, equal to dense_avx2 bit for
/// bit.
void dense_avx512(const Matrix& a, const Matrix& w,
                  std::span<const double> bias, Matrix& out,
                  DenseActivation activation,
                  const GemmBlocking& blocking = {});

/// Operand layout of gemm_exact: which operand enters transposed.
enum class GemmOp {
  kNN,  ///< out = A * B
  kTN,  ///< out = A^T * B, A stored k x m
  kNT,  ///< out = A * B^T, B stored n x k
};

/// out = op(A) * op(B), bit-identical to gemm_naive on the materialized
/// transposes on every kernel: each element starts at 0.0 and adds, for p
/// ascending, one separately rounded product (never an FMA).  This is the
/// training path (nn::DenseLayer forward and backward), so kernel choice
/// never changes trained weights.  The active kernel picks the AVX2 strip
/// kernel (kAvx2 or kAvx512; no transposed copy is made) or, under
/// kScalar, gemm_naive on explicit transposes.  `out` must already have
/// op(A)'s rows and op(B)'s columns and must not alias an operand.
void gemm_exact(const Matrix& a, const Matrix& b, Matrix& out,
                GemmOp op = GemmOp::kNN);

/// AVX2 form of gemm_exact (same contract; precondition
/// cpu_has_avx2_fma()).
void gemm_exact_avx2(const Matrix& a, const Matrix& b, Matrix& out,
                     GemmOp op = GemmOp::kNN);

/// Elementwise y = tanh(x) through the active kernel.  The scalar kernel is
/// std::tanh exactly; the AVX2 kernel (also under kAvx512) uses a clamped
/// rational minimax approximation whose absolute error vs std::tanh is
/// < 1e-7 (part of the DESIGN.md section 13 tolerance contract).  x and y
/// may alias exactly.
void vtanh(std::span<const double> x, std::span<double> y);

/// Elementwise y = max(x, 0) through the active kernel; exact on all paths.
/// x and y may alias exactly.
void vrelu(std::span<const double> x, std::span<double> y);

/// AVX2 implementations (precondition cpu_has_avx2_fma()); vtanh/vrelu
/// dispatch here when the active kernel is kAvx2 or kAvx512.
void vtanh_avx2(std::span<const double> x, std::span<double> y);
void vrelu_avx2(std::span<const double> x, std::span<double> y);

/// Convenience allocating wrappers.
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);

/// out = A * x. x.size() must equal a.cols(); out.size() must equal a.rows().
void matvec(const Matrix& a, std::span<const double> x, std::span<double> out);

/// out = A^T * x. x.size() must equal a.rows(); out.size() must equal a.cols().
void matvec_transposed(const Matrix& a, std::span<const double> x,
                       std::span<double> out);

/// y += alpha * x (saxpy over spans of equal length).
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// Dot product of two equal-length spans.
[[nodiscard]] double dot(std::span<const double> x, std::span<const double> y);

/// Euclidean norm.
[[nodiscard]] double norm2(std::span<const double> x);

/// Elementwise in-place scale: x *= alpha.
void scale(double alpha, std::span<double> x);

/// c = a + b elementwise; all three must have identical shape.
void add(const Matrix& a, const Matrix& b, Matrix& c);

/// c = a - b elementwise; all three must have identical shape.
void sub(const Matrix& a, const Matrix& b, Matrix& c);

/// Elementwise (Hadamard) product c = a .* b.
void hadamard(const Matrix& a, const Matrix& b, Matrix& c);

/// Frobenius norm of a matrix.
[[nodiscard]] double frobenius_norm(const Matrix& a);

/// Max absolute elementwise difference between two equal-shaped matrices.
[[nodiscard]] double max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace le::tensor
