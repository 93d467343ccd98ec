/// @file
/// Runtime SIMD kernel dispatch for the inference hot path.
///
/// The serving tier is math-floor-bound (E13): per-query cost is dominated
/// by the small-GEMM forward pass, so the S -> T_seq/T_lookup limit of the
/// paper's Section III-D effective-speedup equation is capped by kernel
/// throughput.  This header resolves, once per process, which GEMM
/// micro-kernel family the hardware can run (CPUID) and which one the
/// operator asked for (the LE_KERNEL environment override), and exposes the
/// result to tensor::gemm() and the per-layer autotuner.
///
/// Dispatch contract:
///   - kScalar is always available and is the correctness reference; every
///     other kernel must agree with it to the documented tolerance
///     (DESIGN.md section 13).
///   - kAvx2 is selected only when CPUID reports AVX2 *and* FMA; forcing it
///     on unsupported hardware falls back to scalar rather than faulting.
///   - kAvx512 runs gemm() and dense() on 8-lane zmm tiles and is selected
///     only when CPUID also reports AVX-512F; pinned elsewhere (an explicit
///     GemmPlan or set_gemm_kernel_override()) it clamps to kAvx2, then
///     kScalar.  It equals kAvx2 bit for bit on every shape and
///     input (the same FMA chain per element, the same tanh sequence), so
///     choosing between the two never changes an answer.  Every other
///     kernel body (training GEMM, dropout, Adam, vtanh/vrelu) runs its
///     AVX2 form under kAvx512: test avx2_or_wider(), never == kAvx2.
///   - LE_KERNEL=scalar|avx2|auto overrides the automatic choice for tests,
///     benches and operators (auto = the best CPUID pick, kAvx512 where the
///     CPU has it; avx2 bypasses the AVX-512 tier);
///     set_gemm_kernel_override() does the same in-process and may also pin
///     kAvx512.
#pragma once

#include <optional>
#include <string>

namespace le::tensor {

/// GEMM micro-kernel families, in increasing hardware requirement order.
enum class GemmKernel {
  kAuto,    ///< resolve via active_gemm_kernel() at call time
  kScalar,  ///< portable blocked reference kernel (gemm_blocked)
  kAvx2,    ///< AVX2+FMA register-tiled micro-kernel (gemm_avx2)
  kAvx512,  ///< AVX-512F 8-lane tiles for gemm/dense (gemm_avx512)
};

[[nodiscard]] std::string to_string(GemmKernel kernel);

/// Parses "auto", "scalar" or "avx2" (the LE_KERNEL vocabulary); throws
/// std::invalid_argument on anything else.  kAvx512 has no name here: under
/// "auto" it is the pick wherever the CPU has AVX-512F.
[[nodiscard]] GemmKernel gemm_kernel_from_string(const std::string& name);

/// True when CPUID reports both AVX2 and FMA, i.e. gemm_avx2 may run.
[[nodiscard]] bool cpu_has_avx2_fma() noexcept;

/// True when CPUID reports AVX-512F on top of AVX2 and FMA, i.e.
/// gemm_avx512 may run.
[[nodiscard]] bool cpu_has_avx512f() noexcept;

/// True for the kernels whose process may run AVX2 code (kAvx2 and
/// kAvx512): the one test every AVX2 kernel body dispatches on, so a
/// wider tier keeps them rather than dropping them to scalar.  Pass a
/// resolved (runnable) kernel, e.g. active_gemm_kernel().
[[nodiscard]] constexpr bool avx2_or_wider(GemmKernel kernel) noexcept {
  return kernel == GemmKernel::kAvx2 || kernel == GemmKernel::kAvx512;
}

/// `kernel` clamped to what this CPU can run: kAvx512 without AVX-512F
/// becomes kAvx2, kAvx2 without AVX2/FMA becomes kScalar, and kAuto
/// becomes the best kernel the CPU has.  Never returns kAuto.
[[nodiscard]] GemmKernel runnable_gemm_kernel(GemmKernel kernel) noexcept;

/// The kernel the process resolved at first use: the LE_KERNEL environment
/// override when set (invalid values fall back to auto with a one-time
/// stderr warning), otherwise the best CPUID-supported kernel.  Never
/// returns kAuto, and never returns a kernel the CPU cannot run.
[[nodiscard]] GemmKernel default_gemm_kernel() noexcept;

/// In-process override for tests and benches: forces active_gemm_kernel()
/// to `kernel` (nullopt restores the default).  A forced kernel the
/// hardware lacks is clamped by runnable_gemm_kernel() — the override
/// selects among runnable kernels, it cannot make hardware appear.
void set_gemm_kernel_override(std::optional<GemmKernel> kernel) noexcept;

/// The kernel gemm() dispatches to right now: the override when one is
/// set, else default_gemm_kernel().  Never kAuto, always runnable.
[[nodiscard]] GemmKernel active_gemm_kernel() noexcept;

/// True when the kernel choice was pinned explicitly — LE_KERNEL named a
/// concrete kernel (not "auto"), or set_gemm_kernel_override() holds a
/// value.  A pinned choice is an operator escape hatch: tensor::gemm()
/// honors it even over a per-layer tuned GemmPlan, so LE_KERNEL=scalar
/// reliably forces the reference kernel everywhere.
[[nodiscard]] bool gemm_kernel_forced() noexcept;

}  // namespace le::tensor
