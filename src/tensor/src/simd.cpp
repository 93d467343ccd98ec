#include "le/tensor/simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace le::tensor {

std::string to_string(GemmKernel kernel) {
  switch (kernel) {
    case GemmKernel::kAuto: return "auto";
    case GemmKernel::kScalar: return "scalar";
    case GemmKernel::kAvx2: return "avx2";
    case GemmKernel::kAvx512: return "avx512";
  }
  return "unknown";
}

GemmKernel gemm_kernel_from_string(const std::string& name) {
  if (name == "auto") return GemmKernel::kAuto;
  if (name == "scalar") return GemmKernel::kScalar;
  if (name == "avx2") return GemmKernel::kAvx2;
  throw std::invalid_argument("unknown gemm kernel: " + name);
}

bool cpu_has_avx2_fma() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports runs CPUID once and caches; both gcc and clang
  // provide it on x86.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_has_avx512f() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return cpu_has_avx2_fma() && __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

GemmKernel runnable_gemm_kernel(GemmKernel kernel) noexcept {
  if (kernel == GemmKernel::kAuto || kernel == GemmKernel::kAvx512) {
    if (cpu_has_avx512f()) return GemmKernel::kAvx512;
    kernel = GemmKernel::kAvx2;
  }
  if (kernel == GemmKernel::kAvx2 && !cpu_has_avx2_fma()) {
    return GemmKernel::kScalar;
  }
  return kernel;
}

namespace {

/// kAuto doubles as the "not yet resolved / no override" sentinel in the
/// two atomics below; neither ever exposes it to callers.
std::atomic<GemmKernel> g_default{GemmKernel::kAuto};
std::atomic<GemmKernel> g_override{GemmKernel::kAuto};
/// Set when LE_KERNEL named a concrete kernel (not auto/invalid).
std::atomic<bool> g_env_forced{false};

GemmKernel resolve_default() noexcept {
  GemmKernel requested = GemmKernel::kAuto;
  if (const char* env = std::getenv("LE_KERNEL")) {
    try {
      requested = gemm_kernel_from_string(env);
    } catch (const std::invalid_argument&) {
      std::fprintf(stderr,
                   "le::tensor: ignoring invalid LE_KERNEL='%s' "
                   "(expected auto|scalar|avx2)\n",
                   env);
    }
  }
  if (requested != GemmKernel::kAuto) {
    g_env_forced.store(true, std::memory_order_relaxed);
  }
  return runnable_gemm_kernel(requested);
}

}  // namespace

GemmKernel default_gemm_kernel() noexcept {
  GemmKernel cached = g_default.load(std::memory_order_relaxed);
  if (cached == GemmKernel::kAuto) {
    cached = resolve_default();
    g_default.store(cached, std::memory_order_relaxed);
  }
  return cached;
}

void set_gemm_kernel_override(std::optional<GemmKernel> kernel) noexcept {
  g_override.store(kernel ? runnable_gemm_kernel(*kernel) : GemmKernel::kAuto,
                   std::memory_order_relaxed);
}

GemmKernel active_gemm_kernel() noexcept {
  const GemmKernel forced = g_override.load(std::memory_order_relaxed);
  return forced == GemmKernel::kAuto ? default_gemm_kernel() : forced;
}

bool gemm_kernel_forced() noexcept {
  if (g_override.load(std::memory_order_relaxed) != GemmKernel::kAuto) {
    return true;
  }
  (void)default_gemm_kernel();  // make sure LE_KERNEL has been parsed
  return g_env_forced.load(std::memory_order_relaxed);
}

}  // namespace le::tensor
