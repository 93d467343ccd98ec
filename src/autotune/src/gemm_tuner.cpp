#include "le/autotune/gemm_tuner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

namespace le::autotune {

namespace {

tensor::Matrix make_operand(std::size_t n, unsigned salt) {
  tensor::Matrix m(n, n);
  // Cheap deterministic fill; values are irrelevant to timing.
  double v = 0.5 + 0.001 * static_cast<double>(salt);
  for (double& x : m.flat()) {
    v = v * 1.0000001 + 0.000001;
    x = v;
  }
  return m;
}

data::ParamSpace blocking_space(const GemmTuneConfig& config) {
  data::ParamSpace space;
  space.add_axis({"mc", static_cast<double>(config.block_min),
                  static_cast<double>(config.block_max), true});
  space.add_axis({"kc", static_cast<double>(config.block_min),
                  static_cast<double>(config.block_max), true});
  space.add_axis({"nc", static_cast<double>(config.block_min),
                  static_cast<double>(config.block_max), true});
  return space;
}

tensor::GemmBlocking to_blocking(const std::vector<double>& point) {
  return {static_cast<std::size_t>(point[0]), static_cast<std::size_t>(point[1]),
          static_cast<std::size_t>(point[2])};
}

}  // namespace

double time_gemm(const GemmTuneConfig& config,
                 const tensor::GemmBlocking& blocking) {
  const tensor::Matrix a = make_operand(config.matrix_size, 1);
  const tensor::Matrix b = make_operand(config.matrix_size, 2);
  tensor::Matrix c(config.matrix_size, config.matrix_size);
  std::vector<double> times;
  times.reserve(config.repetitions);
  const tensor::GemmPlan plan{config.kernel, blocking};
  for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    tensor::gemm(a, b, c, plan);
    const auto t1 = std::chrono::steady_clock::now();
    times.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

GemmTuneOutcome tune_gemm(const GemmTuneConfig& config,
                          const ModelGuidedConfig& search, stats::Rng& rng) {
  const Objective objective = [&](const std::vector<double>& point) {
    return time_gemm(config, to_blocking(point));
  };
  const SearchResult result =
      model_guided_search(blocking_space(config), search, objective, rng);

  GemmTuneOutcome outcome;
  outcome.best = to_blocking(result.best_point);
  outcome.best_seconds = result.best_value;
  outcome.evaluations = result.evaluations;
  outcome.default_seconds = time_gemm(config, tensor::GemmBlocking{});
  {
    const tensor::Matrix a = make_operand(config.matrix_size, 1);
    const tensor::Matrix b = make_operand(config.matrix_size, 2);
    tensor::Matrix c(config.matrix_size, config.matrix_size);
    const auto t0 = std::chrono::steady_clock::now();
    tensor::gemm_naive(a, b, c);
    const auto t1 = std::chrono::steady_clock::now();
    outcome.naive_seconds = std::chrono::duration<double>(t1 - t0).count();
  }
  return outcome;
}

GemmPlanTuneOutcome tune_gemm_plan(const GemmTuneConfig& config,
                                   const ModelGuidedConfig& search,
                                   stats::Rng& rng) {
  std::vector<tensor::GemmKernel> kernels{tensor::GemmKernel::kScalar};
  if (tensor::cpu_has_avx2_fma()) {
    kernels.push_back(tensor::GemmKernel::kAvx2);
  }
  if (tensor::cpu_has_avx512f()) {
    kernels.push_back(tensor::GemmKernel::kAvx512);
  }
  GemmPlanTuneOutcome outcome;
  outcome.best_seconds = std::numeric_limits<double>::infinity();
  for (const tensor::GemmKernel kernel : kernels) {
    GemmTuneConfig per_kernel = config;
    per_kernel.kernel = kernel;
    const GemmTuneOutcome tuned = tune_gemm(per_kernel, search, rng);
    outcome.evaluations += tuned.evaluations;
    if (kernel == tensor::GemmKernel::kScalar) {
      outcome.scalar_best_seconds = tuned.best_seconds;
    }
    if (tuned.best_seconds < outcome.best_seconds) {
      outcome.best_seconds = tuned.best_seconds;
      outcome.best = tensor::GemmPlan{kernel, tuned.best};
    }
  }
  return outcome;
}

GemmTuneOutcome tune_gemm_grid(const GemmTuneConfig& config) {
  GemmTuneOutcome outcome;
  outcome.best_seconds = std::numeric_limits<double>::infinity();
  for (std::size_t mc = config.block_min; mc <= config.block_max; mc *= 2) {
    for (std::size_t kc = config.block_min; kc <= config.block_max; kc *= 2) {
      for (std::size_t nc = config.block_min; nc <= config.block_max; nc *= 2) {
        const tensor::GemmBlocking blocking{mc, kc, nc};
        const double t = time_gemm(config, blocking);
        ++outcome.evaluations;
        if (t < outcome.best_seconds) {
          outcome.best_seconds = t;
          outcome.best = blocking;
        }
      }
    }
  }
  outcome.default_seconds = time_gemm(config, tensor::GemmBlocking{});
  return outcome;
}

}  // namespace le::autotune
