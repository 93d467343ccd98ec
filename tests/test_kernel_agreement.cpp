// Numerical-agreement suite for the micro-kernel layer (DESIGN.md section
// 13): the scalar and AVX2 inference paths must agree on serialized
// example networks within the documented tolerances, training must give
// bit-identical weights on every kernel, and the
// CPUID/LE_KERNEL dispatch must fall back cleanly when pinned to scalar.
//
// tests/CMakeLists.txt registers this binary twice: once normally and once
// with LE_KERNEL=scalar in the environment (ctest test
// "kernel_agreement_forced_scalar"), which drives the forced-fallback
// branch of KernelDispatch.HonorsLeKernelEnvironment and proves every
// other test here also holds with SIMD pinned off.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "le/data/dataset.hpp"
#include "le/nn/loss.hpp"
#include "le/nn/network.hpp"
#include "le/nn/optimizer.hpp"
#include "le/nn/serialize.hpp"
#include "le/nn/train.hpp"
#include "le/stats/rng.hpp"
#include "le/tensor/ops.hpp"
#include "le/tensor/simd.hpp"

namespace le {
namespace {

using nn::Activation;
using nn::Network;
using stats::Rng;

/// Restores the process-wide kernel override on scope exit.
struct KernelOverrideGuard {
  ~KernelOverrideGuard() { tensor::set_gemm_kernel_override(std::nullopt); }
};

/// An example network round-tripped through the serializer, so the
/// agreement statements hold for deployed (loaded-from-bytes) models, not
/// just freshly constructed ones.  The default hidden widths are
/// deliberately not multiples of the 4x8 register tile.
Network serialized_example(Activation activation, unsigned seed,
                           std::vector<std::size_t> hidden = {17, 9}) {
  Rng rng(seed);
  nn::MlpConfig cfg;
  cfg.input_dim = 5;
  cfg.hidden = std::move(hidden);
  cfg.output_dim = 3;
  cfg.activation = activation;
  Network fresh = nn::make_mlp(cfg, rng);
  std::stringstream bytes;
  nn::save_network(bytes, fresh);
  Rng load_rng(seed + 1);
  return nn::load_network(bytes, load_rng);
}

tensor::Matrix example_inputs(std::size_t rows, std::size_t cols,
                              unsigned seed) {
  Rng rng(seed);
  tensor::Matrix m(rows, cols);
  for (double& v : m.flat()) v = rng.uniform(-2.0, 2.0);
  return m;
}

double max_abs(const tensor::Matrix& a, const tensor::Matrix& b) {
  return tensor::max_abs_diff(a, b);
}

TEST(KernelAgreement, ScalarAndAvx2AgreeOnSerializedNetworks) {
  if (!tensor::cpu_has_avx2_fma()) {
    GTEST_SKIP() << "no AVX2+FMA on this host";
  }
  KernelOverrideGuard guard;
  for (Activation activation : {Activation::kTanh, Activation::kRelu}) {
    Network net = serialized_example(activation, 101);
    const tensor::Matrix inputs = example_inputs(33, 5, 102);

    tensor::set_gemm_kernel_override(tensor::GemmKernel::kScalar);
    const tensor::Matrix scalar = net.predict_batch(inputs);
    tensor::set_gemm_kernel_override(tensor::GemmKernel::kAvx2);
    const tensor::Matrix avx2 = net.predict_batch(inputs);

    // Tolerance contract: the AVX2 GEMM differs from scalar only in
    // summation order (rounding-scale, ~1e-14 at these widths); the
    // vector tanh adds < 1e-7 per activation.  Two hidden activations at
    // O(1) downstream gain bound the end-to-end gap well under 1e-5.
    EXPECT_LT(max_abs(scalar, avx2), 1e-5);
    // ReLU networks have no approximate activation: rounding-scale only.
    if (activation == Activation::kRelu) {
      EXPECT_LT(max_abs(scalar, avx2), 1e-12);
    }
  }
}

TEST(KernelAgreement, BatchedAndRowWisePathsAgreeBitwiseOnEveryKernel) {
  KernelOverrideGuard guard;
  std::vector<tensor::GemmKernel> kernels{tensor::GemmKernel::kScalar};
  if (tensor::cpu_has_avx2_fma()) {
    kernels.push_back(tensor::GemmKernel::kAvx2);
  }
  Network net = serialized_example(Activation::kTanh, 111);
  const tensor::Matrix inputs = example_inputs(11, 5, 112);
  for (const tensor::GemmKernel kernel : kernels) {
    tensor::set_gemm_kernel_override(kernel);
    const tensor::Matrix batched = net.predict_batch(inputs);
    for (std::size_t r = 0; r < inputs.rows(); ++r) {
      const auto single = net.predict(inputs.row(r));
      for (std::size_t c = 0; c < single.size(); ++c) {
        EXPECT_EQ(batched(r, c), single[c])
            << "kernel " << static_cast<int>(kernel) << " row " << r;
      }
    }
  }
}

TEST(KernelAgreement, ServedShapeAgreesAtBatch64OnEveryKernel) {
  // The served surrogate's shape (5 -> 32 -> 32 -> 3, tanh) at the serving
  // batch: the 64x32x3 output layer runs the AVX2 kernel's masked 3-lane
  // strip in the batch and its 1-row strip row by row.
  KernelOverrideGuard guard;
  std::vector<tensor::GemmKernel> kernels{tensor::GemmKernel::kScalar};
  if (tensor::cpu_has_avx2_fma()) {
    kernels.push_back(tensor::GemmKernel::kAvx2);
  }
  Network net = serialized_example(Activation::kTanh, 161, {32, 32});
  const tensor::Matrix inputs = example_inputs(64, 5, 162);
  std::vector<tensor::Matrix> per_kernel;
  for (const tensor::GemmKernel kernel : kernels) {
    tensor::set_gemm_kernel_override(kernel);
    per_kernel.push_back(net.predict_batch(inputs));
    const tensor::Matrix& batched = per_kernel.back();
    for (std::size_t r = 0; r < inputs.rows(); ++r) {
      const auto single = net.predict(inputs.row(r));
      for (std::size_t c = 0; c < single.size(); ++c) {
        EXPECT_EQ(batched(r, c), single[c])
            << "kernel " << static_cast<int>(kernel) << " row " << r;
      }
    }
  }
  if (per_kernel.size() == 2) {
    EXPECT_LT(max_abs(per_kernel[0], per_kernel[1]), 1e-5);
  }
}

TEST(KernelAgreement, NanLanesStayNanOnEveryKernel) {
  // A NaN pre-activation must leave tanh as NaN on every kernel, as
  // std::tanh does: through vtanh (whole vectors and the masked tail), the
  // fused dense epilogue and a network forward.  Finite lanes beside it
  // keep the tolerance contract, and a NaN input row poisons only its own
  // outputs.
  KernelOverrideGuard guard;
  std::vector<tensor::GemmKernel> kernels{tensor::GemmKernel::kScalar};
  if (tensor::cpu_has_avx2_fma()) {
    kernels.push_back(tensor::GemmKernel::kAvx2);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> x{nan,  0.5,  -0.0, nan, 1e-310, -inf,
                              inf,  -3.0, 12.0, nan, 0.0,    nan};
  Network net = serialized_example(Activation::kTanh, 171);
  tensor::Matrix inputs = example_inputs(9, 5, 172);
  inputs(2, 0) = nan;
  inputs(7, 4) = nan;
  std::vector<tensor::Matrix> per_kernel;
  for (const tensor::GemmKernel kernel : kernels) {
    tensor::set_gemm_kernel_override(kernel);
    std::vector<double> y(x.size());
    tensor::vtanh(x, y);
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (std::isnan(x[i])) {
        EXPECT_TRUE(std::isnan(y[i])) << tensor::to_string(kernel) << " " << i;
      } else {
        EXPECT_NEAR(y[i], std::tanh(x[i]), 1e-7)
            << tensor::to_string(kernel) << " " << i;
      }
    }
    // The fused epilogue: row r of a 1-column identity layer is x[r].
    tensor::Matrix a(x.size(), 1);
    std::copy(x.begin(), x.end(), a.data());
    tensor::Matrix w(1, 1);
    w(0, 0) = 1.0;
    tensor::Matrix fused(x.size(), 1);
    const std::vector<double> bias{0.0};
    tensor::dense(a, w, bias, fused, tensor::DenseActivation::kTanh);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(std::isnan(fused(i, 0)), std::isnan(x[i]))
          << tensor::to_string(kernel) << " " << i;
    }
    per_kernel.push_back(net.predict_batch(inputs));
    const tensor::Matrix& out = per_kernel.back();
    for (std::size_t r = 0; r < out.rows(); ++r) {
      for (std::size_t c = 0; c < out.cols(); ++c) {
        EXPECT_EQ(std::isnan(out(r, c)), r == 2 || r == 7)
            << tensor::to_string(kernel) << " row " << r;
      }
    }
  }
  if (per_kernel.size() == 2) {
    for (std::size_t r = 0; r < inputs.rows(); ++r) {
      for (std::size_t c = 0; c < per_kernel[0].cols(); ++c) {
        if (r == 2 || r == 7) continue;
        EXPECT_NEAR(per_kernel[0](r, c), per_kernel[1](r, c), 1e-5);
      }
    }
  }
}

/// Training runs on tensor::gemm_exact and the exact Adam update, so the
/// kernel choice must not move one trained bit.  The learn_campaign
/// surrogate's shape (5 -> 32 -> 32 -> 3, ReLU, dropout 0.1, Adam 1e-2,
/// batch 8, 100 epochs) is fitted under kScalar and under the automatic
/// pick, from the same seeds; every weight must match bitwise.  Under
/// LE_KERNEL=scalar both fits are scalar and the test still runs.
TEST(KernelAgreement, TrainingIsBitIdenticalAcrossKernels) {
  KernelOverrideGuard guard;
  Rng data_rng(77);
  data::Dataset corpus(5, 3);
  for (int i = 0; i < 48; ++i) {
    std::vector<double> x(5);
    for (double& v : x) v = data_rng.uniform(-1.0, 1.0);
    const std::vector<double> y{std::sin(x[0]) + x[1] * x[2],
                                x[3] - 0.5 * x[4], std::cos(x[0] * x[4])};
    corpus.add(x, y);
  }
  const auto fit_weights = [&](std::optional<tensor::GemmKernel> kernel) {
    tensor::set_gemm_kernel_override(kernel);
    Rng rng(59);
    nn::MlpConfig cfg;
    cfg.input_dim = 5;
    cfg.hidden = {32, 32};
    cfg.output_dim = 3;
    cfg.activation = Activation::kRelu;
    cfg.dropout_rate = 0.1;
    Network net = nn::make_mlp(cfg, rng);
    nn::AdamOptimizer opt(1e-2);
    nn::TrainConfig train;
    train.epochs = 100;
    train.batch_size = 8;
    const nn::TrainResult result =
        nn::fit(net, corpus, nn::MseLoss{}, opt, train, rng);
    EXPECT_TRUE(std::isfinite(result.final_train_loss));
    return std::pair{net.get_weights(), result.final_train_loss};
  };
  const auto [scalar_w, scalar_loss] =
      fit_weights(tensor::GemmKernel::kScalar);
  const auto [auto_w, auto_loss] = fit_weights(std::nullopt);
  ASSERT_EQ(scalar_w.size(), auto_w.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < scalar_w.size(); ++i) {
    differing += std::bit_cast<std::uint64_t>(scalar_w[i]) !=
                 std::bit_cast<std::uint64_t>(auto_w[i]);
  }
  EXPECT_EQ(differing, 0u) << "of " << scalar_w.size() << " weights";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(scalar_loss),
            std::bit_cast<std::uint64_t>(auto_loss));
}

TEST(KernelDispatch, HonorsLeKernelEnvironment) {
  const char* env = std::getenv("LE_KERNEL");
  if (env != nullptr && std::string(env) == "scalar") {
    // The forced-fallback ctest variant: dispatch must resolve to scalar
    // and be process-wide forced, trumping explicit per-layer plans.
    EXPECT_EQ(tensor::active_gemm_kernel(), tensor::GemmKernel::kScalar);
    EXPECT_TRUE(tensor::gemm_kernel_forced());

    const tensor::Matrix a = example_inputs(6, 10, 141);
    const tensor::Matrix b = example_inputs(10, 9, 142);
    tensor::Matrix reference(6, 9), pinned(6, 9);
    tensor::gemm_blocked(a, b, reference);
    tensor::gemm(a, b, pinned,
                 tensor::GemmPlan{tensor::GemmKernel::kAvx2, {}});
    EXPECT_EQ(max_abs(reference, pinned), 0.0);  // bitwise: scalar ran
  } else {
    // Default resolution: a concrete kernel matching the CPUID probe.
    EXPECT_EQ(tensor::active_gemm_kernel(),
              tensor::cpu_has_avx2_fma() ? tensor::GemmKernel::kAvx2
                                         : tensor::GemmKernel::kScalar);
  }
}

TEST(KernelDispatch, AutotunedNetworkStillObeysAForcedScalarPin) {
  // Even after per-layer tuning installed (possibly AVX2) plans, pinning
  // the process to scalar must reproduce the pure-scalar answers bitwise
  // — the operator escape hatch the LE_KERNEL=scalar ctest variant
  // exercises end to end.
  KernelOverrideGuard guard;
  Network net = serialized_example(Activation::kTanh, 151);
  const tensor::Matrix inputs = example_inputs(8, 5, 152);

  tensor::set_gemm_kernel_override(tensor::GemmKernel::kScalar);
  const tensor::Matrix pure_scalar = net.predict_batch(inputs);
  tensor::set_gemm_kernel_override(std::nullopt);

  (void)net.autotune_inference(8, {tensor::GemmBlocking{}}, 2);
  tensor::set_gemm_kernel_override(tensor::GemmKernel::kScalar);
  const tensor::Matrix pinned = net.predict_batch(inputs);
  EXPECT_EQ(max_abs(pure_scalar, pinned), 0.0);
}

}  // namespace
}  // namespace le
