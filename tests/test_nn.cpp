// Unit, gradient-check and training-convergence tests for the NN library.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <locale>
#include <optional>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include "le/nn/layer.hpp"
#include "le/nn/loss.hpp"
#include "le/nn/network.hpp"
#include "le/nn/optimizer.hpp"
#include "le/nn/serialize.hpp"
#include "le/nn/train.hpp"
#include "le/nn/two_branch.hpp"
#include "le/obs/metrics.hpp"

namespace le::nn {
namespace {

using le::data::Dataset;
using le::stats::Rng;

/// Finite-difference check of d(loss)/d(param) against backprop for a
/// given network and random batch.
void gradient_check(Network& net, std::size_t batch, double tol = 1e-5) {
  Rng rng(123);
  tensor::Matrix x(batch, net.input_dim());
  tensor::Matrix y(batch, net.output_dim());
  for (double& v : x.flat()) v = rng.uniform(-1.0, 1.0);
  for (double& v : y.flat()) v = rng.uniform(-1.0, 1.0);
  const MseLoss loss;

  net.set_training(true);
  net.zero_grad();
  tensor::Matrix pred = net.forward(x);
  LossResult lr = loss.evaluate(pred, y);
  net.backward(lr.grad);

  // Copy analytic grads (views alias live storage that the FD loop mutates).
  std::vector<std::vector<double>> analytic;
  for (const auto& view : net.parameters()) {
    analytic.emplace_back(view.grads.begin(), view.grads.end());
  }

  const double eps = 1e-6;
  auto params = net.parameters();
  std::size_t checked = 0;
  for (std::size_t p = 0; p < params.size(); ++p) {
    // Sample a few entries per tensor rather than the whole thing.
    const std::size_t stride = std::max<std::size_t>(1, params[p].values.size() / 7);
    for (std::size_t j = 0; j < params[p].values.size(); j += stride) {
      const double orig = params[p].values[j];
      params[p].values[j] = orig + eps;
      const double up = loss.evaluate(net.forward(x), y).value;
      params[p].values[j] = orig - eps;
      const double down = loss.evaluate(net.forward(x), y).value;
      params[p].values[j] = orig;
      const double fd = (up - down) / (2.0 * eps);
      EXPECT_NEAR(analytic[p][j], fd, tol)
          << "param tensor " << p << " entry " << j;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(DenseLayer, ForwardKnownValues) {
  Rng rng(1);
  DenseLayer layer(2, 1, rng);
  layer.weights()(0, 0) = 2.0;
  layer.weights()(1, 0) = -1.0;
  layer.bias()[0] = 0.5;
  tensor::Matrix x{{3.0, 4.0}};
  tensor::Matrix out = layer.forward(x);
  EXPECT_DOUBLE_EQ(out(0, 0), 2.5);
}

TEST(DenseLayer, RejectsZeroDims) {
  Rng rng(1);
  EXPECT_THROW(DenseLayer(0, 3, rng), std::invalid_argument);
}

TEST(DenseLayer, GlorotInitBounded) {
  Rng rng(2);
  DenseLayer layer(50, 50, rng);
  const double limit = std::sqrt(6.0 / 100.0);
  for (double w : layer.weights().flat()) {
    EXPECT_GE(w, -limit);
    EXPECT_LE(w, limit);
  }
  for (double b : layer.bias()) EXPECT_DOUBLE_EQ(b, 0.0);
}

TEST(Activation, KnownValues) {
  ActivationLayer relu(Activation::kRelu, 2);
  tensor::Matrix x{{-1.0, 2.0}};
  tensor::Matrix out = relu.forward(x);
  EXPECT_DOUBLE_EQ(out(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out(0, 1), 2.0);

  ActivationLayer sig(Activation::kSigmoid, 1);
  tensor::Matrix z{{0.0}};
  EXPECT_DOUBLE_EQ(sig.forward(z)(0, 0), 0.5);

  ActivationLayer th(Activation::kTanh, 1);
  EXPECT_NEAR(th.forward(z)(0, 0), 0.0, 1e-12);
}

TEST(Activation, StringRoundTrip) {
  for (Activation a : {Activation::kIdentity, Activation::kRelu,
                       Activation::kLeakyRelu, Activation::kTanh,
                       Activation::kSigmoid}) {
    EXPECT_EQ(activation_from_string(to_string(a)), a);
  }
  EXPECT_THROW((void)activation_from_string("bogus"), std::invalid_argument);
}

TEST(Dropout, EvalModeIsIdentity) {
  DropoutLayer layer(0.5, 3, Rng(3));
  layer.set_training(false);
  tensor::Matrix x{{1.0, 2.0, 3.0}};
  EXPECT_EQ(layer.forward(x), x);
}

TEST(Dropout, TrainModePreservesMeanAndZeroesSome) {
  DropoutLayer layer(0.5, 1000, Rng(4));
  layer.set_training(true);
  tensor::Matrix x(1, 1000, 1.0);
  tensor::Matrix out = layer.forward(x);
  std::size_t zeros = 0;
  double sum = 0.0;
  for (double v : out.flat()) {
    if (v == 0.0) ++zeros;
    sum += v;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 1000.0, 0.5, 0.08);
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.15);  // inverted dropout keeps the mean
}

TEST(Dropout, McModeStochasticAtEval) {
  DropoutLayer layer(0.5, 100, Rng(5));
  layer.set_training(false);
  layer.set_mc_mode(true);
  tensor::Matrix x(1, 100, 1.0);
  EXPECT_NE(layer.forward(x), layer.forward(x));
}

TEST(Dropout, InvalidRateThrows) {
  EXPECT_THROW(DropoutLayer(1.0, 3, Rng(1)), std::invalid_argument);
  EXPECT_THROW(DropoutLayer(-0.1, 3, Rng(1)), std::invalid_argument);
}

TEST(Loss, MseKnownValueAndGrad) {
  MseLoss loss;
  tensor::Matrix pred{{1.0, 2.0}};
  tensor::Matrix target{{0.0, 4.0}};
  const LossResult r = loss.evaluate(pred, target);
  EXPECT_DOUBLE_EQ(r.value, (1.0 + 4.0) / 2.0);
  EXPECT_DOUBLE_EQ(r.grad(0, 0), 1.0);   // 2 * 1 / 2
  EXPECT_DOUBLE_EQ(r.grad(0, 1), -2.0);  // 2 * -2 / 2
}

TEST(Loss, HuberMatchesMseInCore) {
  HuberLoss huber(10.0);
  MseLoss mse;
  tensor::Matrix pred{{1.0}};
  tensor::Matrix target{{0.5}};
  EXPECT_NEAR(huber.evaluate(pred, target).value,
              0.5 * mse.evaluate(pred, target).value, 1e-12);
}

TEST(Loss, HuberLinearTail) {
  HuberLoss huber(1.0);
  tensor::Matrix pred{{10.0}};
  tensor::Matrix target{{0.0}};
  EXPECT_DOUBLE_EQ(huber.evaluate(pred, target).value, 1.0 * (10.0 - 0.5));
  EXPECT_DOUBLE_EQ(huber.evaluate(pred, target).grad(0, 0), 1.0);
}

TEST(Loss, ShapeMismatchThrows) {
  MseLoss loss;
  tensor::Matrix a(1, 2), b(2, 1);
  EXPECT_THROW(loss.evaluate(a, b), std::invalid_argument);
}

TEST(GradientCheck, PlainMlp) {
  Rng rng(10);
  MlpConfig cfg;
  cfg.input_dim = 3;
  cfg.hidden = {5, 4};
  cfg.output_dim = 2;
  cfg.activation = Activation::kTanh;
  Network net = make_mlp(cfg, rng);
  gradient_check(net, 4);
}

TEST(GradientCheck, ReluMlp) {
  Rng rng(11);
  MlpConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden = {6};
  cfg.output_dim = 1;
  cfg.activation = Activation::kLeakyRelu;  // avoids kinks at 0 measure-zero issues
  Network net = make_mlp(cfg, rng);
  gradient_check(net, 3);
}

TEST(GradientCheck, TwoBranch) {
  Rng rng(12);
  TwoBranchConfig cfg;
  cfg.branch_a.input_dim = 3;
  cfg.branch_a.hidden = {4};
  cfg.branch_a.output_dim = 4;
  cfg.branch_a.activation = Activation::kTanh;
  cfg.branch_b.input_dim = 2;
  cfg.branch_b.hidden = {3};
  cfg.branch_b.output_dim = 3;
  cfg.branch_b.activation = Activation::kTanh;
  cfg.head_hidden = {5};
  cfg.output_dim = 2;
  cfg.head_activation = Activation::kTanh;
  Network net = make_two_branch_network(cfg, rng);
  EXPECT_EQ(net.input_dim(), 5u);
  EXPECT_EQ(net.output_dim(), 2u);
  gradient_check(net, 4);
}

TEST(Network, DimMismatchOnAdd) {
  Rng rng(13);
  Network net;
  net.add(std::make_unique<DenseLayer>(2, 3, rng));
  EXPECT_THROW(net.add(std::make_unique<DenseLayer>(4, 1, rng)),
               std::invalid_argument);
}

TEST(Network, WeightsRoundTrip) {
  Rng rng(14);
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden = {3};
  cfg.output_dim = 1;
  Network net = make_mlp(cfg, rng);
  const auto w = net.get_weights();
  EXPECT_EQ(w.size(), net.parameter_count());
  Network copy = net.clone();
  std::vector<double> zeros(w.size(), 0.0);
  copy.set_weights(zeros);
  EXPECT_NE(copy.get_weights(), net.get_weights());
  copy.set_weights(w);
  EXPECT_EQ(copy.get_weights(), w);
  EXPECT_THROW(net.set_weights(std::vector<double>(w.size() + 1, 0.0)),
               std::invalid_argument);
}

TEST(Network, CloneIsDeep) {
  Rng rng(15);
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden = {3};
  cfg.output_dim = 1;
  Network net = make_mlp(cfg, rng);
  Network copy = net.clone();
  auto w = net.get_weights();
  w[0] += 1.0;
  net.set_weights(w);
  EXPECT_NE(net.get_weights(), copy.get_weights());
}

TEST(Optimizer, SgdStepsDownhill) {
  // Minimize f(w) = w^2 by hand-feeding gradients.
  std::vector<double> w{5.0}, g{0.0};
  SgdOptimizer opt(0.1);
  const std::vector<ParamView> views{{std::span<double>{w}, std::span<double>{g}}};
  for (int i = 0; i < 100; ++i) {
    g[0] = 2.0 * w[0];
    opt.step(views);
  }
  EXPECT_NEAR(w[0], 0.0, 1e-6);
}

TEST(Optimizer, AdamStepsDownhill) {
  std::vector<double> w{5.0}, g{0.0};
  AdamOptimizer opt(0.3);
  const std::vector<ParamView> views{{std::span<double>{w}, std::span<double>{g}}};
  for (int i = 0; i < 300; ++i) {
    g[0] = 2.0 * w[0];
    opt.step(views);
  }
  EXPECT_NEAR(w[0], 0.0, 1e-3);
}

TEST(Optimizer, RejectsBadHyperparameters) {
  EXPECT_THROW(SgdOptimizer(0.0), std::invalid_argument);
  EXPECT_THROW(SgdOptimizer(0.1, 1.0), std::invalid_argument);
  EXPECT_THROW(AdamOptimizer(-1.0), std::invalid_argument);
  EXPECT_THROW(SgdOptimizer(0.1, 0.0, -0.5), std::invalid_argument);
  EXPECT_THROW(AdamOptimizer(0.1, 0.9, 0.999, 1e-8, -1.0), std::invalid_argument);
}

TEST(Optimizer, WeightDecayShrinksParameters) {
  // With zero gradients, weight decay is a pure geometric contraction.
  std::vector<double> w{2.0}, g{0.0};
  SgdOptimizer opt(0.1, 0.0, 1.0);  // decay factor 1 - 0.1*1 = 0.9 per step
  const std::vector<ParamView> views{{std::span<double>{w}, std::span<double>{g}}};
  for (int i = 0; i < 10; ++i) opt.step(views);
  EXPECT_NEAR(w[0], 2.0 * std::pow(0.9, 10), 1e-12);

  std::vector<double> wa{2.0}, ga{0.0};
  AdamOptimizer adam(0.1, 0.9, 0.999, 1e-8, 1.0);
  const std::vector<ParamView> va{{std::span<double>{wa}, std::span<double>{ga}}};
  adam.step(va);
  EXPECT_LT(wa[0], 2.0);
}

/// Restores the process-wide kernel override on scope exit.
struct KernelOverrideGuard {
  ~KernelOverrideGuard() { tensor::set_gemm_kernel_override(std::nullopt); }
};

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Inputs at the edges of the compare-and-mask kernels: both zeros, NaN,
// both infinities, subnormals, the smallest normals, and ordinary values.
std::vector<double> edge_values() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  return {-0.0, 0.0,  nan,     -nan,         inf,    -inf,   tiny,
          -tiny, DBL_MIN / 2, -DBL_MIN / 2, DBL_MIN, -DBL_MIN, 1e-300, -1e-300,
          0.25, -0.25, 3.0,   -3.0,         20.0,   -20.0,  710.0,
          -710.0, 1e308, -1e308};
}

// One row of `n` elements cycling through `values` from `start`.
tensor::Matrix edge_row(const std::vector<double>& values, std::size_t n,
                        std::size_t start) {
  tensor::Matrix row(1, n);
  for (std::size_t i = 0; i < n; ++i) {
    row.data()[i] = values[(start + i) % values.size()];
  }
  return row;
}

constexpr std::size_t kTailLengths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 37};

TEST(Activation, BackwardFromOutputMatchesTheInputFormula) {
  // backward() reads the cached output; the gradient must carry the bits of
  // the formula on the input that it replaced, for every kind and kernel.
  const auto input_formula = [](Activation kind, double x) {
    switch (kind) {
      case Activation::kIdentity: return 1.0;
      case Activation::kRelu: return x > 0.0 ? 1.0 : 0.0;
      case Activation::kLeakyRelu: return x > 0.0 ? 1.0 : 0.01;
      case Activation::kTanh: {
        const double t = std::tanh(x);
        return 1.0 - t * t;
      }
      case Activation::kSigmoid: {
        const double s = 1.0 / (1.0 + std::exp(-x));
        return s * (1.0 - s);
      }
    }
    return 1.0;
  };
  std::vector<double> xs = edge_values();
  for (int i = -400; i <= 400; ++i) xs.push_back(i / 40.0 + 1e-3 * i * i);
  std::vector<double> gs{2.5, -1.0, 0.0, -0.0, 1e-310, 7.0, -3.25};
  KernelOverrideGuard guard;
  for (const tensor::GemmKernel kernel :
       {tensor::GemmKernel::kScalar, tensor::GemmKernel::kAvx2}) {
    tensor::set_gemm_kernel_override(kernel);
    for (const Activation kind :
         {Activation::kIdentity, Activation::kRelu, Activation::kLeakyRelu,
          Activation::kTanh, Activation::kSigmoid}) {
      ActivationLayer layer(kind, xs.size());
      const tensor::Matrix x = edge_row(xs, xs.size(), 0);
      const tensor::Matrix g = edge_row(gs, xs.size(), 0);
      (void)layer.forward(x);
      const tensor::Matrix dx = layer.backward(g);
      std::vector<double> expected(xs.size());
      for (std::size_t i = 0; i < xs.size(); ++i) {
        expected[i] = g.data()[i] * input_formula(kind, xs[i]);
      }
      EXPECT_TRUE(same_bits(dx.flat(), expected))
          << to_string(kind) << " on " << tensor::to_string(kernel);
    }
  }
}

TEST(Activation, ReluKernelsMatchTheScalarReference) {
  // Forward x > 0 ? x : 0 and backward g * (x > 0 ? 1 : 0), bit for bit,
  // over every tail length of the four-lane kernels.
  const std::vector<double> values = edge_values();
  const std::vector<double> gs{1.5, -2.0, std::numeric_limits<double>::infinity(),
                               -0.0, 4e-320};
  KernelOverrideGuard guard;
  for (const tensor::GemmKernel kernel :
       {tensor::GemmKernel::kScalar, tensor::GemmKernel::kAvx2}) {
    tensor::set_gemm_kernel_override(kernel);
    for (const std::size_t n : kTailLengths) {
      for (std::size_t start = 0; start < values.size(); start += 5) {
        const tensor::Matrix x = edge_row(values, n, start);
        const tensor::Matrix g = edge_row(gs, n, start);
        ActivationLayer relu(Activation::kRelu, n);
        const tensor::Matrix y = relu.forward(x);
        const tensor::Matrix dx = relu.backward(g);
        tensor::Matrix inferred;
        relu.infer(x, inferred);
        std::vector<double> y_ref(n), dx_ref(n);
        for (std::size_t i = 0; i < n; ++i) {
          const double xi = x.data()[i];
          y_ref[i] = xi > 0.0 ? xi : 0.0;
          dx_ref[i] = g.data()[i] * (xi > 0.0 ? 1.0 : 0.0);
        }
        EXPECT_TRUE(same_bits(y.flat(), y_ref))
            << tensor::to_string(kernel) << " n " << n << " start " << start;
        EXPECT_TRUE(same_bits(inferred.flat(), y_ref))
            << tensor::to_string(kernel) << " n " << n << " start " << start;
        EXPECT_TRUE(same_bits(dx.flat(), dx_ref))
            << tensor::to_string(kernel) << " n " << n << " start " << start;
      }
    }
  }
}

TEST(Dropout, KernelsMatchTheScalarReference) {
  // The block-drawn four-lane masks against one engine call and one compare
  // per element: outputs, masks (read back through backward) and the
  // stream left behind, for every tail length and the edge inputs (where
  // inf * 0 is NaN), in training forwards and MC-mode inferences.
  const std::vector<double> values = edge_values();
  KernelOverrideGuard guard;
  for (const tensor::GemmKernel kernel :
       {tensor::GemmKernel::kScalar, tensor::GemmKernel::kAvx2}) {
    tensor::set_gemm_kernel_override(kernel);
    for (const double rate : {0.1, 0.5}) {
      const double scale = 1.0 / (1.0 - rate);
      const stats::BernoulliCut keep(1.0 - rate);
      for (const std::size_t n : kTailLengths) {
        DropoutLayer layer(rate, n, Rng(400 + n));
        stats::Mt19937_64 reference = Rng(400 + n).engine();
        for (std::size_t pass = 0; pass < 12; ++pass) {
          const tensor::Matrix x = edge_row(values, n, pass * 7);
          std::vector<double> out_ref(n), mask_ref(n);
          for (std::size_t i = 0; i < n; ++i) {
            mask_ref[i] = keep(reference) ? scale : 0.0;
            out_ref[i] = x.data()[i] * mask_ref[i];
          }
          tensor::Matrix out;
          if (pass % 2 == 0) {
            layer.set_training(true);
            layer.set_mc_mode(false);
            out = layer.forward(x);
            const tensor::Matrix mask = layer.backward(tensor::Matrix(1, n, 1.0));
            EXPECT_TRUE(same_bits(mask.flat(), mask_ref))
                << tensor::to_string(kernel) << " n " << n << " pass " << pass;
          } else {
            layer.set_training(false);
            layer.set_mc_mode(true);
            layer.infer(x, out);
          }
          EXPECT_TRUE(same_bits(out.flat(), out_ref))
              << tensor::to_string(kernel) << " n " << n << " pass " << pass;
        }
        EXPECT_EQ(layer.rng().engine(), reference)
            << tensor::to_string(kernel) << " n " << n;
      }
    }
  }
}

TEST(Optimizer, AdamIsBitIdenticalOnEveryKernel) {
  // The AVX2 Adam runs four parameters per iteration and the reference
  // update on the tail; lengths 1..9 and 37 cover 0-3 element tails, with
  // and without decoupled weight decay, over 25 steps of mixed-magnitude
  // gradients (zeros included).
  KernelOverrideGuard guard;
  for (const double decay : {0.0, 0.01}) {
    std::vector<std::vector<double>> finals[2];
    for (int pass = 0; pass < 2; ++pass) {
      tensor::set_gemm_kernel_override(pass == 0 ? tensor::GemmKernel::kScalar
                                                 : tensor::GemmKernel::kAvx2);
      std::vector<std::vector<double>> values, grads;
      for (std::size_t len : {1, 2, 3, 4, 5, 6, 7, 8, 9, 37}) {
        values.emplace_back(len);
        grads.emplace_back(len);
        for (std::size_t j = 0; j < len; ++j) {
          values.back()[j] = std::sin(static_cast<double>(len * 7 + j));
        }
      }
      std::vector<ParamView> views;
      for (std::size_t i = 0; i < values.size(); ++i) {
        views.push_back({std::span<double>{values[i]}, std::span<double>{grads[i]}});
      }
      AdamOptimizer adam(1e-2, 0.9, 0.999, 1e-8, decay);
      for (int step = 0; step < 25; ++step) {
        for (std::size_t i = 0; i < grads.size(); ++i) {
          for (std::size_t j = 0; j < grads[i].size(); ++j) {
            const double phase = static_cast<double>(step * 31 + i * 5 + j);
            grads[i][j] = (j + static_cast<std::size_t>(step)) % 5 == 0
                              ? 0.0
                              : std::pow(10.0, std::fmod(phase, 9.0) - 6.0) *
                                    std::cos(phase);
          }
        }
        adam.step(views);
      }
      finals[pass] = values;
    }
    for (std::size_t i = 0; i < finals[0].size(); ++i) {
      EXPECT_TRUE(same_bits(finals[0][i], finals[1][i]))
          << "tensor " << i << " decay " << decay;
    }
  }
}

TEST(Optimizer, DeadReluMomentsFlushToZeroOnEveryKernel) {
  // Hidden unit 0 of a 3 -> 4 -> 1 ReLU net trains for a few steps, is then
  // killed by a large negative bias, and gets 20k zero-gradient steps.  Its
  // moments decay geometrically.  The first (x0.9 a step) must end exactly 0:
  // unflushed it would sink into the subnormals by ~6.8k steps and stick
  // there, since 0.9 times a few ulps rounds back up.  The second (x0.999)
  // is still normal.  Every bit must match under the scalar kernel and the
  // default one.
  KernelOverrideGuard guard;
  std::vector<std::vector<double>> values[2], first[2], second[2];
  for (int pass = 0; pass < 2; ++pass) {
    tensor::set_gemm_kernel_override(
        pass == 0 ? std::optional{tensor::GemmKernel::kScalar} : std::nullopt);
    Rng rng(51);
    Network net;
    net.add(std::make_unique<DenseLayer>(3, 4, rng));
    net.add(std::make_unique<ActivationLayer>(Activation::kRelu, 4));
    net.add(std::make_unique<DenseLayer>(4, 1, rng));
    net.set_training(true);
    tensor::Matrix x(8, 3), y(8, 1);
    for (double& v : x.flat()) v = rng.uniform(-1.0, 1.0);
    for (double& v : y.flat()) v = rng.uniform(-1.0, 1.0);
    const MseLoss loss;
    AdamOptimizer adam(1e-2);
    const auto step = [&] {
      net.zero_grad();
      net.backward(loss.evaluate(net.forward(x), y).grad);
      adam.step(net.parameters());
    };
    for (int i = 0; i < 5; ++i) step();
    // Unit 0: column 0 of W1 (3 x 4, row-major), b1[0] and W2[0].
    const std::pair<std::size_t, std::size_t> unit[] = {
        {0, 0}, {0, 4}, {0, 8}, {1, 0}, {2, 0}};
    for (const auto& [view, j] : unit) {
      ASSERT_NE(adam.first_moments()[view][j], 0.0) << view << "," << j;
    }
    net.parameters()[1].values[0] = -100.0;
    for (int i = 0; i < 20'000; ++i) step();
    for (const auto& [view, j] : unit) {
      EXPECT_EQ(adam.first_moments()[view][j], 0.0) << view << "," << j;
      EXPECT_GE(adam.second_moments()[view][j], DBL_MIN) << view << "," << j;
    }
    for (const auto& p : net.parameters()) {
      values[pass].emplace_back(p.values.begin(), p.values.end());
    }
    first[pass] = adam.first_moments();
    second[pass] = adam.second_moments();
  }
  for (std::size_t i = 0; i < values[0].size(); ++i) {
    EXPECT_TRUE(same_bits(values[0][i], values[1][i])) << "tensor " << i;
    EXPECT_TRUE(same_bits(first[0][i], first[1][i])) << "tensor " << i;
    EXPECT_TRUE(same_bits(second[0][i], second[1][i])) << "tensor " << i;
  }
}

TEST(DenseLayer, ForwardAndBackwardAreBitIdenticalOnEveryKernel) {
  // Batch 7 and 8 through a 32 -> 3 and a 5 -> 32 layer: the forward, the
  // X^T * dY weight gradient and the dY * W^T input gradient each hit the
  // exact kernel's masked 1-3 column strip and its 8-row tiles.
  KernelOverrideGuard guard;
  for (const auto& [in, out] : {std::pair<std::size_t, std::size_t>{32, 3},
                               std::pair<std::size_t, std::size_t>{5, 32}}) {
    for (const std::size_t batch : {std::size_t{7}, std::size_t{8}}) {
      Rng data_rng(17);
      tensor::Matrix x(batch, in), dy(batch, out);
      for (double& v : x.flat()) v = data_rng.uniform(-1.0, 1.0);
      for (double& v : dy.flat()) v = data_rng.uniform(-1.0, 1.0);
      tensor::Matrix y[2], dx[2];
      std::vector<double> dw[2];
      for (int pass = 0; pass < 2; ++pass) {
        tensor::set_gemm_kernel_override(pass == 0
                                             ? tensor::GemmKernel::kScalar
                                             : tensor::GemmKernel::kAvx2);
        Rng init(19);
        DenseLayer layer(in, out, init);
        y[pass] = layer.forward(x);
        dx[pass] = layer.backward(dy);
        const auto grads = layer.parameters().front().grads;
        dw[pass].assign(grads.begin(), grads.end());
      }
      EXPECT_TRUE(same_bits(y[0].flat(), y[1].flat())) << in << "->" << out;
      EXPECT_TRUE(same_bits(dx[0].flat(), dx[1].flat())) << in << "->" << out;
      EXPECT_TRUE(same_bits(dw[0], dw[1])) << in << "->" << out;
    }
  }
}

TEST(Network, PredictBatchFusedPairsEqualTheLayersRunInTurn) {
  // predict_batch runs each Dense -> tanh/ReLU pair as one fused pass; a
  // clone run one layer's infer() at a time must get the same bits, for
  // every activation (sigmoid and leaky ReLU are not fused), with and
  // without MC dropout after the activation (same masks, same stream),
  // on kScalar and kAvx2, with -0.0/NaN/inf/subnormal inputs in the batch.
  KernelOverrideGuard guard;
  const std::vector<double> edges = edge_values();
  for (const auto kernel :
       {tensor::GemmKernel::kScalar, tensor::GemmKernel::kAvx2}) {
    tensor::set_gemm_kernel_override(kernel);
    for (const Activation act : {Activation::kTanh, Activation::kRelu,
                                 Activation::kSigmoid,
                                 Activation::kLeakyRelu}) {
      for (const double dropout : {0.0, 0.2}) {
        Rng rng(41);
        MlpConfig cfg;
        cfg.input_dim = 5;
        cfg.hidden = {32, 33};
        cfg.output_dim = 3;
        cfg.activation = act;
        cfg.dropout_rate = dropout;
        Network fused = make_mlp(cfg, rng);
        for (const ParamView& view : fused.parameters()) {
          for (double& v : view.values) v += rng.uniform(-0.1, 0.1);
        }
        fused.set_training(false);
        fused.set_mc_dropout(dropout > 0.0);
        Network layered = fused.clone();
        layered.set_training(false);
        layered.set_mc_dropout(dropout > 0.0);
        tensor::Matrix x(65, 5);
        for (std::size_t i = 0; i < x.size(); ++i) {
          x.data()[i] = i % 4 == 0 ? edges[(i / 4) % edges.size()]
                                   : rng.uniform(-2.0, 2.0);
        }
        for (int call = 0; call < 2; ++call) {
          tensor::Matrix got;
          fused.predict_batch(x, got);
          tensor::Matrix cur = x, next;
          for (std::size_t i = 0; i < layered.layer_count(); ++i) {
            layered.layer(i).infer(cur, next);
            std::swap(cur, next);
          }
          EXPECT_TRUE(same_bits(got.flat(), cur.flat()))
              << tensor::to_string(kernel) << " " << to_string(act)
              << " dropout " << dropout << " call " << call;
        }
      }
    }
  }
}

Dataset make_regression_data(std::size_t n, Rng& rng) {
  // y = sin(2x0) + 0.5 x1 over [-1, 1]^2.
  Dataset ds(2, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double in[2] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    const double tg[1] = {std::sin(2.0 * in[0]) + 0.5 * in[1]};
    ds.add(std::span<const double>{in, 2}, std::span<const double>{tg, 1});
  }
  return ds;
}

TEST(Training, LearnsSmoothFunction) {
  Rng rng(16);
  Dataset ds = make_regression_data(400, rng);
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden = {24, 24};
  cfg.output_dim = 1;
  cfg.activation = Activation::kTanh;
  Network net = make_mlp(cfg, rng);
  AdamOptimizer opt(1e-2);
  MseLoss loss;
  TrainConfig tc;
  tc.epochs = 150;
  tc.batch_size = 32;
  // fit() runs every configured epoch: its per-epoch counter says so.
  le::obs::set_metrics_enabled(true);
  const le::obs::Counter& epochs =
      le::obs::MetricsRegistry::global().counter("nn.fit.epochs");
  const std::uint64_t epochs_before = epochs.value();
  const TrainResult result = fit(net, ds, loss, opt, tc, rng);
  le::obs::set_metrics_enabled(false);
  EXPECT_LT(result.final_train_loss, 1e-3);
  EXPECT_EQ(epochs.value() - epochs_before, 150u);
  // Spot-check generalization.
  EXPECT_NEAR(net.predict(std::vector<double>{0.3, 0.3})[0],
              std::sin(0.6) + 0.15, 0.1);
}

TEST(Training, RejectsBadConfig) {
  Rng rng(19);
  Dataset ds = make_regression_data(10, rng);
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden = {4};
  cfg.output_dim = 1;
  Network net = make_mlp(cfg, rng);
  AdamOptimizer opt(1e-2);
  MseLoss loss;
  TrainConfig tc;
  tc.batch_size = 0;
  EXPECT_THROW(fit(net, ds, loss, opt, tc, rng), std::invalid_argument);
  Dataset empty(2, 1);
  tc.batch_size = 8;
  EXPECT_THROW(fit(net, empty, loss, opt, tc, rng), std::invalid_argument);
}

TEST(Serialize, RoundTripPreservesPredictions) {
  Rng rng(20);
  MlpConfig cfg;
  cfg.input_dim = 3;
  cfg.hidden = {7, 5};
  cfg.output_dim = 2;
  cfg.activation = Activation::kSigmoid;
  cfg.dropout_rate = 0.2;
  Network net = make_mlp(cfg, rng);
  net.set_training(false);
  const std::vector<double> x{0.1, -0.4, 0.9};
  const auto before = net.predict(x);

  std::stringstream ss;
  save_network(ss, net);
  Rng load_rng(21);
  Network loaded = load_network(ss, load_rng);
  const auto after = loaded.predict(x);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(before[i], after[i], 1e-12);
  }
}

TEST(Serialize, TwoBranchRoundTrip) {
  Rng rng(22);
  TwoBranchConfig cfg;
  cfg.branch_a.input_dim = 2;
  cfg.branch_a.hidden = {3};
  cfg.branch_a.output_dim = 3;
  cfg.branch_b.input_dim = 2;
  cfg.branch_b.hidden = {3};
  cfg.branch_b.output_dim = 3;
  cfg.head_hidden = {4};
  cfg.output_dim = 1;
  Network net = make_two_branch_network(cfg, rng);
  net.set_training(false);
  const std::vector<double> x{0.5, -0.5, 0.25, 0.75};
  const auto before = net.predict(x);
  std::stringstream ss;
  save_network(ss, net);
  Rng load_rng(23);
  Network loaded = load_network(ss, load_rng);
  EXPECT_NEAR(before[0], loaded.predict(x)[0], 1e-12);
}

TEST(Serialize, BadMagicThrows) {
  std::stringstream ss("not-a-network 0");
  Rng rng(24);
  EXPECT_THROW(load_network(ss, rng), std::runtime_error);
}

namespace {

/// A numpunct facet with ',' as the decimal point — the de_DE-style locale
/// that used to corrupt serialized weights ("0,5" instead of "0.5").
class CommaDecimal : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

}  // namespace

// Regression: save_network/load_network formatted doubles with the
// stream's locale, so a comma-decimal global locale produced files that
// were unreadable (or silently wrong) elsewhere.  Both now imbue the
// classic "C" locale; a round trip under a hostile locale must be exact.
TEST(Serialize, RoundTripIsExactUnderCommaDecimalLocale) {
  const std::locale saved = std::locale();
  std::locale::global(std::locale(std::locale(), new CommaDecimal));
  Rng rng(25);
  MlpConfig cfg;
  cfg.input_dim = 3;
  cfg.hidden = {6, 4};
  cfg.output_dim = 2;
  cfg.activation = Activation::kRelu;
  Network net = make_mlp(cfg, rng);

  std::vector<double> before;
  std::string text;
  try {
    before = net.get_weights();
    // A fresh stringstream picks up the (hostile) global locale, exactly
    // as a user's std::ofstream would.
    std::stringstream ss;
    save_network(ss, net);
    text = ss.str();
    Rng load_rng(26);
    Network loaded = load_network(ss, load_rng);
    const std::vector<double> after = loaded.get_weights();
    std::locale::global(saved);

    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(before[i], after[i]);  // bit-exact, not just near
    }
  } catch (...) {
    std::locale::global(saved);
    throw;
  }
  // The serialized form itself is locale-clean: no comma decimals, no
  // thousands grouping.
  EXPECT_EQ(text.find(','), std::string::npos);
}

TEST(Serialize, TwoBranchRoundTripIsExactUnderCommaDecimalLocale) {
  const std::locale saved = std::locale();
  std::locale::global(std::locale(std::locale(), new CommaDecimal));
  try {
    Rng rng(27);
    TwoBranchConfig cfg;
    cfg.branch_a.input_dim = 2;
    cfg.branch_a.hidden = {3};
    cfg.branch_a.output_dim = 3;
    cfg.branch_b.input_dim = 2;
    cfg.branch_b.hidden = {3};
    cfg.branch_b.output_dim = 3;
    cfg.head_hidden = {4};
    cfg.output_dim = 1;
    Network net = make_two_branch_network(cfg, rng);
    const std::vector<double> before = net.get_weights();

    std::stringstream ss;
    save_network(ss, net);  // nested-network path recurses through branches
    Rng load_rng(28);
    Network loaded = load_network(ss, load_rng);
    const std::vector<double> after = loaded.get_weights();
    std::locale::global(saved);

    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(before[i], after[i]);
    }
  } catch (...) {
    std::locale::global(saved);
    throw;
  }
}

TEST(PredictBatch, MatchesRowWisePredictBitwise) {
  // The batched inference path (Layer::infer + blocked GEMM) must
  // reproduce the single-sample path bit for bit on a deterministic net:
  // for layer widths at or below the GEMM block size the accumulation
  // order is identical.
  Rng rng(31);
  MlpConfig cfg;
  cfg.input_dim = 5;
  cfg.hidden = {16, 16};
  cfg.output_dim = 2;
  cfg.activation = Activation::kTanh;
  Network net = make_mlp(cfg, rng);

  tensor::Matrix inputs(9, 5);
  Rng data_rng(32);
  for (double& v : inputs.flat()) v = data_rng.uniform(-2.0, 2.0);

  const tensor::Matrix batched = net.predict_batch(inputs);
  ASSERT_EQ(batched.rows(), 9u);
  ASSERT_EQ(batched.cols(), 2u);
  for (std::size_t r = 0; r < inputs.rows(); ++r) {
    const auto single = net.predict(inputs.row(r));
    ASSERT_EQ(single.size(), 2u);
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(batched(r, c), single[c]) << "row " << r << " col " << c;
    }
  }
}

TEST(PredictBatch, ReusesOutputAcrossVaryingBatchSizes) {
  Rng rng(33);
  MlpConfig cfg;
  cfg.input_dim = 3;
  cfg.hidden = {8};
  cfg.output_dim = 1;
  Network net = make_mlp(cfg, rng);

  tensor::Matrix out;
  for (const std::size_t rows : {4u, 1u, 7u}) {
    tensor::Matrix inputs(rows, 3, 0.5);
    net.predict_batch(inputs, out);
    ASSERT_EQ(out.rows(), rows);
    ASSERT_EQ(out.cols(), 1u);
    const auto single = net.predict(std::vector<double>{0.5, 0.5, 0.5});
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(out(r, 0), single[0]);
    }
  }
}

TEST(PredictBatch, RejectsEmptyNetworkAliasAndBadDims) {
  Network empty;
  tensor::Matrix inputs(2, 3, 0.0);
  tensor::Matrix out;
  EXPECT_THROW(empty.predict_batch(inputs, out), std::logic_error);

  Rng rng(34);
  MlpConfig cfg;
  cfg.input_dim = 3;
  cfg.hidden = {4};
  cfg.output_dim = 1;
  Network net = make_mlp(cfg, rng);
  EXPECT_THROW(net.predict_batch(inputs, inputs), std::invalid_argument);
  tensor::Matrix wrong(2, 5, 0.0);
  EXPECT_THROW(net.predict_batch(wrong, out), std::invalid_argument);
}

TEST(PredictBatch, McDropoutStaysStochasticThroughInfer) {
  // UQ-by-MC-dropout depends on the inference path still drawing fresh
  // masks when mc_mode is on.
  Rng rng(35);
  Network net;
  net.add(std::make_unique<DenseLayer>(4, 32, rng));
  auto dropout = std::make_unique<DropoutLayer>(0.5, 32, Rng(36));
  dropout->set_mc_mode(true);
  net.add(std::move(dropout));
  net.add(std::make_unique<DenseLayer>(32, 1, rng));
  net.set_training(false);

  tensor::Matrix inputs(3, 4, 1.0);
  const tensor::Matrix first = net.predict_batch(inputs);
  const tensor::Matrix second = net.predict_batch(inputs);
  EXPECT_NE(first, second);
}

TEST(Dropout, InferDrawsSameMasksAsForward) {
  // Two identically seeded layers: one pushed through forward(), one
  // through infer().  MC sampling statistics must not depend on which
  // entry point served the pass, so the draws must line up exactly.
  DropoutLayer by_forward(0.5, 64, Rng(37));
  DropoutLayer by_infer(0.5, 64, Rng(37));
  by_forward.set_mc_mode(true);
  by_infer.set_mc_mode(true);
  by_forward.set_training(false);
  by_infer.set_training(false);

  tensor::Matrix x(2, 64, 1.0);
  tensor::Matrix inferred;
  for (int pass = 0; pass < 3; ++pass) {
    const tensor::Matrix forwarded = by_forward.forward(x);
    by_infer.infer(x, inferred);
    EXPECT_EQ(forwarded, inferred) << "pass " << pass;
  }
}

TEST(Dropout, MasksAndStreamMatchTheLibraryDraw) {
  // The layer draws each mask element as one integer compare; the reference
  // draws it through std::bernoulli_distribution(1 - rate) over
  // std::mt19937_64, element by element in row order.  Training forwards and
  // MC-mode inferences alternate; masks and the stream left behind must be
  // the same.
  for (const double rate : {0.1, 0.5, 0.9}) {
    DropoutLayer layer(rate, 37, Rng(91));
    std::mt19937_64 reference(91);
    std::bernoulli_distribution keep(1.0 - rate);
    const double scale = 1.0 / (1.0 - rate);
    const tensor::Matrix ones(5, 37, 1.0);
    tensor::Matrix masks;
    for (int pass = 0; pass < 40; ++pass) {
      if (pass % 2 == 0) {
        layer.set_training(true);
        layer.set_mc_mode(false);
        masks = layer.forward(ones);
      } else {
        layer.set_training(false);
        layer.set_mc_mode(true);
        layer.infer(ones, masks);
      }
      for (std::size_t i = 0; i < masks.size(); ++i) {
        ASSERT_EQ(masks.data()[i], keep(reference) ? scale : 0.0)
            << "rate " << rate << " pass " << pass << " element " << i;
      }
    }
    std::ostringstream ours, library;
    ours << layer.rng().engine();
    library << reference;
    EXPECT_EQ(ours.str(), library.str()) << "rate " << rate;
  }
}

// ---------------------------------------------------------------------------
// Per-layer inference autotuning (the ATLAS example pointed at serving).
// ---------------------------------------------------------------------------

Network small_mlp(unsigned seed, std::size_t input_dim = 5,
                  std::size_t output_dim = 3) {
  Rng rng(seed);
  MlpConfig cfg;
  cfg.input_dim = input_dim;
  cfg.hidden = {16, 16};
  cfg.output_dim = output_dim;
  cfg.activation = Activation::kTanh;
  return make_mlp(cfg, rng);
}

TEST(AutotuneInference, PicksAPlanPerDenseLayerWithoutChangingResults) {
  Network net = small_mlp(41);
  tensor::Matrix inputs(9, 5);
  Rng data_rng(42);
  for (double& v : inputs.flat()) v = data_rng.uniform(-2.0, 2.0);
  const tensor::Matrix before = net.predict_batch(inputs);

  const auto choices = net.autotune_inference(
      8, {tensor::GemmBlocking{}, tensor::GemmBlocking{16, 16, 16}}, 3);
  ASSERT_EQ(choices.size(), 3u);  // one per DenseLayer of the 5-16-16-3 MLP
  for (const auto& choice : choices) {
    EXPECT_EQ(choice.rows, 8u);
    EXPECT_GT(choice.inner, 0u);
    EXPECT_GT(choice.cols, 0u);
    EXPECT_GT(choice.best_us, 0.0);
    EXPECT_GE(choice.scalar_us, choice.best_us);  // winner is jointly best
    EXPECT_NE(choice.plan.kernel, tensor::GemmKernel::kAuto);
  }

  // Tuning only re-plans the GEMMs; results stay within kernel rounding.
  const tensor::Matrix after = net.predict_batch(inputs);
  EXPECT_LT(tensor::max_abs_diff(before, after), 1e-10);
}

TEST(AutotuneInference, ValidatesArguments) {
  Network net = small_mlp(43);
  EXPECT_THROW((void)net.autotune_inference(0), std::invalid_argument);
  EXPECT_THROW((void)net.autotune_inference(8, {}, 0), std::invalid_argument);
}

}  // namespace
}  // namespace le::nn
