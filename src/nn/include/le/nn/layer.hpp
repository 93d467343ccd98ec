/// @file
/// Neural-network layers.
///
/// The paper's case-study networks are small multilayer perceptrons (30 and
/// 48 hidden units for the autotuning net; similar for the nanoconfinement
/// surrogate), optionally with dropout for MC-dropout uncertainty
/// quantification (Section III-B).  Layers process batches stored as
/// (batch x features) row-major matrices and cache what backward() needs.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "le/stats/rng.hpp"
#include "le/tensor/matrix.hpp"
#include "le/tensor/ops.hpp"

namespace le::nn {

/// A mutable view of one parameter tensor and its gradient, exposed to
/// optimizers.  Both spans alias layer-owned storage of equal length.
struct ParamView {
  std::span<double> values;
  std::span<double> grads;
};

/// Abstract batch layer.  forward() must be called before backward(); the
/// layer caches activations internally between the two calls.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for a (batch x in_dim) input.
  virtual tensor::Matrix forward(const tensor::Matrix& input) = 0;

  /// Propagates (batch x out_dim) output gradients; accumulates parameter
  /// gradients internally and returns (batch x in_dim) input gradients.
  virtual tensor::Matrix backward(const tensor::Matrix& grad_output) = 0;

  /// Inference-only forward into a caller-owned buffer: identical math to
  /// forward() but nothing is cached for backward() and, once `out` has
  /// reached its steady-state shape, nothing is allocated.  The serving
  /// layer (le::serve) and Network::predict_batch run on this path so
  /// per-call overhead amortizes over the batch.  `out` must not alias
  /// `input`.  The default falls back to forward() for composite layers.
  virtual void infer(const tensor::Matrix& input, tensor::Matrix& out) {
    out = forward(input);
  }

  /// Parameter/gradient views for optimizers; empty for stateless layers.
  virtual std::vector<ParamView> parameters() { return {}; }

  /// Zeroes accumulated parameter gradients.
  virtual void zero_grad() {}

  /// Training-mode switch (dropout becomes active in training mode).
  virtual void set_training(bool training) { training_ = training; }
  [[nodiscard]] bool training() const noexcept { return training_; }

  [[nodiscard]] virtual std::size_t input_dim() const = 0;
  [[nodiscard]] virtual std::size_t output_dim() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

 protected:
  bool training_ = true;
};

/// Fully connected layer: out = in * W + b, W is (in_dim x out_dim).
class DenseLayer final : public Layer {
 public:
  /// Glorot-uniform initialization driven by the given stream.
  DenseLayer(std::size_t in_dim, std::size_t out_dim, stats::Rng& rng);

  /// Training forward and backward run every product through
  /// tensor::gemm_exact, so trained weights are bit-identical whichever
  /// kernel is active.
  tensor::Matrix forward(const tensor::Matrix& input) override;
  tensor::Matrix backward(const tensor::Matrix& grad_output) override;
  /// Forward through tensor::dense under this layer's GemmPlan (kernel +
  /// blocking), with no input caching.  The default plan defers the kernel
  /// choice to active_gemm_kernel(); Network::autotune_inference installs a
  /// measured per-layer plan (the ATLAS example generalized to kernel
  /// selection).  Accumulation order depends on the chosen kernel; paths
  /// agree to the DESIGN.md section 13 tolerance.
  void infer(const tensor::Matrix& input, tensor::Matrix& out) override;
  /// infer() with `activation` fused into the same pass: on the AVX2 kernel
  /// the bias and the tanh/ReLU run in registers before the one store, and
  /// the result equals infer() followed by the matching ActivationLayer's
  /// infer() bit for bit on every kernel.  Network::predict_batch runs each
  /// Dense -> tanh/ReLU pair this way.
  void infer(const tensor::Matrix& input, tensor::Matrix& out,
             tensor::DenseActivation activation);
  std::vector<ParamView> parameters() override;
  void zero_grad() override;

  [[nodiscard]] std::size_t input_dim() const override { return weights_.rows(); }
  [[nodiscard]] std::size_t output_dim() const override { return weights_.cols(); }
  [[nodiscard]] std::string name() const override { return "dense"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;

  [[nodiscard]] tensor::Matrix& weights() noexcept { return weights_; }
  [[nodiscard]] const tensor::Matrix& weights() const noexcept { return weights_; }
  [[nodiscard]] std::span<double> bias() noexcept { return {bias_}; }
  [[nodiscard]] std::span<const double> bias() const noexcept { return {bias_}; }

  /// The GEMM plan infer() runs under; default defers to the process-wide
  /// active kernel with default blocking.
  [[nodiscard]] const tensor::GemmPlan& infer_plan() const noexcept {
    return infer_plan_;
  }
  void set_infer_plan(const tensor::GemmPlan& plan) noexcept {
    infer_plan_ = plan;
  }

 private:
  tensor::Matrix weights_;
  tensor::Matrix weight_grads_;
  std::vector<double> bias_;
  std::vector<double> bias_grads_;
  tensor::Matrix cached_input_;
  tensor::Matrix dw_scratch_;  ///< backward()'s X^T * dY, reused per step
  tensor::GemmPlan infer_plan_{};
};

/// Supported pointwise nonlinearities.
enum class Activation { kIdentity, kRelu, kLeakyRelu, kTanh, kSigmoid };

[[nodiscard]] std::string to_string(Activation a);
[[nodiscard]] Activation activation_from_string(const std::string& s);

/// Pointwise activation layer.  Training forward caches the output, not the
/// input: every supported derivative is a function of the output with the
/// same bits (DESIGN.md section 13), so backward() evaluates no
/// transcendental.  ReLU runs as compare-and-mask kernels (AVX2 when
/// tensor::active_gemm_kernel() is kAvx2) equal to the scalar reference bit
/// for bit.
class ActivationLayer final : public Layer {
 public:
  ActivationLayer(Activation kind, std::size_t dim)
      : kind_(kind), dim_(dim) {}

  tensor::Matrix forward(const tensor::Matrix& input) override;
  tensor::Matrix backward(const tensor::Matrix& grad_output) override;
  void infer(const tensor::Matrix& input, tensor::Matrix& out) override;

  [[nodiscard]] std::size_t input_dim() const override { return dim_; }
  [[nodiscard]] std::size_t output_dim() const override { return dim_; }
  [[nodiscard]] std::string name() const override { return "activation:" + to_string(kind_); }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ActivationLayer>(kind_, dim_);
  }
  [[nodiscard]] Activation kind() const noexcept { return kind_; }

 private:
  Activation kind_;
  std::size_t dim_;
  tensor::Matrix cached_output_;
};

/// Inverted dropout.  Active in training mode; in evaluation mode it is the
/// identity unless mc_mode is set, which keeps the stochastic masks on so
/// repeated forward passes form an MC-dropout ensemble (Section III-B).
///
/// Each mask element takes one engine word, in row order, and keeps the unit
/// exactly when std::bernoulli_distribution(1 - rate) would on that word.
/// Under tensor::GemmKernel::kAvx2 the words come a block at a time from
/// Mt19937_64::generate() and the compare, mask and product run on four
/// lanes; otherwise each element is one engine call and one compare.  Both
/// give the same masks, products and stream state.
class DropoutLayer final : public Layer {
 public:
  DropoutLayer(double rate, std::size_t dim, stats::Rng rng);

  tensor::Matrix forward(const tensor::Matrix& input) override;
  tensor::Matrix backward(const tensor::Matrix& grad_output) override;
  /// In deterministic evaluation this is a copy; in training/MC mode it
  /// draws masks exactly like forward() (same RNG stream consumption) but
  /// does not retain them, since no backward() follows inference.
  void infer(const tensor::Matrix& input, tensor::Matrix& out) override;

  void set_mc_mode(bool on) noexcept { mc_mode_ = on; }
  [[nodiscard]] bool mc_mode() const noexcept { return mc_mode_; }
  [[nodiscard]] double rate() const noexcept { return rate_; }
  /// The mask stream, as it stands after the masks drawn so far.
  [[nodiscard]] const stats::Rng& rng() const noexcept { return rng_; }

  [[nodiscard]] std::size_t input_dim() const override { return dim_; }
  [[nodiscard]] std::size_t output_dim() const override { return dim_; }
  [[nodiscard]] std::string name() const override { return "dropout"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;

 private:
  [[nodiscard]] bool stochastic() const noexcept { return training_ || mc_mode_; }
  /// Draws input.size() masks and writes out = input * mask, and the masks
  /// to `mask` unless it is null; forward() and infer() both draw here.
  void apply_masks(const tensor::Matrix& input, double* out, double* mask);

  double rate_;
  std::size_t dim_;
  stats::Rng rng_;
  // Keeps a unit with probability 1 - rate: the same draws, from the same
  // single engine output each, as std::bernoulli_distribution(1 - rate).
  stats::BernoulliCut keep_;
  bool mc_mode_ = false;
  tensor::Matrix mask_;
};

}  // namespace le::nn
