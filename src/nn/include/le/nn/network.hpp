/// @file
/// Sequential feed-forward network and the MLP builder used by every
/// surrogate in this repository.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "le/nn/layer.hpp"
#include "le/stats/rng.hpp"
#include "le/tensor/matrix.hpp"

namespace le::nn {

/// One per-layer decision made by Network::autotune_inference: the GEMM
/// shape that layer runs at the tuned batch size, the winning plan, and the
/// measured timings that picked it.
struct LayerPlanChoice {
  std::size_t layer_index = 0;              ///< index into Network::layer()
  std::size_t rows = 0, inner = 0, cols = 0;  ///< timed GEMM shape (m,k,n)
  tensor::GemmPlan plan;                    ///< winner, installed on the layer
  double best_us = 0.0;                     ///< winner's measured time
  double scalar_us = 0.0;                   ///< scalar reference time
};

/// A sequence of layers applied in order.  Owns its layers; copyable via
/// clone().  Thread-compatibility: a Network instance is NOT safe for
/// concurrent use (layers cache activations); clone per worker instead —
/// the runtime sync engines (Section III-A experiments) do exactly that.
class Network {
 public:
  Network() = default;

  void add(std::unique_ptr<Layer> layer);

  /// Batch forward pass through all layers.
  [[nodiscard]] tensor::Matrix forward(const tensor::Matrix& input);

  /// Backward pass; must follow a forward() on the same batch.  Parameter
  /// gradients accumulate until zero_grad().
  tensor::Matrix backward(const tensor::Matrix& grad_output);

  /// Inference-only batch forward: each row of `inputs` is one sample and
  /// `outputs` is resized to (inputs.rows() x output_dim()).  Activations
  /// flow through the layers' infer() path via two network-owned scratch
  /// buffers, so steady-state calls allocate nothing and the training-time
  /// activation caches are left untouched — one matrix-matrix pass through
  /// every layer instead of inputs.rows() single-row dispatches.  A
  /// DenseLayer followed by a tanh or ReLU ActivationLayer runs as one
  /// fused pass (DenseLayer::infer with the activation), with the bits of
  /// the two layers run one after the other.  `outputs` must not alias
  /// `inputs`.
  void predict_batch(const tensor::Matrix& inputs, tensor::Matrix& outputs);

  /// Allocating predict_batch convenience.
  [[nodiscard]] tensor::Matrix predict_batch(const tensor::Matrix& inputs);

  /// Single-sample inference convenience.  Runs on the predict_batch path
  /// with thread-local row buffers, so repeated calls do not allocate the
  /// 1-row batch they historically did (see bench_serving's before/after).
  [[nodiscard]] std::vector<double> predict(std::span<const double> input);

  /// Concatenated parameter views in layer order.
  [[nodiscard]] std::vector<ParamView> parameters();

  void zero_grad();
  void set_training(bool training);

  /// Switches all dropout layers into Monte-Carlo mode (stochastic masks at
  /// inference), forming the UQ ensemble of Section III-B.
  void set_mc_dropout(bool on);

  [[nodiscard]] std::size_t layer_count() const noexcept { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_.at(i); }
  [[nodiscard]] const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  [[nodiscard]] std::size_t input_dim() const;
  [[nodiscard]] std::size_t output_dim() const;

  /// Total number of trainable scalars.
  [[nodiscard]] std::size_t parameter_count();

  /// Copies all parameter values out into / in from a flat vector, in the
  /// same order as parameters().  Used by the sync engines to exchange
  /// models between workers.
  [[nodiscard]] std::vector<double> get_weights();
  void set_weights(std::span<const double> flat);

  [[nodiscard]] Network clone() const;

  /// ATLAS-style startup autotuning generalized to kernel selection: for
  /// every DenseLayer, times each runnable kernel (scalar always; AVX2 when
  /// the CPU supports it) crossed with `blockings` on this layer's GEMM
  /// shape at `batch_hint` rows, installs the fastest plan via
  /// set_infer_plan(), and returns the decisions.  Measured per layer
  /// because the winner is shape-dependent: wide hidden layers vectorize
  /// well while narrow output layers can favor scalar.  Empty `blockings`
  /// means the default GemmBlocking only.
  std::vector<LayerPlanChoice> autotune_inference(
      std::size_t batch_hint,
      const std::vector<tensor::GemmBlocking>& blockings = {},
      std::size_t repeats = 20);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  /// Ping-pong activation buffers for predict_batch; transient scratch,
  /// never serialized or cloned.
  tensor::Matrix infer_scratch_[2];
};

/// Configuration of a plain MLP surrogate.
struct MlpConfig {
  std::size_t input_dim = 1;
  std::vector<std::size_t> hidden = {32};
  std::size_t output_dim = 1;
  Activation activation = Activation::kRelu;
  /// Dropout applied after each hidden activation; 0 disables.
  double dropout_rate = 0.0;
};

/// Builds Dense -> Activation -> [Dropout] blocks plus a linear output layer.
[[nodiscard]] Network make_mlp(const MlpConfig& config, stats::Rng& rng);

}  // namespace le::nn
