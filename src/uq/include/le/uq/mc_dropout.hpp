/// @file
/// MC-dropout uncertainty quantification (Gal & Ghahramani, paper refs
/// [42][43]): dropout masks stay active at inference, so T stochastic
/// forward passes form an implicit ensemble of thinned networks whose
/// spread is the epistemic-uncertainty estimate.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "le/data/dataset.hpp"
#include "le/nn/network.hpp"
#include "le/nn/train.hpp"
#include "le/stats/rng.hpp"
#include "le/uq/uq_model.hpp"

namespace le::uq {

/// Wraps a dropout-bearing network as a UqModel.  The wrapped network must
/// contain at least one DropoutLayer with rate > 0, otherwise all passes
/// coincide and the reported spread is zero (the constructor rejects
/// networks without dropout to prevent that silent failure).
class McDropoutEnsemble final : public UqModel {
 public:
  /// `forward_passes` is T, the implicit-ensemble size.
  McDropoutEnsemble(nn::Network network, std::size_t forward_passes = 32);

  [[nodiscard]] Prediction predict(std::span<const double> input) override;

  /// Batched MC-dropout: each row's T passes are stacked row-major (row r,
  /// pass t at stacked row r*T+t) and run as matrix-matrix forwards of at
  /// most ~256 stacked rows.  Every DropoutLayer owns its RNG and walks it
  /// over the stacked rows in order, so it draws exactly the masks that
  /// rows x predict() would: the result equals row-wise predict() bit for
  /// bit, and leaves the RNGs in the same state.  Each layer draws a whole
  /// stacked matrix's masks as block draws of at most 312 engine words
  /// (nn::DropoutLayer), the same words in the same order.
  [[nodiscard]] std::vector<Prediction> predict_batch(
      const tensor::Matrix& inputs) override;

  [[nodiscard]] std::size_t input_dim() const override;
  [[nodiscard]] std::size_t output_dim() const override;
  [[nodiscard]] std::size_t forward_passes() const noexcept { return passes_; }

  /// Deterministic point prediction (dropout off), for accuracy metrics.
  [[nodiscard]] std::vector<double> predict_mean_only(
      std::span<const double> input);

  /// Tunes the wrapped network's per-layer GEMM plans (see UqModel).
  std::vector<nn::LayerPlanChoice> autotune_inference(
      std::size_t batch_hint) override {
    return network_.autotune_inference(batch_hint);
  }

  [[nodiscard]] nn::Network& network() noexcept { return network_; }

 private:
  nn::Network network_;
  std::size_t passes_;
};

/// A trained MC-dropout surrogate and its final training loss.
struct McDropoutFit {
  std::shared_ptr<McDropoutEnsemble> model;
  double final_loss = 0.0;
};

/// Trains the surrogate the adaptive loop and the retraining service both
/// serve: a ReLU MLP (corpus dims, `hidden` widths, `dropout_rate`) fitted
/// with Adam(1e-2) on MSE, wrapped with `forward_passes` MC passes.  Both
/// streams come from the caller: `init_rng` draws the weights and the
/// dropout layers' seeds, `fit_rng` the epoch shuffles.
[[nodiscard]] McDropoutFit train_mc_dropout(
    const data::Dataset& corpus, const std::vector<std::size_t>& hidden,
    double dropout_rate, std::size_t forward_passes,
    const nn::TrainConfig& train, stats::Rng& init_rng, stats::Rng& fit_rng);

}  // namespace le::uq
