/// @file
/// Deep ensembles: M independently initialized and trained replicas whose
/// prediction spread estimates epistemic uncertainty.  The paper's Section
/// III-B calls model averaging the ideal resolution of the bias-variance
/// trade-off but notes its training cost; this class is that reference
/// point, against which MC-dropout is the cheap approximation
/// (bench_uq compares the two).
#pragma once

#include <vector>

#include "le/data/dataset.hpp"
#include "le/nn/network.hpp"
#include "le/nn/train.hpp"
#include "le/uq/uq_model.hpp"

namespace le::uq {

class DeepEnsemble final : public UqModel {
 public:
  /// Takes ownership of already-trained member networks (>= 2).
  explicit DeepEnsemble(std::vector<nn::Network> members);

  [[nodiscard]] Prediction predict(std::span<const double> input) override;
  /// Batched ensemble inference: one matrix-matrix forward per member,
  /// reduced into scratch the ensemble keeps between calls.
  [[nodiscard]] std::vector<Prediction> predict_batch(
      const tensor::Matrix& inputs) override;
  [[nodiscard]] std::size_t input_dim() const override;
  [[nodiscard]] std::size_t output_dim() const override;
  [[nodiscard]] std::size_t member_count() const noexcept { return members_.size(); }

  /// Tunes every member's per-layer GEMM plans; choices concatenate in
  /// member order (see UqModel).
  std::vector<nn::LayerPlanChoice> autotune_inference(
      std::size_t batch_hint) override {
    std::vector<nn::LayerPlanChoice> all;
    for (nn::Network& member : members_) {
      auto choices = member.autotune_inference(batch_hint);
      all.insert(all.end(), choices.begin(), choices.end());
    }
    return all;
  }

 private:
  std::vector<nn::Network> members_;
  /// predict_batch's per-row sums of member outputs and of their squares,
  /// and one member's output; transient scratch.
  tensor::Matrix sum_, sum_sq_, member_out_;
};

/// Trains `members` replicas of the MLP described by `config` on the same
/// dataset with different init/shuffle seeds and returns the ensemble.
[[nodiscard]] DeepEnsemble train_deep_ensemble(
    const nn::MlpConfig& config, std::size_t members,
    const data::Dataset& train_data, const nn::TrainConfig& train_config,
    stats::Rng& rng);

}  // namespace le::uq
