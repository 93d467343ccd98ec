/// @file
/// Mini-batch training loop.
#pragma once

#include "le/data/dataset.hpp"
#include "le/nn/loss.hpp"
#include "le/nn/network.hpp"
#include "le/nn/optimizer.hpp"
#include "le/stats/rng.hpp"

namespace le::nn {

struct TrainConfig {
  std::size_t epochs = 100;
  std::size_t batch_size = 32;
};

struct TrainResult {
  /// Mean batch loss over the last epoch.
  double final_train_loss = 0.0;
};

/// Trains `net` in place for `config.epochs` epochs.  Shuffles each epoch
/// with `rng`.
TrainResult fit(Network& net, const data::Dataset& train_data,
                const Loss& loss, Optimizer& optimizer,
                const TrainConfig& config, stats::Rng& rng);

/// Mean loss of `net` over a dataset (evaluation mode, no dropout).
[[nodiscard]] double evaluate(Network& net, const data::Dataset& dataset,
                              const Loss& loss);

/// Batch prediction over a dataset's inputs -> (n x output_dim) matrix.
[[nodiscard]] tensor::Matrix predict_all(Network& net,
                                         const data::Dataset& dataset);

}  // namespace le::nn
