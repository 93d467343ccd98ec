#include "le/uq/deep_ensemble.hpp"

#include <cmath>
#include <stdexcept>

#include "le/nn/loss.hpp"
#include "le/nn/optimizer.hpp"

namespace le::uq {

DeepEnsemble::DeepEnsemble(std::vector<nn::Network> members)
    : members_(std::move(members)) {
  if (members_.size() < 2) {
    throw std::invalid_argument("DeepEnsemble: need >= 2 members");
  }
  for (auto& m : members_) {
    if (m.input_dim() != members_.front().input_dim() ||
        m.output_dim() != members_.front().output_dim()) {
      throw std::invalid_argument("DeepEnsemble: member shape mismatch");
    }
    m.set_training(false);
  }
}

Prediction DeepEnsemble::predict(std::span<const double> input) {
  const std::size_t out_dim = output_dim();
  std::vector<double> sum(out_dim, 0.0), sum_sq(out_dim, 0.0);
  for (auto& member : members_) {
    const std::vector<double> y = member.predict(input);
    for (std::size_t k = 0; k < out_dim; ++k) {
      sum[k] += y[k];
      sum_sq[k] += y[k] * y[k];
    }
  }
  Prediction p;
  p.mean.resize(out_dim);
  p.stddev.resize(out_dim);
  const double n = static_cast<double>(members_.size());
  for (std::size_t k = 0; k < out_dim; ++k) {
    p.mean[k] = sum[k] / n;
    const double var =
        std::max(0.0, (sum_sq[k] - n * p.mean[k] * p.mean[k]) / (n - 1.0));
    p.stddev[k] = std::sqrt(var);
  }
  return p;
}

std::vector<Prediction> DeepEnsemble::predict_batch(
    const tensor::Matrix& inputs) {
  if (inputs.cols() != input_dim()) {
    throw std::invalid_argument("DeepEnsemble::predict_batch: input dim mismatch");
  }
  const std::size_t rows = inputs.rows();
  const std::size_t out_dim = output_dim();
  // resize() refills with zeros in the buffers' kept capacity, so a
  // steady-state batch allocates only the Predictions it returns.
  sum_.resize(rows, out_dim);
  sum_sq_.resize(rows, out_dim);
  double* sum = sum_.data();
  double* sum_sq = sum_sq_.data();
  for (auto& member : members_) {
    member.predict_batch(inputs, member_out_);
    const double* y = member_out_.data();
    for (std::size_t i = 0; i < member_out_.size(); ++i) {
      sum[i] += y[i];
      sum_sq[i] += y[i] * y[i];
    }
  }

  std::vector<Prediction> out(rows);
  const double n = static_cast<double>(members_.size());
  for (std::size_t r = 0; r < rows; ++r) {
    Prediction& p = out[r];
    p.mean.resize(out_dim);
    p.stddev.resize(out_dim);
    for (std::size_t k = 0; k < out_dim; ++k) {
      const std::size_t i = r * out_dim + k;
      p.mean[k] = sum[i] / n;
      const double var =
          std::max(0.0, (sum_sq[i] - n * p.mean[k] * p.mean[k]) / (n - 1.0));
      p.stddev[k] = std::sqrt(var);
    }
  }
  return out;
}

std::size_t DeepEnsemble::input_dim() const {
  return members_.front().input_dim();
}

std::size_t DeepEnsemble::output_dim() const {
  return members_.front().output_dim();
}

DeepEnsemble train_deep_ensemble(const nn::MlpConfig& config,
                                 std::size_t members,
                                 const data::Dataset& train_data,
                                 const nn::TrainConfig& train_config,
                                 stats::Rng& rng) {
  std::vector<nn::Network> nets;
  nets.reserve(members);
  const nn::MseLoss loss;
  for (std::size_t m = 0; m < members; ++m) {
    stats::Rng member_rng = rng.split(1000 + m);
    nn::Network net = nn::make_mlp(config, member_rng);
    nn::AdamOptimizer opt(1e-2);
    nn::fit(net, train_data, loss, opt, train_config, member_rng);
    nets.push_back(std::move(net));
  }
  return DeepEnsemble(std::move(nets));
}

}  // namespace le::uq
