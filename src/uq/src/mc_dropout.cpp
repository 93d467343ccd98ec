#include "le/uq/mc_dropout.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "le/nn/loss.hpp"
#include "le/nn/optimizer.hpp"

namespace le::uq {

namespace {

/// Upper bound on the stacked rows of one predict_batch forward: it keeps
/// the activation buffers small (a few hundred rows x the widest layer)
/// however large the pool.
constexpr std::size_t kMaxStackedRows = 256;

/// Mean and sample spread of T passes from their running sums; predict()
/// and predict_batch() both finish here, so equal sums give equal bits.
Prediction moments(std::span<const double> sum, std::span<const double> sum_sq,
                   std::size_t passes) {
  Prediction p;
  p.mean.resize(sum.size());
  p.stddev.resize(sum.size());
  const double n = static_cast<double>(passes);
  for (std::size_t k = 0; k < sum.size(); ++k) {
    p.mean[k] = sum[k] / n;
    const double var =
        std::max(0.0, (sum_sq[k] - n * p.mean[k] * p.mean[k]) / (n - 1.0));
    p.stddev[k] = std::sqrt(var);
  }
  return p;
}
bool has_active_dropout(nn::Network& net) {
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (auto* d = dynamic_cast<nn::DropoutLayer*>(&net.layer(i))) {
      if (d->rate() > 0.0) return true;
    }
  }
  return false;
}
}  // namespace

McDropoutEnsemble::McDropoutEnsemble(nn::Network network,
                                     std::size_t forward_passes)
    : network_(std::move(network)), passes_(forward_passes) {
  if (passes_ < 2) {
    throw std::invalid_argument("McDropoutEnsemble: need >= 2 forward passes");
  }
  if (!has_active_dropout(network_)) {
    throw std::invalid_argument(
        "McDropoutEnsemble: network has no active dropout layer; "
        "its MC spread would be identically zero");
  }
  network_.set_training(false);
}

Prediction McDropoutEnsemble::predict(std::span<const double> input) {
  network_.set_training(false);
  network_.set_mc_dropout(true);
  const std::size_t out_dim = network_.output_dim();
  std::vector<double> sum(out_dim, 0.0), sum_sq(out_dim, 0.0);
  for (std::size_t t = 0; t < passes_; ++t) {
    const std::vector<double> y = network_.predict(input);
    for (std::size_t k = 0; k < out_dim; ++k) {
      sum[k] += y[k];
      sum_sq[k] += y[k] * y[k];
    }
  }
  network_.set_mc_dropout(false);
  return moments(sum, sum_sq, passes_);
}

std::vector<Prediction> McDropoutEnsemble::predict_batch(
    const tensor::Matrix& inputs) {
  if (inputs.cols() != network_.input_dim()) {
    throw std::invalid_argument(
        "McDropoutEnsemble::predict_batch: input dim mismatch");
  }
  network_.set_training(false);
  network_.set_mc_dropout(true);
  const std::size_t rows = inputs.rows();
  const std::size_t out_dim = network_.output_dim();
  const std::size_t chunk = std::max<std::size_t>(1, kMaxStackedRows / passes_);
  std::vector<Prediction> out;
  out.reserve(rows);
  std::vector<double> sum(out_dim), sum_sq(out_dim);
  tensor::Matrix stacked, y;
  for (std::size_t r0 = 0; r0 < rows; r0 += chunk) {
    // Row r's T passes are stacked rows r*T .. r*T+T-1, so every dropout
    // layer walks its own RNG over them in the order predict() would.
    const std::size_t count = std::min(chunk, rows - r0);
    stacked.resize(count * passes_, inputs.cols());
    for (std::size_t r = 0; r < count; ++r) {
      const auto src = inputs.row(r0 + r);
      for (std::size_t t = 0; t < passes_; ++t) {
        std::copy(src.begin(), src.end(), stacked.row(r * passes_ + t).begin());
      }
    }
    network_.predict_batch(stacked, y);
    for (std::size_t r = 0; r < count; ++r) {
      std::fill(sum.begin(), sum.end(), 0.0);
      std::fill(sum_sq.begin(), sum_sq.end(), 0.0);
      for (std::size_t t = 0; t < passes_; ++t) {
        const auto pass = y.row(r * passes_ + t);
        for (std::size_t k = 0; k < out_dim; ++k) {
          sum[k] += pass[k];
          sum_sq[k] += pass[k] * pass[k];
        }
      }
      out.push_back(moments(sum, sum_sq, passes_));
    }
  }
  network_.set_mc_dropout(false);
  return out;
}

std::size_t McDropoutEnsemble::input_dim() const { return network_.input_dim(); }

std::size_t McDropoutEnsemble::output_dim() const { return network_.output_dim(); }

std::vector<double> McDropoutEnsemble::predict_mean_only(
    std::span<const double> input) {
  network_.set_training(false);
  network_.set_mc_dropout(false);
  return network_.predict(input);
}

McDropoutFit train_mc_dropout(const data::Dataset& corpus,
                              const std::vector<std::size_t>& hidden,
                              double dropout_rate, std::size_t forward_passes,
                              const nn::TrainConfig& train,
                              stats::Rng& init_rng, stats::Rng& fit_rng) {
  nn::MlpConfig mlp;
  mlp.input_dim = corpus.input_dim();
  mlp.hidden = hidden;
  mlp.output_dim = corpus.target_dim();
  mlp.activation = nn::Activation::kRelu;
  mlp.dropout_rate = dropout_rate;
  nn::Network net = nn::make_mlp(mlp, init_rng);
  nn::AdamOptimizer opt(1e-2);
  const nn::MseLoss loss;
  const nn::TrainResult result =
      nn::fit(net, corpus, loss, opt, train, fit_rng);
  return {std::make_shared<McDropoutEnsemble>(std::move(net), forward_passes),
          result.final_train_loss};
}

}  // namespace le::uq
