#include "le/nn/train.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "le/obs/metrics.hpp"
#include "le/obs/timer.hpp"

namespace le::nn {

namespace {

tensor::Matrix gather_rows(const data::Dataset& ds,
                           std::span<const std::size_t> idx, bool inputs) {
  const std::size_t dim = inputs ? ds.input_dim() : ds.target_dim();
  tensor::Matrix m(idx.size(), dim);
  for (std::size_t r = 0; r < idx.size(); ++r) {
    auto row = inputs ? ds.input(idx[r]) : ds.target(idx[r]);
    std::copy(row.begin(), row.end(), m.row(r).begin());
  }
  return m;
}

}  // namespace

TrainResult fit(Network& net, const data::Dataset& train_data,
                const Loss& loss, Optimizer& optimizer,
                const TrainConfig& config, stats::Rng& rng) {
  if (train_data.empty()) throw std::invalid_argument("fit: empty dataset");
  if (config.batch_size == 0) throw std::invalid_argument("fit: batch_size == 0");

  TrainResult result;
  std::vector<std::size_t> order(train_data.size());
  std::iota(order.begin(), order.end(), 0);

  // Per-epoch wall time feeds the observability layer (T_learn in the
  // Section III-D model); both handles stay null when metrics are off.
  obs::Histogram* epoch_seconds = nullptr;
  obs::Counter* epochs_counter = nullptr;
  if (obs::metrics_enabled()) {
    auto& registry = obs::MetricsRegistry::global();
    epoch_seconds = &registry.histogram("nn.fit.epoch_seconds");
    epochs_counter = &registry.counter("nn.fit.epochs");
  }

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    obs::ScopedTimer epoch_timer(epoch_seconds);
    if (epochs_counter) epochs_counter->add();
    net.set_training(true);
    rng.shuffle(std::span<std::size_t>{order});

    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += config.batch_size) {
      const std::size_t count = std::min(config.batch_size, order.size() - start);
      const std::span<const std::size_t> idx{order.data() + start, count};
      tensor::Matrix x = gather_rows(train_data, idx, /*inputs=*/true);
      tensor::Matrix y = gather_rows(train_data, idx, /*inputs=*/false);

      net.zero_grad();
      tensor::Matrix pred = net.forward(x);
      LossResult lr = loss.evaluate(pred, y);
      net.backward(lr.grad);
      optimizer.step(net.parameters());
      epoch_loss += lr.value;
      ++batches;
    }
    epoch_loss /= static_cast<double>(std::max<std::size_t>(batches, 1));
    result.final_train_loss = epoch_loss;
  }
  net.set_training(false);
  return result;
}

double evaluate(Network& net, const data::Dataset& dataset, const Loss& loss) {
  if (dataset.empty()) throw std::invalid_argument("evaluate: empty dataset");
  net.set_training(false);
  tensor::Matrix pred = predict_all(net, dataset);
  return loss.evaluate(pred, dataset.target_matrix()).value;
}

tensor::Matrix predict_all(Network& net, const data::Dataset& dataset) {
  net.set_training(false);
  return net.forward(dataset.input_matrix());
}

}  // namespace le::nn
