#include "le/nn/network.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "le/tensor/ops.hpp"

namespace le::nn {

void Network::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Network::add: null layer");
  if (!layers_.empty() && layers_.back()->output_dim() != layer->input_dim()) {
    throw std::invalid_argument("Network::add: layer dimension mismatch");
  }
  layers_.push_back(std::move(layer));
}

tensor::Matrix Network::forward(const tensor::Matrix& input) {
  if (layers_.empty()) throw std::logic_error("Network::forward: empty network");
  tensor::Matrix x = input;
  for (auto& layer : layers_) x = layer->forward(x);
  return x;
}

tensor::Matrix Network::backward(const tensor::Matrix& grad_output) {
  if (layers_.empty()) throw std::logic_error("Network::backward: empty network");
  tensor::Matrix g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Network::predict_batch(const tensor::Matrix& inputs,
                            tensor::Matrix& outputs) {
  if (layers_.empty()) {
    throw std::logic_error("Network::predict_batch: empty network");
  }
  if (&inputs == &outputs) {
    throw std::invalid_argument("Network::predict_batch: outputs alias inputs");
  }
  const tensor::Matrix* cur = &inputs;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    // A Dense followed by a tanh or ReLU runs as one fused pass.
    auto* dense = dynamic_cast<DenseLayer*>(layers_[i].get());
    const auto* next =
        dense != nullptr && i + 1 < layers_.size()
            ? dynamic_cast<const ActivationLayer*>(layers_[i + 1].get())
            : nullptr;
    tensor::DenseActivation fused = tensor::DenseActivation::kNone;
    if (next != nullptr && next->kind() == Activation::kTanh) {
      fused = tensor::DenseActivation::kTanh;
    } else if (next != nullptr && next->kind() == Activation::kRelu) {
      fused = tensor::DenseActivation::kRelu;
    }
    if (fused != tensor::DenseActivation::kNone) ++i;
    tensor::Matrix& dst = i + 1 == layers_.size()
                              ? outputs
                              : (cur == &infer_scratch_[0] ? infer_scratch_[1]
                                                           : infer_scratch_[0]);
    if (fused != tensor::DenseActivation::kNone) {
      dense->infer(*cur, dst, fused);
    } else {
      layers_[i]->infer(*cur, dst);
    }
    cur = &dst;
  }
}

tensor::Matrix Network::predict_batch(const tensor::Matrix& inputs) {
  tensor::Matrix outputs;
  predict_batch(inputs, outputs);
  return outputs;
}

std::vector<double> Network::predict(std::span<const double> input) {
  // Thread-local row buffers: the historical implementation allocated a
  // fresh 1-row batch (and one matrix per layer) per call, which dominated
  // T_lookup for the paper's microsecond-scale surrogate queries.
  thread_local tensor::Matrix in_row;
  thread_local tensor::Matrix out_row;
  in_row.resize(1, input.size());
  for (std::size_t i = 0; i < input.size(); ++i) in_row(0, i) = input[i];
  predict_batch(in_row, out_row);
  return {out_row.data(), out_row.data() + out_row.cols()};
}

std::vector<ParamView> Network::parameters() {
  std::vector<ParamView> all;
  for (auto& layer : layers_) {
    auto views = layer->parameters();
    all.insert(all.end(), views.begin(), views.end());
  }
  return all;
}

void Network::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

void Network::set_training(bool training) {
  for (auto& layer : layers_) layer->set_training(training);
}

void Network::set_mc_dropout(bool on) {
  for (auto& layer : layers_) {
    if (auto* d = dynamic_cast<DropoutLayer*>(layer.get())) d->set_mc_mode(on);
  }
}

std::size_t Network::input_dim() const {
  if (layers_.empty()) throw std::logic_error("Network::input_dim: empty network");
  return layers_.front()->input_dim();
}

std::size_t Network::output_dim() const {
  if (layers_.empty()) throw std::logic_error("Network::output_dim: empty network");
  return layers_.back()->output_dim();
}

std::size_t Network::parameter_count() {
  std::size_t n = 0;
  for (const auto& view : parameters()) n += view.values.size();
  return n;
}

std::vector<double> Network::get_weights() {
  std::vector<double> flat;
  for (const auto& view : parameters()) {
    flat.insert(flat.end(), view.values.begin(), view.values.end());
  }
  return flat;
}

void Network::set_weights(std::span<const double> flat) {
  std::size_t offset = 0;
  for (const auto& view : parameters()) {
    if (offset + view.values.size() > flat.size()) {
      throw std::invalid_argument("Network::set_weights: vector too short");
    }
    for (std::size_t i = 0; i < view.values.size(); ++i) {
      view.values[i] = flat[offset + i];
    }
    offset += view.values.size();
  }
  if (offset != flat.size()) {
    throw std::invalid_argument("Network::set_weights: vector too long");
  }
}

std::vector<LayerPlanChoice> Network::autotune_inference(
    std::size_t batch_hint, const std::vector<tensor::GemmBlocking>& blockings,
    std::size_t repeats) {
  if (batch_hint == 0 || repeats == 0) {
    throw std::invalid_argument(
        "Network::autotune_inference: batch_hint and repeats must be positive");
  }
  const std::vector<tensor::GemmBlocking> candidates_blocking =
      blockings.empty() ? std::vector<tensor::GemmBlocking>{{}} : blockings;
  std::vector<tensor::GemmKernel> candidate_kernels{
      tensor::GemmKernel::kScalar};
  if (tensor::cpu_has_avx2_fma()) {
    candidate_kernels.push_back(tensor::GemmKernel::kAvx2);
  }
  if (tensor::cpu_has_avx512f()) {
    candidate_kernels.push_back(tensor::GemmKernel::kAvx512);
  }

  const auto time_plan = [&](const tensor::Matrix& a, const tensor::Matrix& b,
                             tensor::Matrix& out, const tensor::GemmPlan& plan) {
    tensor::gemm(a, b, out, plan);  // warm-up (touches out, loads code)
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < repeats; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      tensor::gemm(a, b, out, plan);
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(
          best, std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    return best;
  };

  std::vector<LayerPlanChoice> choices;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    auto* dense = dynamic_cast<DenseLayer*>(layers_[i].get());
    if (dense == nullptr) continue;
    const std::size_t k = dense->input_dim(), n = dense->output_dim();
    tensor::Matrix a(batch_hint, k);
    for (std::size_t e = 0; e < a.size(); ++e) {
      a.data()[e] = std::sin(0.7 * static_cast<double>(e + 1));
    }
    tensor::Matrix out(batch_hint, n);

    LayerPlanChoice choice;
    choice.layer_index = i;
    choice.rows = batch_hint;
    choice.inner = k;
    choice.cols = n;
    choice.best_us = std::numeric_limits<double>::infinity();
    for (const tensor::GemmKernel kernel : candidate_kernels) {
      for (const tensor::GemmBlocking& blocking : candidates_blocking) {
        const tensor::GemmPlan plan{kernel, blocking};
        const double us = time_plan(a, dense->weights(), out, plan);
        if (kernel == tensor::GemmKernel::kScalar) {
          choice.scalar_us =
              choice.scalar_us == 0.0 ? us : std::min(choice.scalar_us, us);
        }
        if (us < choice.best_us) {
          choice.best_us = us;
          choice.plan = plan;
        }
      }
    }
    dense->set_infer_plan(choice.plan);
    choices.push_back(choice);
  }
  return choices;
}

Network Network::clone() const {
  Network copy;
  for (const auto& layer : layers_) copy.layers_.push_back(layer->clone());
  return copy;
}

Network make_mlp(const MlpConfig& config, stats::Rng& rng) {
  Network net;
  std::size_t prev = config.input_dim;
  std::uint64_t salt = 1;
  for (std::size_t width : config.hidden) {
    net.add(std::make_unique<DenseLayer>(prev, width, rng));
    net.add(std::make_unique<ActivationLayer>(config.activation, width));
    if (config.dropout_rate > 0.0) {
      net.add(std::make_unique<DropoutLayer>(config.dropout_rate, width,
                                             rng.split(salt++)));
    }
    prev = width;
  }
  net.add(std::make_unique<DenseLayer>(prev, config.output_dim, rng));
  return net;
}

}  // namespace le::nn
