#include "le/nn/layer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "le/tensor/ops.hpp"

namespace le::nn {

namespace {

// Gives an infer() output buffer its shape.  Every infer() writes each
// element of `out`, so a buffer that already has the shape (the network's
// ping-pong scratch on every call after the first) is reused as is instead
// of being refilled with zeros first.
void shape_for_overwrite(tensor::Matrix& out, std::size_t rows,
                         std::size_t cols) {
  if (out.rows() != rows || out.cols() != cols) out.resize(rows, cols);
}

}  // namespace

// ---------------------------------------------------------------------------
// DenseLayer

DenseLayer::DenseLayer(std::size_t in_dim, std::size_t out_dim, stats::Rng& rng)
    : weights_(in_dim, out_dim),
      weight_grads_(in_dim, out_dim),
      bias_(out_dim, 0.0),
      bias_grads_(out_dim, 0.0) {
  if (in_dim == 0 || out_dim == 0) {
    throw std::invalid_argument("DenseLayer: zero dimension");
  }
  // Glorot-uniform: U(-limit, limit), limit = sqrt(6 / (fan_in + fan_out)).
  const double limit =
      std::sqrt(6.0 / static_cast<double>(in_dim + out_dim));
  for (double& w : weights_.flat()) w = rng.uniform(-limit, limit);
}

tensor::Matrix DenseLayer::forward(const tensor::Matrix& input) {
  if (input.cols() != weights_.rows()) {
    throw std::invalid_argument("DenseLayer::forward: input dim mismatch");
  }
  cached_input_ = input;
  tensor::Matrix out(input.rows(), weights_.cols());
  tensor::gemm_exact(input, weights_, out);
  for (std::size_t r = 0; r < out.rows(); ++r) {
    auto row = out.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) row[c] += bias_[c];
  }
  return out;
}

void DenseLayer::infer(const tensor::Matrix& input, tensor::Matrix& out) {
  if (input.cols() != weights_.rows()) {
    throw std::invalid_argument("DenseLayer::infer: input dim mismatch");
  }
  shape_for_overwrite(out, input.rows(), weights_.cols());
  tensor::gemm(input, weights_, out, infer_plan_);
  for (std::size_t r = 0; r < out.rows(); ++r) {
    auto row = out.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) row[c] += bias_[c];
  }
}

tensor::Matrix DenseLayer::backward(const tensor::Matrix& grad_output) {
  if (grad_output.rows() != cached_input_.rows() ||
      grad_output.cols() != weights_.cols()) {
    throw std::invalid_argument("DenseLayer::backward: grad shape mismatch");
  }
  // dW += X^T * dY ; db += colsum(dY) ; dX = dY * W^T.  Both products run
  // on the exact kernel with the transpose folded into its operand layout,
  // so no transposed copy is made and the gradients equal gemm_naive's on
  // explicit transposes bit for bit.
  shape_for_overwrite(dw_scratch_, weights_.rows(), weights_.cols());
  tensor::gemm_exact(cached_input_, grad_output, dw_scratch_,
                     tensor::GemmOp::kTN);
  for (std::size_t i = 0; i < dw_scratch_.size(); ++i) {
    weight_grads_.data()[i] += dw_scratch_.data()[i];
  }
  for (std::size_t r = 0; r < grad_output.rows(); ++r) {
    auto row = grad_output.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) bias_grads_[c] += row[c];
  }
  tensor::Matrix dx(grad_output.rows(), weights_.rows());
  tensor::gemm_exact(grad_output, weights_, dx, tensor::GemmOp::kNT);
  return dx;
}

std::vector<ParamView> DenseLayer::parameters() {
  return {
      {weights_.flat(), weight_grads_.flat()},
      {std::span<double>{bias_}, std::span<double>{bias_grads_}},
  };
}

void DenseLayer::zero_grad() {
  weight_grads_.fill(0.0);
  bias_grads_.assign(bias_grads_.size(), 0.0);
}

std::unique_ptr<Layer> DenseLayer::clone() const {
  auto copy = std::make_unique<DenseLayer>(*this);
  return copy;
}

// ---------------------------------------------------------------------------
// ActivationLayer

std::string to_string(Activation a) {
  switch (a) {
    case Activation::kIdentity: return "identity";
    case Activation::kRelu: return "relu";
    case Activation::kLeakyRelu: return "leaky_relu";
    case Activation::kTanh: return "tanh";
    case Activation::kSigmoid: return "sigmoid";
  }
  return "unknown";
}

Activation activation_from_string(const std::string& s) {
  if (s == "identity") return Activation::kIdentity;
  if (s == "relu") return Activation::kRelu;
  if (s == "leaky_relu") return Activation::kLeakyRelu;
  if (s == "tanh") return Activation::kTanh;
  if (s == "sigmoid") return Activation::kSigmoid;
  throw std::invalid_argument("unknown activation: " + s);
}

namespace {

/// Scalar reference for one activation value (what forward() applies
/// elementwise).
double activation_apply(Activation kind, double x) {
  switch (kind) {
    case Activation::kIdentity: return x;
    case Activation::kRelu: return x > 0.0 ? x : 0.0;
    case Activation::kLeakyRelu: return x > 0.0 ? x : 0.01 * x;
    case Activation::kTanh: return std::tanh(x);
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
  }
  return x;
}

double activation_grad(Activation kind, double x) {
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
}

}  // namespace

tensor::Matrix ActivationLayer::forward(const tensor::Matrix& input) {
  if (input.cols() != dim_) {
    throw std::invalid_argument("ActivationLayer::forward: dim mismatch");
  }
  cached_input_ = input;
  tensor::Matrix out(input.rows(), input.cols());
  for (std::size_t i = 0; i < input.size(); ++i) {
    out.data()[i] = activation_apply(kind_, input.data()[i]);
  }
  return out;
}

void ActivationLayer::infer(const tensor::Matrix& input, tensor::Matrix& out) {
  if (input.cols() != dim_) {
    throw std::invalid_argument("ActivationLayer::infer: dim mismatch");
  }
  shape_for_overwrite(out, input.rows(), input.cols());
  // tanh and relu dominate the serving hot path; route them through the
  // kernel layer (AVX2 when active, scalar std::tanh otherwise).  The other
  // activations stay on the scalar reference.
  const std::span<const double> in_flat{input.data(), input.size()};
  const std::span<double> out_flat{out.data(), out.size()};
  switch (kind_) {
    case Activation::kTanh:
      tensor::vtanh(in_flat, out_flat);
      return;
    case Activation::kRelu:
      tensor::vrelu(in_flat, out_flat);
      return;
    default:
      break;
  }
  for (std::size_t i = 0; i < input.size(); ++i) {
    out.data()[i] = activation_apply(kind_, input.data()[i]);
  }
}

tensor::Matrix ActivationLayer::backward(const tensor::Matrix& grad_output) {
  if (grad_output.rows() != cached_input_.rows() ||
      grad_output.cols() != cached_input_.cols()) {
    throw std::invalid_argument("ActivationLayer::backward: shape mismatch");
  }
  tensor::Matrix dx(grad_output.rows(), grad_output.cols());
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    dx.data()[i] =
        grad_output.data()[i] * activation_grad(kind_, cached_input_.data()[i]);
  }
  return dx;
}

// ---------------------------------------------------------------------------
// DropoutLayer

namespace {

double checked_keep(double rate) {
  if (rate < 0.0 || rate >= 1.0) {
    throw std::invalid_argument("DropoutLayer: rate must be in [0,1)");
  }
  return 1.0 - rate;
}

}  // namespace

DropoutLayer::DropoutLayer(double rate, std::size_t dim, stats::Rng rng)
    : rate_(rate), dim_(dim), rng_(rng), keep_(checked_keep(rate)) {}

tensor::Matrix DropoutLayer::forward(const tensor::Matrix& input) {
  if (input.cols() != dim_) {
    throw std::invalid_argument("DropoutLayer::forward: dim mismatch");
  }
  if (!stochastic() || rate_ == 0.0) {
    mask_ = tensor::Matrix();  // identity pass; backward passes grads through
    return input;
  }
  const double scale = 1.0 / (1.0 - rate_);
  stats::Mt19937_64& engine = rng_.engine();
  mask_.resize(input.rows(), input.cols());
  tensor::Matrix out(input.rows(), input.cols());
  for (std::size_t i = 0; i < input.size(); ++i) {
    const double m = keep_(engine) ? scale : 0.0;
    mask_.data()[i] = m;
    out.data()[i] = input.data()[i] * m;
  }
  return out;
}

void DropoutLayer::infer(const tensor::Matrix& input, tensor::Matrix& out) {
  if (input.cols() != dim_) {
    throw std::invalid_argument("DropoutLayer::infer: dim mismatch");
  }
  shape_for_overwrite(out, input.rows(), input.cols());
  if (!stochastic() || rate_ == 0.0) {
    std::copy(input.data(), input.data() + input.size(), out.data());
    return;
  }
  const double scale = 1.0 / (1.0 - rate_);
  stats::Mt19937_64& engine = rng_.engine();
  for (std::size_t i = 0; i < input.size(); ++i) {
    out.data()[i] = input.data()[i] * (keep_(engine) ? scale : 0.0);
  }
}

tensor::Matrix DropoutLayer::backward(const tensor::Matrix& grad_output) {
  if (mask_.empty()) return grad_output;
  if (grad_output.rows() != mask_.rows() || grad_output.cols() != mask_.cols()) {
    throw std::invalid_argument("DropoutLayer::backward: shape mismatch");
  }
  tensor::Matrix dx(grad_output.rows(), grad_output.cols());
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    dx.data()[i] = grad_output.data()[i] * mask_.data()[i];
  }
  return dx;
}

std::unique_ptr<Layer> DropoutLayer::clone() const {
  return std::make_unique<DropoutLayer>(*this);
}

}  // namespace le::nn
