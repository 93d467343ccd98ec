#include "le/nn/layer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "le/tensor/ops.hpp"
#include "le/tensor/simd.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LE_LAYER_AVX2 __attribute__((target("avx2")))
#endif

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
  infer(input, out, tensor::DenseActivation::kNone);
}

void DenseLayer::infer(const tensor::Matrix& input, tensor::Matrix& out,
                       tensor::DenseActivation activation) {
  if (input.cols() != weights_.rows()) {
    throw std::invalid_argument("DenseLayer::infer: input dim mismatch");
  }
  shape_for_overwrite(out, input.rows(), weights_.cols());
  tensor::dense(input, weights_, bias_, out, activation, infer_plan_);
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

/// The derivative at the input x, written in terms of the output
/// y = activation_apply(kind, x): tanh' = 1 - y*y and sigmoid' = y(1 - y)
/// are the very expressions the input form evaluates after its one
/// transcendental, and (leaky) ReLU's y > 0 holds exactly when x > 0, NaN
/// and -0.0 included.  So the gradient has the same bits without a second
/// std::tanh or std::exp, and the layer need not keep its input.
double activation_grad(Activation kind, double y) {
  switch (kind) {
    case Activation::kIdentity: return 1.0;
    case Activation::kRelu: return y > 0.0 ? 1.0 : 0.0;
    case Activation::kLeakyRelu: return y > 0.0 ? 1.0 : 0.01;
    case Activation::kTanh: return 1.0 - y * y;
    case Activation::kSigmoid: return y * (1.0 - y);
  }
  return 1.0;
}

#if defined(LE_LAYER_AVX2)
// dx = g * (y > 0 ? 1 : 0) on four lanes: the ordered compare is false for
// NaN and for both zeros, and its all-ones lanes AND 1.0 to exactly 1.0, so
// each product is the scalar one.  Returns how many elements it wrote (n
// rounded down to a multiple of 4).
LE_LAYER_AVX2 std::size_t relu_backward_avx2(const double* y, const double* g,
                                             double* dx, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d on = _mm256_and_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(y + i), zero, _CMP_GT_OQ), one);
    _mm256_storeu_pd(dx + i, _mm256_mul_pd(_mm256_loadu_pd(g + i), on));
  }
  return i;
}
#endif

}  // namespace

tensor::Matrix ActivationLayer::forward(const tensor::Matrix& input) {
  if (input.cols() != dim_) {
    throw std::invalid_argument("ActivationLayer::forward: dim mismatch");
  }
  shape_for_overwrite(cached_output_, input.rows(), input.cols());
  if (kind_ == Activation::kRelu) {
    // tensor::vrelu is max(x, 0) on every kernel, which is x > 0 ? x : 0
    // bit for bit (NaN and -0.0 give +0.0).
    tensor::vrelu({input.data(), input.size()},
                  {cached_output_.data(), cached_output_.size()});
  } else {
    for (std::size_t i = 0; i < input.size(); ++i) {
      cached_output_.data()[i] = activation_apply(kind_, input.data()[i]);
    }
  }
  return cached_output_;
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
  if (grad_output.rows() != cached_output_.rows() ||
      grad_output.cols() != cached_output_.cols()) {
    throw std::invalid_argument("ActivationLayer::backward: shape mismatch");
  }
  tensor::Matrix dx(grad_output.rows(), grad_output.cols());
  const double* y = cached_output_.data();
  const double* g = grad_output.data();
  std::size_t i = 0;
#if defined(LE_LAYER_AVX2)
  if (kind_ == Activation::kRelu &&
      tensor::avx2_or_wider(tensor::active_gemm_kernel())) {
    i = relu_backward_avx2(y, g, dx.data(), dx.size());
  }
#endif
  for (; i < dx.size(); ++i) dx.data()[i] = g[i] * activation_grad(kind_, y[i]);
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

#if defined(LE_LAYER_AVX2)
// Masks and products of n elements on four lanes: element i is kept when
// words[i] <= last_true, exactly BernoulliCut's compare.  AVX2 compares
// signed, so both sides get their sign bit flipped first: (w ^ 2^63) >
// (c ^ 2^63) as signed exactly when w > c as unsigned, which marks the
// dropped lanes; andnot turns them into +0.0 and the kept lanes into
// `scale`.  The products are then the scalar in * m bit for bit.  Writes
// the masks too unless `mask` is null; returns how many elements it wrote
// (n rounded down to a multiple of 4).
LE_LAYER_AVX2 std::size_t dropout_avx2(const std::uint64_t* words,
                                       std::uint64_t last_true, double scale,
                                       const double* in, double* out,
                                       double* mask, std::size_t n) {
  const __m256i sign = _mm256_set1_epi64x(INT64_MIN);
  const __m256i cut = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<long long>(last_true)), sign);
  const __m256d keep = _mm256_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i w = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i)), sign);
    const __m256d m =
        _mm256_andnot_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(w, cut)), keep);
    if (mask != nullptr) _mm256_storeu_pd(mask + i, m);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(in + i), m));
  }
  return i;
}
#endif

}  // namespace

DropoutLayer::DropoutLayer(double rate, std::size_t dim, stats::Rng rng)
    : rate_(rate), dim_(dim), rng_(rng), keep_(checked_keep(rate)) {}

void DropoutLayer::apply_masks(const tensor::Matrix& input, double* out,
                               double* mask) {
  const double scale = 1.0 / (1.0 - rate_);
  const double* in = input.data();
  const std::size_t n = input.size();
  stats::Mt19937_64& engine = rng_.engine();
#if defined(LE_LAYER_AVX2)
  if (tensor::avx2_or_wider(tensor::active_gemm_kernel())) {
    // One engine word per element, in row order, drawn a block at a time:
    // generate() hands out the words the per-element calls would.
    std::array<std::uint64_t, stats::Mt19937_64::state_size> words;
    const std::uint64_t last_true = keep_.last_true();
    for (std::size_t i = 0; i < n;) {
      const std::size_t count = std::min(words.size(), n - i);
      engine.generate({words.data(), count});
      double* block_mask = mask == nullptr ? nullptr : mask + i;
      std::size_t j = dropout_avx2(words.data(), last_true, scale, in + i,
                                   out + i, block_mask, count);
      for (; j < count; ++j) {
        const double m = words[j] <= last_true ? scale : 0.0;
        if (block_mask != nullptr) block_mask[j] = m;
        out[i + j] = in[i + j] * m;
      }
      i += count;
    }
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    const double m = keep_(engine) ? scale : 0.0;
    if (mask != nullptr) mask[i] = m;
    out[i] = in[i] * m;
  }
}

tensor::Matrix DropoutLayer::forward(const tensor::Matrix& input) {
  if (input.cols() != dim_) {
    throw std::invalid_argument("DropoutLayer::forward: dim mismatch");
  }
  if (!stochastic() || rate_ == 0.0) {
    mask_ = tensor::Matrix();  // identity pass; backward passes grads through
    return input;
  }
  shape_for_overwrite(mask_, input.rows(), input.cols());
  tensor::Matrix out(input.rows(), input.cols());
  apply_masks(input, out.data(), mask_.data());
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
  apply_masks(input, out.data(), nullptr);
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
