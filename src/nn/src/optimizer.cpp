#include "le/nn/optimizer.hpp"

#include <cfloat>
#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "le/tensor/simd.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LE_ADAM_AVX2 __attribute__((target("avx2")))
#endif

namespace le::nn {

namespace {

void ensure_state(std::vector<std::vector<double>>& state,
                  const std::vector<ParamView>& params) {
  if (state.empty()) {
    state.reserve(params.size());
    for (const auto& p : params) state.emplace_back(p.values.size(), 0.0);
    return;
  }
  if (state.size() != params.size()) {
    throw std::invalid_argument("optimizer: parameter list changed between steps");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (state[i].size() != params[i].values.size()) {
      throw std::invalid_argument("optimizer: parameter shape changed between steps");
    }
  }
}

}  // namespace

SgdOptimizer::SgdOptimizer(double lr, double momentum, double weight_decay)
    : lr_(lr), momentum_(momentum), weight_decay_(weight_decay) {
  if (lr <= 0.0) throw std::invalid_argument("SgdOptimizer: lr must be > 0");
  if (momentum < 0.0 || momentum >= 1.0) {
    throw std::invalid_argument("SgdOptimizer: momentum must be in [0,1)");
  }
  if (weight_decay < 0.0) {
    throw std::invalid_argument("SgdOptimizer: weight_decay must be >= 0");
  }
}

void SgdOptimizer::step(const std::vector<ParamView>& params) {
  ensure_state(velocity_, params);
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto& vel = velocity_[i];
    const auto& p = params[i];
    for (std::size_t j = 0; j < p.values.size(); ++j) {
      vel[j] = momentum_ * vel[j] - lr_ * p.grads[j];
      p.values[j] += vel[j];
      if (weight_decay_ > 0.0) p.values[j] *= 1.0 - lr_ * weight_decay_;
    }
  }
}

AdamOptimizer::AdamOptimizer(double lr, double beta1, double beta2, double eps,
                             double weight_decay)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps),
      weight_decay_(weight_decay) {
  if (lr <= 0.0) throw std::invalid_argument("AdamOptimizer: lr must be > 0");
  if (weight_decay < 0.0) {
    throw std::invalid_argument("AdamOptimizer: weight_decay must be >= 0");
  }
}

namespace {

/// One Adam step's constants; `decay` is the decoupled weight-decay factor
/// 1 - lr * weight_decay, applied only when `decayed`.
struct AdamCoeffs {
  double lr, beta1, beta2, one_minus_beta1, one_minus_beta2;
  double bc1, bc2, eps, decay;
  bool decayed;
};

// A moment below the smallest normal double is flushed to 0.  A unit whose
// gradient stays 0 (a dead ReLU) decays its moments geometrically; without
// the flush they turn subnormal after ~6.7k steps, and subnormal arithmetic
// slows every step about tenfold.  The step such a moment makes is far below
// the last bit of any weight anyway.
inline double flush_subnormal(double x) {
  return std::fabs(x) < DBL_MIN ? 0.0 : x;
}

// The reference update of one parameter.  The AVX2 form below evaluates the
// same expressions in the same order, and IEEE multiply, add, divide and
// square root are correctly rounded per lane, so both give the same bits.
inline void adam_update(double& value, double g, double& m, double& v,
                        const AdamCoeffs& c) {
  m = flush_subnormal(c.beta1 * m + c.one_minus_beta1 * g);
  v = flush_subnormal(c.beta2 * v + c.one_minus_beta2 * g * g);
  const double mhat = m / c.bc1;
  const double vhat = v / c.bc2;
  value -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
  if (c.decayed) value *= c.decay;
}

#if defined(LE_ADAM_AVX2)
// flush_subnormal per lane: clears the lanes whose |x| < DBL_MIN.
LE_ADAM_AVX2 inline __m256d flush_subnormal(__m256d x) {
  const __m256d magnitude = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
  return _mm256_andnot_pd(
      _mm256_cmp_pd(magnitude, _mm256_set1_pd(DBL_MIN), _CMP_LT_OQ), x);
}

// Four parameters per iteration; returns how many it updated (n rounded
// down to a multiple of 4).  Built without FMA, so nothing is contracted.
LE_ADAM_AVX2 std::size_t adam_update_avx2(double* values, const double* grads,
                                          double* m, double* v, std::size_t n,
                                          const AdamCoeffs& c) {
  const __m256d lr = _mm256_set1_pd(c.lr);
  const __m256d beta1 = _mm256_set1_pd(c.beta1);
  const __m256d beta2 = _mm256_set1_pd(c.beta2);
  const __m256d omb1 = _mm256_set1_pd(c.one_minus_beta1);
  const __m256d omb2 = _mm256_set1_pd(c.one_minus_beta2);
  const __m256d bc1 = _mm256_set1_pd(c.bc1);
  const __m256d bc2 = _mm256_set1_pd(c.bc2);
  const __m256d eps = _mm256_set1_pd(c.eps);
  const __m256d decay = _mm256_set1_pd(c.decay);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d g = _mm256_loadu_pd(grads + j);
    const __m256d mj = flush_subnormal(
        _mm256_add_pd(_mm256_mul_pd(beta1, _mm256_loadu_pd(m + j)),
                      _mm256_mul_pd(omb1, g)));
    const __m256d vj = flush_subnormal(
        _mm256_add_pd(_mm256_mul_pd(beta2, _mm256_loadu_pd(v + j)),
                      _mm256_mul_pd(_mm256_mul_pd(omb2, g), g)));
    _mm256_storeu_pd(m + j, mj);
    _mm256_storeu_pd(v + j, vj);
    const __m256d mhat = _mm256_div_pd(mj, bc1);
    const __m256d vhat = _mm256_div_pd(vj, bc2);
    const __m256d step = _mm256_div_pd(
        _mm256_mul_pd(lr, mhat), _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    __m256d value = _mm256_sub_pd(_mm256_loadu_pd(values + j), step);
    if (c.decayed) value = _mm256_mul_pd(value, decay);
    _mm256_storeu_pd(values + j, value);
  }
  return j;
}
#endif

}  // namespace

void AdamOptimizer::step(const std::vector<ParamView>& params) {
  ensure_state(m_, params);
  ensure_state(v_, params);
  ++t_;
  const AdamCoeffs coeffs{lr_,
                          beta1_,
                          beta2_,
                          1.0 - beta1_,
                          1.0 - beta2_,
                          1.0 - std::pow(beta1_, static_cast<double>(t_)),
                          1.0 - std::pow(beta2_, static_cast<double>(t_)),
                          eps_,
                          1.0 - lr_ * weight_decay_,
                          weight_decay_ > 0.0};
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto& p = params[i];
    auto& m = m_[i];
    auto& v = v_[i];
    std::size_t j = 0;
#if defined(LE_ADAM_AVX2)
    if (tensor::avx2_or_wider(tensor::active_gemm_kernel())) {
      j = adam_update_avx2(p.values.data(), p.grads.data(), m.data(), v.data(),
                           p.values.size(), coeffs);
    }
#endif
    for (; j < p.values.size(); ++j) {
      adam_update(p.values[j], p.grads[j], m[j], v[j], coeffs);
    }
  }
}

}  // namespace le::nn
