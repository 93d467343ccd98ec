/// @file
/// Post-training int8 quantization of gate-accepted MLP surrogates.
///
/// The serving hot path is a handful of small GEMMs (E13's math floor);
/// int8 inference halves the weight footprint four ways and runs on the
/// exact gemm_s8_s32 kernel, trading a bounded dequantization error for
/// throughput.  The scheme is the standard affine one:
///
///   weights:      per-output-column symmetric, wq[p,c] = round(W[p,c]/sw[c]),
///                 sw[c] = maxabs(W[:,c]) / 127   (int8, no zero point)
///   activations:  per-layer asymmetric, a ~= sa * (aq - za), with sa/za
///                 calibrated from min/max of the layer's input over a
///                 calibration set (the retraining corpus in serving)
///   accumulate:   acc[i,c] = sum_p aq[i,p] * wq[p,c]   (int32, exact)
///   dequantize:   out[i,c] = sa * sw[c] * (acc[i,c] - za * colsum[c]) + b[c]
///
/// colsum[c] = sum_p wq[p,c] is precomputed, so the zero-point correction is
/// one multiply per output.  The calibration residual (max |fp - int8| over
/// the calibration set) is measured at build time and reported; the serving
/// dispatcher admits the quantized model only if that residual fits inside
/// the UQ acceptance gate (core::SurrogateDispatcher::set_degraded_surrogate).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "le/nn/network.hpp"
#include "le/tensor/matrix.hpp"

namespace le::nn {

/// Build-time record of what quantization cost on the calibration set.
struct QuantizationReport {
  std::size_t layers = 0;             ///< quantized dense stages
  std::size_t calibration_rows = 0;   ///< rows in the calibration matrix
  double max_abs_residual = 0.0;      ///< max |fp - int8| network output
  double rms_residual = 0.0;          ///< RMS of the same residuals
};

/// An int8 snapshot of a (Dense -> Activation -> [Dropout])* Dense MLP.
/// Immutable after construction; predict paths are const and safe to call
/// from multiple threads (scratch is thread-local).
class QuantizedNetwork {
 public:
  /// Quantizes `net` using `calibration` (rows of network inputs) to set
  /// the per-layer activation scales, then measures the residual vs the fp
  /// network on that same set.  `net` is run in inference mode during
  /// calibration (its training caches are untouched) and is not retained.
  /// Throws std::invalid_argument if the network contains layers other
  /// than Dense/Activation/Dropout, or if `calibration` is empty or has
  /// the wrong width.
  QuantizedNetwork(Network& net, const tensor::Matrix& calibration);

  /// int8 batch inference; same contract as Network::predict_batch.
  void predict_batch(const tensor::Matrix& inputs,
                     tensor::Matrix& outputs) const;

  /// Single-sample convenience on the batch path.
  [[nodiscard]] std::vector<double> predict(std::span<const double> input) const;

  [[nodiscard]] std::size_t input_dim() const noexcept { return input_dim_; }
  [[nodiscard]] std::size_t output_dim() const noexcept { return output_dim_; }
  [[nodiscard]] const QuantizationReport& report() const noexcept {
    return report_;
  }

 private:
  /// One dense layer plus the pointwise activation that follows it.
  struct Stage {
    std::size_t in_dim = 0, out_dim = 0;
    std::vector<std::int8_t> wq;        ///< in_dim x out_dim, row-major
    std::vector<std::int32_t> colsum;   ///< per-column sum of wq
    std::vector<double> wscale;         ///< per-column sw
    std::vector<double> bias;           ///< fp bias
    double ascale = 1.0;                ///< sa for this stage's input
    std::int32_t azero = 0;             ///< za for this stage's input
    Activation activation = Activation::kIdentity;
  };

  std::vector<Stage> stages_;
  std::size_t input_dim_ = 0;
  std::size_t output_dim_ = 0;
  QuantizationReport report_;
};

}  // namespace le::nn
