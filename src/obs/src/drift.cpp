#include "le/obs/drift.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace le::obs {

namespace {

/// Proportion floor for PSI: empty bins would make ln(p/q) blow up, and a
/// floor this small keeps the index finite without hiding real shift.
constexpr double kPsiEpsilon = 1e-4;

/// Fractional widening of each feature's reference range, so benign
/// boundary jitter does not pile into the end bins.
constexpr double kRangePadding = 0.05;

}  // namespace

InputDriftDetector::InputDriftDetector(const tensor::Matrix& reference_inputs,
                                       const DriftDetectorConfig& config)
    : config_(config) {
  if (config_.bins < 2) {
    throw std::invalid_argument("InputDriftDetector: need >= 2 bins");
  }
  if (config_.window == 0) {
    throw std::invalid_argument("InputDriftDetector: need a nonzero window");
  }
  std::lock_guard lock(mutex_);
  fit_reference_locked(reference_inputs);
}

void InputDriftDetector::fit_reference_locked(
    const tensor::Matrix& reference_inputs) {
  if (reference_inputs.rows() == 0 || reference_inputs.cols() == 0) {
    throw std::invalid_argument(
        "InputDriftDetector: reference inputs are empty");
  }
  features_ = reference_inputs.cols();
  lo_.assign(features_, 0.0);
  hi_.assign(features_, 0.0);
  for (std::size_t f = 0; f < features_; ++f) {
    double lo = reference_inputs(0, f);
    double hi = lo;
    for (std::size_t r = 0; r < reference_inputs.rows(); ++r) {
      const double v = reference_inputs(r, f);
      if (!std::isfinite(v)) {
        throw std::invalid_argument(
            "InputDriftDetector: non-finite reference input");
      }
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    // Pad the range; a constant feature gets a symmetric unit-ish span so
    // binning stays well defined (every value lands mid-range).
    double span = hi - lo;
    if (span <= 0.0) span = std::max(1.0, std::abs(lo));
    const double pad = kRangePadding * span;
    lo_[f] = lo - pad;
    hi_[f] = hi + pad;
  }

  reference_.assign(features_ * config_.bins, 0.0);
  for (std::size_t r = 0; r < reference_inputs.rows(); ++r) {
    for (std::size_t f = 0; f < features_; ++f) {
      reference_[f * config_.bins + bin_of_locked(f, reference_inputs(r, f))] +=
          1.0;
    }
  }
  const double n = static_cast<double>(reference_inputs.rows());
  for (double& p : reference_) p /= n;

  live_.assign(features_ * config_.bins, 0);
  window_count_ = 0;
  windows_evaluated_ = 0;
  last_ = DriftReport{};
}

std::size_t InputDriftDetector::bin_of_locked(std::size_t feature,
                                              double value) const {
  // Non-finite and out-of-range values clamp to the end bins: drift off
  // the edge of the reference support must be counted, not dropped.
  if (std::isnan(value)) return config_.bins - 1;
  const double lo = lo_[feature];
  const double hi = hi_[feature];
  if (value <= lo) return 0;
  if (value >= hi) return config_.bins - 1;
  const double width = (hi - lo) / static_cast<double>(config_.bins);
  const auto bin = static_cast<std::size_t>((value - lo) / width);
  return std::min(bin, config_.bins - 1);
}

void InputDriftDetector::observe(std::span<const double> input) {
  std::lock_guard lock(mutex_);
  if (input.size() != features_) {
    throw std::invalid_argument("InputDriftDetector::observe: input length");
  }
  for (std::size_t f = 0; f < features_; ++f) {
    ++live_[f * config_.bins + bin_of_locked(f, input[f])];
  }
  ++window_count_;
}

bool InputDriftDetector::window_ready() const {
  std::lock_guard lock(mutex_);
  return window_count_ >= config_.window;
}

DriftReport InputDriftDetector::evaluate() {
  std::lock_guard lock(mutex_);
  DriftReport report;
  report.window_samples = window_count_;
  if (window_count_ == 0) return report;

  report.per_feature.resize(features_);
  const double n = static_cast<double>(window_count_);
  for (std::size_t f = 0; f < features_; ++f) {
    double psi = 0.0;
    double ks = 0.0;
    double cdf_ref = 0.0;
    double cdf_live = 0.0;
    for (std::size_t b = 0; b < config_.bins; ++b) {
      const double p_ref =
          std::max(reference_[f * config_.bins + b], kPsiEpsilon);
      const double p_live = std::max(
          static_cast<double>(live_[f * config_.bins + b]) / n, kPsiEpsilon);
      psi += (p_live - p_ref) * std::log(p_live / p_ref);
      cdf_ref += reference_[f * config_.bins + b];
      cdf_live += static_cast<double>(live_[f * config_.bins + b]) / n;
      ks = std::max(ks, std::abs(cdf_ref - cdf_live));
    }
    report.per_feature[f] = {psi, ks};
    if (psi > report.max_psi) {
      report.max_psi = psi;
      report.worst_feature = f;
    }
    report.max_ks = std::max(report.max_ks, ks);
  }
  report.windows_evaluated = ++windows_evaluated_;

  live_.assign(features_ * config_.bins, 0);
  window_count_ = 0;
  last_ = report;
  return report;
}

DriftReport InputDriftDetector::last_report() const {
  std::lock_guard lock(mutex_);
  return last_;
}

void InputDriftDetector::rebase(const tensor::Matrix& reference_inputs) {
  std::lock_guard lock(mutex_);
  fit_reference_locked(reference_inputs);
}

std::size_t InputDriftDetector::features() const {
  std::lock_guard lock(mutex_);
  return features_;
}

}  // namespace le::obs
