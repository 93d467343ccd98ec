/// @file
/// Online input-drift detection for served surrogates.
///
/// A trained surrogate is only trustworthy while queries stay inside its
/// training distribution (Section III-B: the model must "know when it
/// doesn't know").  InputDriftDetector snapshots per-feature reference
/// histograms from the training inputs and scores the live query stream
/// against them with two complementary statistics per feature:
///
///  - PSI (population stability index): sum over bins of
///    (p_live - p_ref) * ln(p_live / p_ref).  The industry-standard bands
///    are < 0.1 stable, 0.1-0.25 moderate shift, > 0.25 major shift.
///  - a binned KS statistic: max over bin edges of |CDF_ref - CDF_live|,
///    in [0, 1], robust to the smoothing PSI needs for empty bins.
///
/// Live samples outside the (padded) reference range clamp into the end
/// bins, so out-of-range drift shows up as end-bin mass rather than being
/// silently dropped.  observe() is a few adds per feature; scoring happens
/// once per completed window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "le/tensor/matrix.hpp"

namespace le::obs {

struct DriftDetectorConfig {
  /// Histogram bins per feature.
  std::size_t bins = 16;
  /// Live queries per evaluation window.
  std::size_t window = 256;
};

/// Drift scores of one feature over one window.
struct FeatureDriftScore {
  double psi = 0.0;
  double ks = 0.0;
};

/// Drift scores of one completed window, all features.
struct DriftReport {
  std::vector<FeatureDriftScore> per_feature;
  double max_psi = 0.0;
  double max_ks = 0.0;
  /// Feature index attaining max_psi.
  std::size_t worst_feature = 0;
  /// Samples scored in this window (0 = no window completed yet).
  std::size_t window_samples = 0;
  /// Windows evaluated since construction/rebase, including this one.
  std::uint64_t windows_evaluated = 0;
};

/// Scores a live query stream against per-feature reference histograms.
/// Thread-safe; observe() is cheap (one bin increment per feature).
class InputDriftDetector {
 public:
  /// Builds per-feature reference histograms from the rows of
  /// `reference_inputs` (typically Dataset::input_matrix() of the training
  /// corpus).  Throws std::invalid_argument on an empty reference or a
  /// degenerate config.
  InputDriftDetector(const tensor::Matrix& reference_inputs,
                     const DriftDetectorConfig& config = {});

  /// Accumulates one live query into the current window.  Input length
  /// must equal features(); non-finite components clamp into the end bins.
  void observe(std::span<const double> input);

  /// True when a full window of observations is waiting to be scored.
  [[nodiscard]] bool window_ready() const;

  /// Scores the current window against the reference (even if it is only
  /// partially full), records it as the last report, and starts a new
  /// window.  Returns an empty report when no samples were observed.
  DriftReport evaluate();

  /// The most recent evaluate() result (default-constructed before any).
  [[nodiscard]] DriftReport last_report() const;

  /// Replaces the reference distribution (after retraining on a new
  /// corpus) and discards the current window and report history.
  void rebase(const tensor::Matrix& reference_inputs);

  [[nodiscard]] std::size_t features() const;
  [[nodiscard]] const DriftDetectorConfig& config() const noexcept {
    return config_;
  }

 private:
  void fit_reference_locked(const tensor::Matrix& reference_inputs);
  [[nodiscard]] std::size_t bin_of_locked(std::size_t feature,
                                          double value) const;

  DriftDetectorConfig config_;
  mutable std::mutex mutex_;
  std::size_t features_ = 0;
  /// Padded per-feature bin ranges.
  std::vector<double> lo_;
  std::vector<double> hi_;
  /// Reference bin proportions, features_ x bins row-major.
  std::vector<double> reference_;
  /// Live window bin counts, features_ x bins row-major.
  std::vector<std::uint64_t> live_;
  std::size_t window_count_ = 0;
  std::uint64_t windows_evaluated_ = 0;
  DriftReport last_;
};

}  // namespace le::obs
