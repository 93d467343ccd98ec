/// @file
/// Surrogate health monitoring: the HEALTHY -> DRIFTING -> UNTRUSTED state
/// machine over three quality signals.
///
/// The Section III-D effective-speedup equation silently assumes lookups
/// stay *valid*; Section III-B's dropout UQ exists so the system can "know
/// when it doesn't know".  SurrogateHealthMonitor watches the three ways a
/// served surrogate silently rots:
///
///  1. input drift — the query stream leaves the training distribution
///     (InputDriftDetector, PSI + KS per feature, per window);
///  2. residual growth — shadow-sampled queries (a configurable fraction of
///     accepted lookups re-run through the real simulation) show rolling
///     RMSE climbing above its in-distribution baseline;
///  3. UQ mis-calibration — empirical coverage of the +/- z-sigma intervals
///     on those shadow samples falls short of nominal, or sharpness
///     (mean sigma) stops being informative.
///
/// Severity per signal maps to a state: any signal at alarm level forces
/// UNTRUSTED, warn level forces at least DRIFTING.  DRIFTING heals back to
/// HEALTHY after consecutive clean windows; UNTRUSTED is latched — only
/// on_retrained() (new model, new reference distribution) clears it, which
/// is also the monitor's retraining request: retrain_requested() stays true
/// while UNTRUSTED.  The dispatcher trips its CircuitBreaker off this
/// state, so an untrusted surrogate stops answering queries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "le/obs/drift.hpp"
#include "le/obs/metrics.hpp"

namespace le::obs {

enum class HealthState { kHealthy = 0, kDrifting = 1, kUntrusted = 2 };

[[nodiscard]] std::string to_string(HealthState state);

/// Interval half-width for coverage, in predicted sigmas.  The retrainer's
/// shadow evaluation judges coverage at the same width.
inline constexpr double kCoverageZ = 2.0;
/// Nominal coverage of +/- kCoverageZ sigma under a calibrated Gaussian.
inline constexpr double kNominalCoverage = 0.954;

struct SurrogateHealthConfig {
  DriftDetectorConfig drift;
  /// PSI bands (max over features): warn ~ "major shift" on the standard
  /// PSI scale, alarm well beyond it.
  double psi_drifting = 0.25;
  double psi_untrusted = 1.0;
  /// Binned-KS bands (max over features), in [0, 1].
  double ks_drifting = 0.25;
  double ks_untrusted = 0.6;
  /// Fraction of gate-accepted lookups shadow-sampled through the real
  /// simulation.  Sampling is a deterministic stride (every round(1/f)-th
  /// accepted answer), so runs are reproducible; 0 disables shadowing.
  double shadow_fraction = 0.01;
  /// Rolling window (in shadow samples) for residual RMSE, coverage and
  /// sharpness.
  std::size_t residual_window = 128;
  /// Shadow samples required before residual/coverage verdicts fire (and
  /// before the self-calibrated baseline latches).
  std::size_t min_shadow_samples = 16;
  /// Coverage shortfall bands: nominal - empirical above the first =>
  /// DRIFTING, above the second => UNTRUSTED.
  double coverage_shortfall_drifting = 0.15;
  double coverage_shortfall_untrusted = 0.30;
};

/// One recorded state change.
struct HealthTransition {
  HealthState from = HealthState::kHealthy;
  HealthState to = HealthState::kHealthy;
  /// observe_query() count at the transition.
  std::uint64_t at_query = 0;
  /// Human-readable cause ("psi 3.1 >= 1", "rmse 0.41 > 2.0x baseline
  /// 0.12", "retrained", ...).
  std::string reason;
};

/// Point-in-time health summary.
struct HealthReport {
  HealthState state = HealthState::kHealthy;
  DriftReport drift;
  /// Rolling shadow-sample residual RMSE (0 until samples exist).
  double residual_rmse = 0.0;
  /// Latched in-distribution baseline RMSE (0 until min_shadow_samples).
  double baseline_rmse = 0.0;
  /// Empirical coverage of +/- z-sigma intervals over the rolling window.
  double coverage = 0.0;
  /// Mean predicted sigma over the rolling window (sharpness).
  double sharpness = 0.0;
  std::size_t shadow_samples = 0;  ///< since the last retrain/rollback
  std::uint64_t queries = 0;       ///< lifetime observed queries
  bool retrain_requested = false;
};

/// Aggregates the three health signals and drives the state machine.
/// Thread-safe; designed to sit on the dispatcher's query path.
class SurrogateHealthMonitor {
 public:
  /// `reference_inputs` seeds the drift detector (training-corpus inputs).
  SurrogateHealthMonitor(const SurrogateHealthConfig& config,
                         const tensor::Matrix& reference_inputs);

  /// Feeds one query input (surrogate-, cache- or simulation-answered:
  /// drift is a property of the demand stream, not of the route) into the
  /// drift detector; scores the window and re-evaluates health when full.
  void observe_query(std::span<const double> input);

  /// True when the caller should shadow-sample the answer it is about to
  /// return (deterministic stride over accepted lookups).
  [[nodiscard]] bool should_shadow_sample();

  /// Records one shadow sample: the surrogate's predictive mean/stddev for
  /// a query and the real simulation's answer.  Updates residual RMSE,
  /// coverage and sharpness, then re-evaluates health.
  void record_shadow(std::span<const double> predicted_mean,
                     std::span<const double> predicted_stddev,
                     std::span<const double> truth);

  /// Pins the in-distribution residual baseline explicitly (e.g. from an
  /// offline calibration run).  When never called, the baseline latches
  /// from the first min_shadow_samples shadow samples.
  void set_residual_baseline(double rmse);

  [[nodiscard]] HealthState state() const;
  [[nodiscard]] HealthReport report() const;
  [[nodiscard]] std::vector<HealthTransition> transitions() const;
  /// True while UNTRUSTED: the monitor wants a retrained surrogate.
  [[nodiscard]] bool retrain_requested() const;

  /// The retrain path: rebases the drift reference on the new training
  /// corpus, clears the rolling windows and the latched baseline, and
  /// resets the state machine to HEALTHY (recorded as a transition).
  void on_retrained(const tensor::Matrix& new_reference_inputs);

  /// The failed-promotion path: a promoted candidate re-tripped the
  /// monitor inside the guard window and the prior model was restored.
  /// on_retrained() already rebased the drift reference onto the
  /// *candidate's* corpus, so without this call the monitor would keep
  /// scoring the restored model against a stale reference (and could
  /// even heal to HEALTHY on it).  Rebases back onto the prior model's
  /// reference inputs, clears the candidate-era windows/baseline, and
  /// re-latches UNTRUSTED — the retrain request stands until a candidate
  /// survives its guard window.
  void on_rolled_back(const tensor::Matrix& prior_reference_inputs);

  /// Writes the monitor's state as "<prefix>.*": gauges state (0/1/2),
  /// max PSI/KS, residual RMSE, coverage and sharpness (report()'s
  /// fields); counters shadow_samples (lifetime, across retrains) and
  /// transitions (transitions().size()).
  void export_metrics(MetricsSnapshot& out, const std::string& prefix) const;

  /// Attaches export_metrics() to `registry` for the monitor's lifetime.
  void enable_metrics(MetricsRegistry& registry,
                      const std::string& prefix = "health") {
    metrics_ = registry.attach(*this, prefix);
  }

  [[nodiscard]] const SurrogateHealthConfig& config() const noexcept {
    return config_;
  }

 private:
  /// One shadow sample's window contribution.
  struct ShadowSample {
    double mse = 0.0;           ///< mean squared error over output dims
    double covered_dims = 0.0;  ///< dims inside +/- z sigma
    double dims = 0.0;
    double sigma_sum = 0.0;  ///< sum of predicted sigmas over dims
  };

  void evaluate_locked(const char* trigger);
  void transition_locked(HealthState to, std::string reason);
  [[nodiscard]] double rolling_rmse_locked() const;
  [[nodiscard]] double rolling_coverage_locked() const;
  [[nodiscard]] double rolling_sharpness_locked() const;

  SurrogateHealthConfig config_;
  InputDriftDetector drift_;
  mutable std::mutex mutex_;
  HealthState state_ = HealthState::kHealthy;
  std::vector<HealthTransition> transitions_;
  std::deque<ShadowSample> window_;
  double baseline_rmse_ = 0.0;
  bool baseline_set_ = false;
  std::uint64_t queries_ = 0;
  std::uint64_t shadow_samples_ = 0;  ///< since the last rebase
  std::uint64_t retired_shadow_samples_ = 0;  ///< before the last rebase
  std::uint64_t accepted_answers_ = 0;  ///< should_shadow_sample() calls
  std::size_t shadow_stride_ = 0;       ///< 0 = shadowing disabled
  std::size_t clean_evaluations_ = 0;

  MetricsSource metrics_;  ///< last member: detaches first
};

}  // namespace le::obs
