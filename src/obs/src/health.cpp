#include "le/obs/health.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace le::obs {

std::string to_string(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "HEALTHY";
    case HealthState::kDrifting: return "DRIFTING";
    case HealthState::kUntrusted: return "UNTRUSTED";
  }
  return "UNKNOWN";
}

namespace {

/// Severity ladder shared by all three signals; the state machine takes
/// the max over signals.
enum class Severity { kClean = 0, kWarn = 1, kAlarm = 2 };

/// Residual alarm: rolling RMSE > factor * baseline RMSE => UNTRUSTED;
/// above sqrt(factor) * baseline => DRIFTING.
constexpr double kResidualRmseFactor = 2.0;
/// Consecutive clean evaluations needed for DRIFTING -> HEALTHY.
constexpr std::size_t kCleanWindowsToRecover = 2;

std::string fmt(double v) {
  std::ostringstream out;
  out.precision(4);
  out << v;
  return out.str();
}

}  // namespace

SurrogateHealthMonitor::SurrogateHealthMonitor(
    const SurrogateHealthConfig& config, const tensor::Matrix& reference_inputs)
    : config_(config), drift_(reference_inputs, config.drift) {
  if (config_.shadow_fraction < 0.0 || config_.shadow_fraction > 1.0) {
    throw std::invalid_argument(
        "SurrogateHealthMonitor: shadow_fraction must be in [0, 1]");
  }
  if (config_.residual_window == 0) {
    throw std::invalid_argument(
        "SurrogateHealthMonitor: residual_window must be nonzero");
  }
  if (config_.shadow_fraction > 0.0) {
    shadow_stride_ = static_cast<std::size_t>(
        std::max(1.0, std::round(1.0 / config_.shadow_fraction)));
  }
}

void SurrogateHealthMonitor::observe_query(std::span<const double> input) {
  drift_.observe(input);
  std::lock_guard lock(mutex_);
  ++queries_;
  if (drift_.window_ready()) {
    drift_.evaluate();
    evaluate_locked("drift-window");
  }
}

bool SurrogateHealthMonitor::should_shadow_sample() {
  std::lock_guard lock(mutex_);
  if (shadow_stride_ == 0) return false;
  return (++accepted_answers_ % shadow_stride_) == 0;
}

void SurrogateHealthMonitor::record_shadow(
    std::span<const double> predicted_mean,
    std::span<const double> predicted_stddev, std::span<const double> truth) {
  if (predicted_mean.size() != truth.size() ||
      (!predicted_stddev.empty() &&
       predicted_stddev.size() != predicted_mean.size())) {
    throw std::invalid_argument(
        "SurrogateHealthMonitor::record_shadow: length mismatch");
  }
  if (predicted_mean.empty()) return;

  ShadowSample sample;
  sample.dims = static_cast<double>(predicted_mean.size());
  for (std::size_t i = 0; i < predicted_mean.size(); ++i) {
    const double err = predicted_mean[i] - truth[i];
    sample.mse += err * err;
    // Without a stddev (surrogate served point estimates) the interval is
    // degenerate: count the dim as covered only on an exact match, so a
    // UQ-free surrogate under error shows up as a coverage shortfall too.
    const double sigma = predicted_stddev.empty() ? 0.0 : predicted_stddev[i];
    sample.sigma_sum += sigma;
    if (std::abs(err) <= kCoverageZ * sigma) sample.covered_dims += 1.0;
  }
  sample.mse /= sample.dims;

  std::lock_guard lock(mutex_);
  ++shadow_samples_;
  window_.push_back(sample);
  while (window_.size() > config_.residual_window) window_.pop_front();
  if (!baseline_set_ && shadow_samples_ >= config_.min_shadow_samples) {
    // Self-calibrate: the first windowful of shadow samples is taken as
    // the in-distribution residual level.
    baseline_rmse_ = rolling_rmse_locked();
    baseline_set_ = true;
  }
  evaluate_locked("shadow-sample");
}

void SurrogateHealthMonitor::set_residual_baseline(double rmse) {
  if (!(rmse >= 0.0)) {
    throw std::invalid_argument(
        "SurrogateHealthMonitor: baseline RMSE must be >= 0");
  }
  std::lock_guard lock(mutex_);
  baseline_rmse_ = rmse;
  baseline_set_ = true;
}

double SurrogateHealthMonitor::rolling_rmse_locked() const {
  if (window_.empty()) return 0.0;
  double mse = 0.0;
  for (const ShadowSample& s : window_) mse += s.mse;
  return std::sqrt(mse / static_cast<double>(window_.size()));
}

double SurrogateHealthMonitor::rolling_coverage_locked() const {
  double covered = 0.0;
  double dims = 0.0;
  for (const ShadowSample& s : window_) {
    covered += s.covered_dims;
    dims += s.dims;
  }
  return dims > 0.0 ? covered / dims : 0.0;
}

double SurrogateHealthMonitor::rolling_sharpness_locked() const {
  double sigma = 0.0;
  double dims = 0.0;
  for (const ShadowSample& s : window_) {
    sigma += s.sigma_sum;
    dims += s.dims;
  }
  return dims > 0.0 ? sigma / dims : 0.0;
}

void SurrogateHealthMonitor::evaluate_locked(const char* trigger) {
  Severity severity = Severity::kClean;
  std::string reason;
  const auto flag = [&](Severity s, std::string why) {
    if (static_cast<int>(s) > static_cast<int>(severity)) {
      severity = s;
      reason = std::move(why);
    }
  };

  // Signal 1: input drift (only once a window has actually been scored).
  const DriftReport drift = drift_.last_report();
  if (drift.windows_evaluated > 0) {
    if (drift.max_psi >= config_.psi_untrusted) {
      flag(Severity::kAlarm, "psi " + fmt(drift.max_psi) + " >= " +
                                 fmt(config_.psi_untrusted) + " (feature " +
                                 std::to_string(drift.worst_feature) + ")");
    } else if (drift.max_psi >= config_.psi_drifting) {
      flag(Severity::kWarn, "psi " + fmt(drift.max_psi) + " >= " +
                                fmt(config_.psi_drifting) + " (feature " +
                                std::to_string(drift.worst_feature) + ")");
    }
    if (drift.max_ks >= config_.ks_untrusted) {
      flag(Severity::kAlarm,
           "ks " + fmt(drift.max_ks) + " >= " + fmt(config_.ks_untrusted));
    } else if (drift.max_ks >= config_.ks_drifting) {
      flag(Severity::kWarn,
           "ks " + fmt(drift.max_ks) + " >= " + fmt(config_.ks_drifting));
    }
  }

  // Signals 2 and 3 need both a baseline and enough shadow evidence.
  if (baseline_set_ && window_.size() >= config_.min_shadow_samples) {
    const double rmse = rolling_rmse_locked();
    if (baseline_rmse_ > 0.0) {
      const double alarm = kResidualRmseFactor * baseline_rmse_;
      const double warn =
          std::sqrt(kResidualRmseFactor) * baseline_rmse_;
      if (rmse > alarm) {
        flag(Severity::kAlarm, "rmse " + fmt(rmse) + " > " +
                                   fmt(kResidualRmseFactor) +
                                   "x baseline " + fmt(baseline_rmse_));
      } else if (rmse > warn) {
        flag(Severity::kWarn,
             "rmse " + fmt(rmse) + " > baseline " + fmt(baseline_rmse_));
      }
    }

    const double shortfall = kNominalCoverage - rolling_coverage_locked();
    if (shortfall >= config_.coverage_shortfall_untrusted) {
      flag(Severity::kAlarm, "coverage shortfall " + fmt(shortfall) + " >= " +
                                 fmt(config_.coverage_shortfall_untrusted));
    } else if (shortfall >= config_.coverage_shortfall_drifting) {
      flag(Severity::kWarn, "coverage shortfall " + fmt(shortfall) + " >= " +
                                fmt(config_.coverage_shortfall_drifting));
    }
  }

  switch (severity) {
    case Severity::kAlarm:
      clean_evaluations_ = 0;
      if (state_ != HealthState::kUntrusted) {
        transition_locked(HealthState::kUntrusted,
                          std::string(trigger) + ": " + reason);
      }
      break;
    case Severity::kWarn:
      clean_evaluations_ = 0;
      // UNTRUSTED is latched: a merely-warning window does not restore
      // trust in a surrogate already judged broken.
      if (state_ == HealthState::kHealthy) {
        transition_locked(HealthState::kDrifting,
                          std::string(trigger) + ": " + reason);
      }
      break;
    case Severity::kClean:
      if (state_ == HealthState::kDrifting) {
        if (++clean_evaluations_ >= kCleanWindowsToRecover) {
          transition_locked(HealthState::kHealthy,
                            std::string(trigger) + ": " +
                                std::to_string(clean_evaluations_) +
                                " consecutive clean evaluations");
          clean_evaluations_ = 0;
        }
      }
      break;
  }
}

void SurrogateHealthMonitor::transition_locked(HealthState to,
                                               std::string reason) {
  transitions_.push_back({state_, to, queries_, std::move(reason)});
  state_ = to;
}

HealthState SurrogateHealthMonitor::state() const {
  std::lock_guard lock(mutex_);
  return state_;
}

HealthReport SurrogateHealthMonitor::report() const {
  std::lock_guard lock(mutex_);
  HealthReport r;
  r.state = state_;
  r.drift = drift_.last_report();
  r.residual_rmse = rolling_rmse_locked();
  r.baseline_rmse = baseline_set_ ? baseline_rmse_ : 0.0;
  r.coverage = rolling_coverage_locked();
  r.sharpness = rolling_sharpness_locked();
  r.shadow_samples = static_cast<std::size_t>(shadow_samples_);
  r.queries = queries_;
  r.retrain_requested = state_ == HealthState::kUntrusted;
  return r;
}

std::vector<HealthTransition> SurrogateHealthMonitor::transitions() const {
  std::lock_guard lock(mutex_);
  return transitions_;
}

bool SurrogateHealthMonitor::retrain_requested() const {
  std::lock_guard lock(mutex_);
  return state_ == HealthState::kUntrusted;
}

void SurrogateHealthMonitor::on_retrained(
    const tensor::Matrix& new_reference_inputs) {
  drift_.rebase(new_reference_inputs);
  std::lock_guard lock(mutex_);
  window_.clear();
  baseline_rmse_ = 0.0;
  baseline_set_ = false;
  retired_shadow_samples_ += shadow_samples_;
  shadow_samples_ = 0;
  clean_evaluations_ = 0;
  if (state_ != HealthState::kHealthy) {
    transition_locked(HealthState::kHealthy, "retrained");
  }
}

void SurrogateHealthMonitor::on_rolled_back(
    const tensor::Matrix& prior_reference_inputs) {
  drift_.rebase(prior_reference_inputs);
  std::lock_guard lock(mutex_);
  window_.clear();
  baseline_rmse_ = 0.0;
  baseline_set_ = false;
  retired_shadow_samples_ += shadow_samples_;
  shadow_samples_ = 0;
  clean_evaluations_ = 0;
  if (state_ != HealthState::kUntrusted) {
    transition_locked(HealthState::kUntrusted,
                      "rolled-back: promotion failed inside guard window");
  }
}

void SurrogateHealthMonitor::export_metrics(MetricsSnapshot& out,
                                            const std::string& prefix) const {
  std::lock_guard lock(mutex_);
  const DriftReport drift = drift_.last_report();
  out.add(prefix,
          {{"shadow_samples", retired_shadow_samples_ + shadow_samples_},
           {"transitions", transitions_.size()}},
          {{"state", static_cast<double>(static_cast<int>(state_))},
           {"psi_max", drift.max_psi}, {"ks_max", drift.max_ks},
           {"residual_rmse", rolling_rmse_locked()},
           {"coverage", rolling_coverage_locked()},
           {"sharpness", rolling_sharpness_locked()}});
}

}  // namespace le::obs
