#include "le/serve/degradation.hpp"

#include <stdexcept>

namespace le::serve {

DegradationLadder::DegradationLadder(const DegradationConfig& config)
    : config_(config) {
  if (config_.window == 0) {
    throw std::invalid_argument("DegradationLadder: window must be positive");
  }
  if (!(config_.quantile > 0.0 && config_.quantile <= 1.0)) {
    throw std::invalid_argument(
        "DegradationLadder: quantile must be in (0, 1]");
  }
  if (!(config_.engage[0] > 0.0 && config_.engage[0] < config_.engage[1] &&
        config_.engage[1] < config_.engage[2])) {
    throw std::invalid_argument(
        "DegradationLadder: engage thresholds must be positive and strictly "
        "increasing");
  }
  if (!(config_.release_fraction > 0.0 && config_.release_fraction < 1.0)) {
    throw std::invalid_argument(
        "DegradationLadder: release_fraction must be in (0, 1)");
  }
  if (config_.release_windows < 1) {
    throw std::invalid_argument(
        "DegradationLadder: release_windows must be >= 1");
  }
}

void DegradationLadder::record(double seconds) {
  std::lock_guard lock(mutex_);
  window_.record(seconds);
  if (++samples_since_eval_ >= config_.window) {
    samples_since_eval_ = 0;
    evaluate_locked();
  }
}

void DegradationLadder::evaluate_locked() {
  const double q = window_.quantile(config_.quantile);
  window_.reset();
  ++stats_.evaluations;
  stats_.last_quantile = q;

  const int current = level_.load(std::memory_order_relaxed);
  // Highest level whose engage threshold the quantile exceeds.
  int target = 0;
  for (std::size_t i = 0; i < config_.engage.size(); ++i) {
    if (q > config_.engage[i]) target = static_cast<int>(i) + 1;
  }

  if (target > current) {
    // Pressure: engage immediately, jumping as many levels as the quantile
    // demands — a severe spike must not take three windows to reach
    // kShedAll.
    level_.store(target, std::memory_order_relaxed);
    calm_evals_ = 0;
    ++stats_.engages;
    return;
  }
  if (current > 0) {
    const double release_bar =
        config_.engage[static_cast<std::size_t>(current - 1)] *
        config_.release_fraction;
    if (q < release_bar) {
      if (++calm_evals_ >= config_.release_windows) {
        // Recovery: step down ONE level per dwell period.  The quantile at
        // a degraded level measures the *degraded* service's latency, so a
        // calm window proves only that the next level down is worth
        // probing, not that full service is affordable.
        calm_evals_ = 0;
        level_.store(current - 1, std::memory_order_relaxed);
        ++stats_.releases;
      }
      return;
    }
  }
  calm_evals_ = 0;
}

void DegradationLadder::engage_at_least(ServiceLevel floor) {
  std::lock_guard lock(mutex_);
  const int target = static_cast<int>(floor);
  const int current = level_.load(std::memory_order_relaxed);
  if (target <= current) return;
  level_.store(target, std::memory_order_relaxed);
  calm_evals_ = 0;
  ++stats_.engages;
}

DegradationStats DegradationLadder::stats() const {
  std::lock_guard lock(mutex_);
  DegradationStats out = stats_;
  out.level = level();
  return out;
}

void DegradationLadder::export_metrics(obs::MetricsSnapshot& out,
                                       const std::string& prefix) const {
  const DegradationStats s = stats();
  out.add(prefix, {{"engages", s.engages}, {"releases", s.releases}},
          {{"level", static_cast<double>(s.level)},
           {"pressure_quantile", s.last_quantile}});
}

}  // namespace le::serve
