#include "le/obs/slo.hpp"

#include <stdexcept>
#include <utility>

namespace le::obs {

void SloTracker::Window::push(bool is_bad) {
  if (size == ring.size()) {
    bad -= ring[next];  // evict the slot we are about to overwrite
  } else {
    ++size;
  }
  ring[next] = is_bad ? 1 : 0;
  bad += ring[next];
  next = (next + 1) % ring.size();
}

double SloTracker::Window::bad_fraction() const {
  if (size == 0) return 0.0;
  return static_cast<double>(bad) / static_cast<double>(size);
}

SloTracker::SloTracker(const SloConfig& config)
    : config_(config),
      fast_(config.fast_window),
      slow_(config.slow_window) {
  if (!(config_.objective > 0.0 && config_.objective < 1.0)) {
    throw std::invalid_argument("SloConfig: objective must be in (0, 1)");
  }
  if (config_.fast_window == 0 || config_.slow_window == 0 ||
      config_.fast_window > config_.slow_window) {
    throw std::invalid_argument(
        "SloConfig: need 0 < fast_window <= slow_window");
  }
  if (config_.fast_burn <= 0.0 || config_.slow_burn <= 0.0 ||
      config_.resolve_burn <= 0.0) {
    throw std::invalid_argument("SloConfig: burn thresholds must be > 0");
  }
}

double SloTracker::burn_of(const Window& w) const {
  return w.bad_fraction() / (1.0 - config_.objective);
}

void SloTracker::record(bool good) {
  SloAlert alert;
  bool transitioned = false;
  std::function<void(const SloAlert&)> callback;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fast_.push(!good);
    slow_.push(!good);
    ++stats_.events;
    if (!good) ++stats_.bad_events;
    stats_.fast_burn_rate = burn_of(fast_);
    stats_.slow_burn_rate = burn_of(slow_);

    // Both-windows rule.  The fast window must be full before an alert can
    // fire: with three samples one failure reads as burn 33, and paging on
    // that is exactly the flap the multi-window rule exists to suppress.
    // The slow window evaluates over whatever it holds so far.
    const bool fast_full = fast_.size == fast_.ring.size();
    if (!stats_.firing) {
      if (fast_full && stats_.fast_burn_rate >= config_.fast_burn &&
          stats_.slow_burn_rate >= config_.slow_burn) {
        stats_.firing = true;
        ++stats_.alerts_fired;
        transitioned = true;
      }
    } else {
      if (stats_.fast_burn_rate <= config_.resolve_burn &&
          stats_.slow_burn_rate <= config_.resolve_burn) {
        stats_.firing = false;
        ++stats_.alerts_resolved;
        transitioned = true;
      }
    }
    if (transitioned) {
      alert = stats_;
      callback = callback_;
    }
  }
  // Outside the lock: the ladder (or a test) may call back into us.
  if (transitioned && callback) callback(alert);
}

SloStats SloTracker::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void SloTracker::set_alert_callback(
    std::function<void(const SloAlert&)> callback) {
  std::lock_guard<std::mutex> lock(mutex_);
  callback_ = std::move(callback);
}

void SloTracker::export_metrics(MetricsSnapshot& out,
                                const std::string& prefix) const {
  const SloStats s = stats();
  out.add(prefix,
          {{"alerts_fired", s.alerts_fired},
           {"alerts_resolved", s.alerts_resolved},
           {"bad_events", s.bad_events}},
          {{"burn_fast", s.fast_burn_rate}, {"burn_slow", s.slow_burn_rate},
           {"firing", s.firing ? 1.0 : 0.0}});
}

}  // namespace le::obs
