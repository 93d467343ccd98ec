#include "le/serve/admission.hpp"

#include <cmath>
#include <stdexcept>

namespace le::serve {

AdmissionController::AdmissionController(const AdmissionConfig& config)
    : config_(config) {
  if (config_.target_sojourn.count() > 0 && config_.interval.count() <= 0) {
    throw std::invalid_argument(
        "AdmissionController: interval must be positive when the sojourn "
        "gate is enabled");
  }
}

ShedReason AdmissionController::try_admit(std::size_t queue_depth,
                                          Clock::time_point now) {
  std::lock_guard lock(mutex_);
  if (config_.max_queue_depth != 0 && queue_depth >= config_.max_queue_depth) {
    ++stats_.shed_queue_full;
    return ShedReason::kQueueFull;
  }
  if (config_.max_concurrent != 0 &&
      stats_.in_flight >= config_.max_concurrent) {
    ++stats_.shed_concurrency;
    return ShedReason::kConcurrency;
  }
  if (stats_.shedding) {
    if (now < next_probe_) {
      ++stats_.shed_overload;
      return ShedReason::kOverload;
    }
    // Probe admission: keep a trickle flowing so record_sojourn() can
    // observe recovery.  The CoDel control law shrinks the spacing as the
    // overload persists — the longer the queue stays bad, the harder we
    // shed, but never to zero.
    ++probe_count_;
    ++stats_.probes;
    next_probe_ =
        now + std::chrono::duration_cast<Clock::duration>(
                  config_.interval /
                  std::sqrt(static_cast<double>(probe_count_ + 1)));
  }
  ++stats_.admitted;
  ++stats_.in_flight;
  return ShedReason::kNone;
}

void AdmissionController::release(std::size_t n) noexcept {
  std::lock_guard lock(mutex_);
  stats_.in_flight = stats_.in_flight >= n ? stats_.in_flight - n : 0;
}

void AdmissionController::record_sojourn(double seconds,
                                         Clock::time_point now) {
  if (config_.target_sojourn.count() <= 0) return;  // sojourn gate disabled
  const double target =
      std::chrono::duration<double>(config_.target_sojourn).count();
  std::lock_guard lock(mutex_);
  if (seconds < target) {
    // One good sojourn ends the episode — the standing queue has drained
    // (or a probe got through quickly), so stop shedding immediately.
    above_target_ = false;
    if (stats_.shedding) {
      stats_.shedding = false;
      probe_count_ = 0;
    }
    return;
  }
  if (!above_target_) {
    above_target_ = true;
    above_since_ = now;
    return;
  }
  if (!stats_.shedding && now - above_since_ >= config_.interval) {
    // The wait has been above target for a full interval: this is a
    // standing queue, not a transient burst.  Engage shedding; the first
    // probe is allowed immediately so measurement never stops.
    stats_.shedding = true;
    probe_count_ = 0;
    next_probe_ = now;
  }
}

AdmissionStats AdmissionController::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void AdmissionController::export_metrics(obs::MetricsSnapshot& out,
                                         const std::string& prefix) const {
  const AdmissionStats s = stats();
  out.add(prefix,
          {{"admitted", s.admitted}, {"shed_queue_full", s.shed_queue_full},
           {"shed_concurrency", s.shed_concurrency},
           {"shed_overload", s.shed_overload}},
          {{"in_flight", static_cast<double>(s.in_flight)},
           {"shedding", s.shedding ? 1.0 : 0.0}});
}

}  // namespace le::serve
