/// @file
/// Admission control for the serving edge: bounded queue depth, a
/// concurrency token limit, and a CoDel-style sojourn-time controller.
///
/// An unbounded queue converts overload into unbounded latency: once the
/// arrival rate exceeds capacity, queue wait diverges and every request —
/// not just the excess — misses its deadline.  AdmissionController turns
/// the excess away at the door instead.  Three independent gates, checked
/// in order:
///
///   1. queue depth — a hard bound on how many requests may wait;
///   2. concurrency tokens — a bound on requests admitted but not yet
///      resolved (backpressure across the whole pipeline, not just the
///      queue);
///   3. sojourn time — the CoDel insight (Nichols & Jacobson, CACM 2012)
///      that *standing* queue delay, not queue length, is the overload
///      signal.  When the measured queue wait stays above `target_sojourn`
///      for a full `interval`, the controller starts shedding arrivals,
///      admitting periodic probes (spaced by interval/sqrt(n), the CoDel
///      control law) so it keeps measuring; it stops the moment a sojourn
///      below target is observed.
///
/// The controller is passive and clock-explicit: callers pass `now`, which
/// makes every transition deterministic in tests.  serve::BatchQueue
/// consults try_admit() at submit and feeds record_sojourn() at dispatch.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "le/obs/metrics.hpp"
#include "le/serve/overload.hpp"

namespace le::serve {

struct AdmissionConfig {
  /// Maximum requests waiting in the queue; arrivals beyond it are shed
  /// with ShedReason::kQueueFull.  0 disables the depth gate.
  std::size_t max_queue_depth = 1024;
  /// Maximum admitted-but-unresolved requests (tokens); arrivals beyond it
  /// are shed with ShedReason::kConcurrency.  0 disables the token gate.
  std::size_t max_concurrent = 0;
  /// Queue-wait target of the sojourn controller: sustained waits above
  /// this are treated as overload.  <= 0 disables the sojourn gate.
  std::chrono::microseconds target_sojourn{5000};
  /// How long the measured sojourn must stay above target before shedding
  /// starts, and the base spacing of probe admissions while shedding.
  std::chrono::microseconds interval{100000};
};

struct AdmissionStats {
  std::uint64_t admitted = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_concurrency = 0;
  std::uint64_t shed_overload = 0;   ///< sojourn-controller sheds
  std::uint64_t probes = 0;          ///< arrivals admitted while shedding
  std::size_t in_flight = 0;         ///< tokens currently held
  bool shedding = false;             ///< sojourn controller engaged

  [[nodiscard]] std::uint64_t shed_total() const noexcept {
    return shed_queue_full + shed_concurrency + shed_overload;
  }
};

class AdmissionController {
 public:
  using Clock = std::chrono::steady_clock;

  explicit AdmissionController(const AdmissionConfig& config);

  /// Decides one arrival given the current queue depth.  kNone admits (and
  /// takes a concurrency token the caller must release()); any other value
  /// is the shed reason.  Thread-safe.
  [[nodiscard]] ShedReason try_admit(std::size_t queue_depth,
                                     Clock::time_point now = Clock::now());

  /// Returns `n` concurrency tokens — call once per admitted request when
  /// its future resolves (served, failed or shed downstream).
  void release(std::size_t n = 1) noexcept;

  /// Feeds one measured queue wait (submit -> dispatch, seconds) into the
  /// sojourn controller.  Thread-safe.
  void record_sojourn(double seconds, Clock::time_point now = Clock::now());

  [[nodiscard]] AdmissionStats stats() const;
  [[nodiscard]] const AdmissionConfig& config() const noexcept {
    return config_;
  }

  /// Writes stats() as "<prefix>.*": admitted/shed counters and
  /// in-flight/shedding gauges.
  void export_metrics(obs::MetricsSnapshot& out,
                      const std::string& prefix) const;

  /// Attaches export_metrics() to `registry` for the controller's lifetime.
  void enable_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "serve.admission") {
    metrics_ = registry.attach(*this, prefix);
  }

 private:
  AdmissionConfig config_;

  mutable std::mutex mutex_;
  AdmissionStats stats_;
  /// When the sojourn first stayed above target (unset while below).
  bool above_target_ = false;
  Clock::time_point above_since_{};
  Clock::time_point next_probe_{};
  std::uint64_t probe_count_ = 0;  ///< probes since shedding engaged

  obs::MetricsSource metrics_;  ///< last member: detaches first
};

}  // namespace le::serve
