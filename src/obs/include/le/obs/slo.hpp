/// @file
/// Multi-window burn-rate alerting over a service-level objective.
///
/// The serving stack promises deadline attainment (E17/E18 hold p99 inside
/// budget); an SLO makes the promise quantitative — "99% of requests meet
/// their deadline" — and the *error budget* (the tolerated 1%) is what an
/// operator actually spends.  Threshold-on-error-rate alerts are either
/// too twitchy (one bad window pages at 3 a.m.) or too slow (a slow leak
/// exhausts the budget before a long-window average moves), so SloTracker
/// implements the multi-window burn-rate rule from the SRE literature: the
/// burn rate is the error-rate as a multiple of the budget rate
/// (burn 1 = exactly spending the budget; burn 14 = spending a month of
/// budget in ~2 days), and an alert fires only when BOTH a fast window
/// (catches it quickly, flaps alone) and a slow window (confirms it is
/// real, lags alone) exceed their thresholds.  The alert resolves when
/// both windows fall back to burn <= resolve_burn.
///
/// Alerts are typed events (SloAlert) delivered to an optional callback —
/// the degradation ladder subscribes via
/// serve::DegradationLadder::engage_at_least, turning budget exhaustion
/// risk into a deliberate brownout instead of a missed SLO.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "le/obs/metrics.hpp"

namespace le::obs {

struct SloConfig {
  /// Target good fraction (e.g. 0.99 = "99% of events good"); the error
  /// budget rate is 1 - objective.  Must lie strictly inside (0, 1).
  double objective = 0.99;
  /// Event counts of the two sliding windows; fast <= slow, both > 0.
  std::size_t fast_window = 64;
  std::size_t slow_window = 512;
  /// Firing thresholds: fire when fast burn >= fast_burn AND slow burn >=
  /// slow_burn.  The classic page rule is {14.4, 6} for {5m, 1h} windows;
  /// event-count windows keep the same shape.
  double fast_burn = 14.0;
  double slow_burn = 6.0;
  /// A firing alert resolves when both burns fall to <= resolve_burn
  /// (burn 1 = spending exactly the budget — sustainable by definition).
  double resolve_burn = 1.0;
};

struct SloStats {
  std::uint64_t events = 0;
  std::uint64_t bad_events = 0;
  std::uint64_t alerts_fired = 0;
  std::uint64_t alerts_resolved = 0;
  bool firing = false;
  double fast_burn_rate = 0.0;
  double slow_burn_rate = 0.0;
};

/// One typed alert transition, as delivered to the callback: the stats at
/// the transition (firing true = fired, false = resolved).
using SloAlert = SloStats;

/// Thread-safe; record() is a few ring-buffer updates under one mutex.
/// The alert callback is invoked outside the lock (re-entrant calls into
/// the tracker from a callback are safe), on the recording thread.
class SloTracker {
 public:
  explicit SloTracker(const SloConfig& config);

  /// One SLO event: true = within objective (deadline met), false = budget
  /// spent.  Evaluates the burn-rate rule and may emit an alert.
  void record(bool good);

  /// Counts, alert state and the burn rates over the current windows (0
  /// while a window is empty).
  [[nodiscard]] SloStats stats() const;
  [[nodiscard]] const SloConfig& config() const noexcept { return config_; }

  /// Transition callback (fire AND resolve events); replaces any previous.
  void set_alert_callback(std::function<void(const SloAlert&)> callback);

  /// Writes stats() as "<prefix>.*": burn-rate/state gauges and the
  /// transition and bad-event counters.
  void export_metrics(MetricsSnapshot& out, const std::string& prefix) const;

  /// Attaches export_metrics() to `registry` for the tracker's lifetime.
  void enable_metrics(MetricsRegistry& registry,
                      const std::string& prefix = "slo") {
    metrics_ = registry.attach(*this, prefix);
  }

 private:
  /// Fixed-capacity good/bad ring with a running bad count.
  struct Window {
    explicit Window(std::size_t capacity) : ring(capacity, 0) {}
    std::vector<std::uint8_t> ring;
    std::size_t next = 0;
    std::size_t size = 0;
    std::uint64_t bad = 0;

    void push(bool is_bad);
    [[nodiscard]] double bad_fraction() const;
  };

  [[nodiscard]] double burn_of(const Window& w) const;

  SloConfig config_;
  mutable std::mutex mutex_;
  Window fast_;
  Window slow_;
  SloStats stats_;
  std::function<void(const SloAlert&)> callback_;

  MetricsSource metrics_;  ///< last member: detaches first
};

}  // namespace le::obs
