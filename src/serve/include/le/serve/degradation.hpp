/// @file
/// The graceful-degradation ladder: a brownout policy over the serving
/// tiers this repo already owns.
///
/// The taxonomy paper (arXiv:1909.13340) classifies ML+HPC integrations as
/// a spectrum of fidelities; this repo has grown four ways to answer a
/// query, ordered by cost: the learned-lookup cache (O(1)), a degraded
/// surrogate (a lower-fidelity cut of the full model, e.g. fewer MC-dropout
/// passes), the full surrogate, and the real simulation.  Under overload
/// that ordering IS the brownout policy: as measured latency rises, walk
/// DOWN the cost ladder deliberately —
///
///   kFull      -> every tier available (full surrogate, sim fallback)
///   kDegraded  -> serve the cheaper degraded surrogate; no sim fallback
///   kCacheOnly -> serve remembered answers only; misses are shed
///   kShedAll   -> refuse everything until pressure releases
///
/// — instead of letting the queue fall off a cliff.  The controller is
/// quantile-driven with hysteresis: a level engages the moment the
/// windowed latency quantile crosses its threshold (jumping multiple
/// levels on a severe spike), and releases one level at a time only after
/// `release_windows` consecutive evaluations below `release_fraction` of
/// the engage threshold — so the ladder does not flap at a boundary.
///
/// The ladder only measures and decides; SurrogateDispatcher enforces the
/// level and attributes every degraded or shed answer honestly (DESIGN.md
/// section 14).  Pressure samples come from wherever the overload actually
/// shows: serve::BatchQueue feeds queue waits, the dispatcher feeds answer
/// latencies.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "le/obs/metrics.hpp"

namespace le::serve {

/// Service levels, ordered by increasing degradation.
enum class ServiceLevel : int {
  kFull = 0,       ///< all tiers available
  kDegraded = 1,   ///< serve the registered degraded surrogate
  kCacheOnly = 2,  ///< cache hits only; misses shed
  kShedAll = 3,    ///< refuse everything
};

/// Human-readable level label ("full", "degraded", ...).
[[nodiscard]] constexpr const char* service_level_name(
    ServiceLevel level) noexcept {
  switch (level) {
    case ServiceLevel::kFull: return "full";
    case ServiceLevel::kDegraded: return "degraded";
    case ServiceLevel::kCacheOnly: return "cache_only";
    case ServiceLevel::kShedAll: return "shed_all";
  }
  return "unknown";
}

struct DegradationConfig {
  /// Pressure samples per controller evaluation: the quantile is computed
  /// over each tumbling window of this many samples.
  std::size_t window = 64;
  /// Which quantile of the window drives the ladder (default p95).
  double quantile = 0.95;
  /// Engage thresholds in seconds for kDegraded / kCacheOnly / kShedAll:
  /// level L engages while the window quantile exceeds engage[L-1].
  /// Must be strictly increasing.
  std::array<double, 3> engage{2e-3, 8e-3, 20e-3};
  /// Level L releases only when the quantile falls below
  /// engage[L-1] * release_fraction (hysteresis gap).
  double release_fraction = 0.5;
  /// Consecutive below-release evaluations required before stepping down
  /// one level (dwell — a single calm window is not recovery).
  int release_windows = 2;
};

struct DegradationStats {
  ServiceLevel level = ServiceLevel::kFull;
  std::uint64_t evaluations = 0;
  std::uint64_t engages = 0;   ///< upward transitions (any number of steps)
  std::uint64_t releases = 0;  ///< downward single-step transitions
  double last_quantile = 0.0;  ///< latest evaluated window quantile (s)
};

class DegradationLadder {
 public:
  explicit DegradationLadder(const DegradationConfig& config);

  /// Feeds one pressure sample (seconds of queue wait or answer latency);
  /// every `window`-th sample evaluates the ladder.  Thread-safe.
  void record(double seconds);

  /// The current level, readable lock-free from any serving path.
  [[nodiscard]] ServiceLevel level() const noexcept {
    return static_cast<ServiceLevel>(
        level_.load(std::memory_order_relaxed));
  }

  /// External escalation: raises the level to at least `floor` immediately
  /// (counted as an engage; no-op when already at or past it).  This is
  /// how alerting feeds the ladder — an obs::SloTracker burn-rate alert
  /// browns the service out deliberately before the error budget is gone,
  /// without waiting for the latency quantile to cross a threshold.  The
  /// ladder releases from an escalated level through the normal
  /// hysteresis path.
  void engage_at_least(ServiceLevel floor);

  [[nodiscard]] DegradationStats stats() const;
  [[nodiscard]] const DegradationConfig& config() const noexcept {
    return config_;
  }

  /// Writes stats() as "<prefix>.*": the level gauge, transition counters
  /// and the evaluated quantile gauge.
  void export_metrics(obs::MetricsSnapshot& out,
                      const std::string& prefix) const;

  /// Attaches export_metrics() to `registry` for the ladder's lifetime.
  void enable_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "serve.overload") {
    metrics_ = registry.attach(*this, prefix);
  }

 private:
  void evaluate_locked();

  DegradationConfig config_;
  std::atomic<int> level_{0};

  mutable std::mutex mutex_;
  obs::Histogram window_;  ///< samples since the last evaluation
  std::size_t samples_since_eval_ = 0;
  int calm_evals_ = 0;  ///< consecutive below-release evaluations
  DegradationStats stats_;

  obs::MetricsSource metrics_;  ///< last member: detaches first
};

}  // namespace le::serve
