/// @file
/// Fault-tolerant execution of simulation functions (Section III-B:
/// "one must learn not just the result of a simulation but also the
/// uncertainty of the prediction e.g. if the learned result is valid
/// enough to be used" — extended from predictions to the simulations
/// themselves).
///
/// Three pieces, composable but independently usable:
///
///  - RetryPolicy / ResilientSimulation: retries transient failures with
///    exponential backoff + jitter, validates every output (finite,
///    dimension-correct, optional per-feature bounds), and accounts for
///    everything in a FaultStats so the effective-speedup model can price
///    the overhead of faults.
///  - CircuitBreaker: trips a degraded dependency (here: the surrogate
///    path of SurrogateDispatcher) out of the request path after K
///    consecutive failures, then half-opens after a cooldown to probe for
///    recovery — the classic closed/open/half-open state machine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "le/core/surrogate.hpp"
#include "le/stats/rng.hpp"

namespace le::core {

// ---------------------------------------------------------------------------
// Retry policy

struct RetryPolicy {
  /// Total attempts per state point (1 = no retries).
  std::size_t max_attempts = 3;
  /// Backoff before attempt k (k >= 1 retries) is
  /// min(initial * 2^(k-1), 0.05 s) * (1 + 0.1 * u), u ~ U[-1, 1).
  double initial_backoff_seconds = 1e-4;
  std::uint64_t seed = 97;

  /// The deterministic (jitter-free) backoff before retry number `retry`
  /// (1-based).  Exposed so the arithmetic is directly testable.
  [[nodiscard]] double base_backoff(std::size_t retry) const;

  void validate() const;
};

// ---------------------------------------------------------------------------
// Output validation

/// What a validated simulation/surrogate output may look like.  Violations
/// are treated like failures: retried for simulations, breaker-counted for
/// surrogates.
struct ValidationSpec {
  /// Required output length; 0 accepts any length.
  std::size_t expected_dim = 0;
  /// Optional per-feature closed bounds; empty vectors disable the check.
  /// When given, sizes must equal expected_dim.
  std::vector<double> lower_bounds;
  std::vector<double> upper_bounds;

  void validate() const;
};

enum class OutputVerdict { kValid, kWrongDimension, kNonFinite, kOutOfBounds };

[[nodiscard]] std::string to_string(OutputVerdict v);

/// Checks one output vector against the spec (finiteness is always
/// checked).
[[nodiscard]] OutputVerdict validate_output(std::span<const double> output,
                                            const ValidationSpec& spec);

// ---------------------------------------------------------------------------
// Resilient simulation wrapper

/// Everything that happened behind a ResilientSimulation, for reporting and
/// for pricing fault overhead in the effective-speedup model.
struct FaultStats {
  std::size_t calls = 0;        ///< state points requested
  std::size_t attempts = 0;     ///< underlying simulation invocations
  std::size_t retries = 0;      ///< attempts beyond the first, per call
  std::size_t rejections = 0;   ///< attempts discarded by output validation
  std::size_t failures = 0;     ///< calls that exhausted all attempts
  double total_backoff_seconds = 0.0;  ///< time spent sleeping between retries

  /// Mean attempts consumed per requested state point.
  [[nodiscard]] double attempts_per_call() const noexcept {
    return calls == 0 ? 0.0
                      : static_cast<double>(attempts) /
                            static_cast<double>(calls);
  }
};

/// Thrown by run() when a state point fails permanently (all attempts
/// exhausted).
class SimulationFailed : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Wraps a SimulationFn with retry, backoff and output validation.
/// Thread-safe: may be shared across ThreadPool workers.
class ResilientSimulation {
 public:
  ResilientSimulation(SimulationFn inner, RetryPolicy policy,
                      ValidationSpec validation = {});

  /// Runs one state point; empty optional means permanent failure.
  [[nodiscard]] std::optional<std::vector<double>> try_run(
      std::span<const double> input);

  /// Like try_run but throws SimulationFailed on permanent failure.
  [[nodiscard]] std::vector<double> run(std::span<const double> input);

  /// Adapts this wrapper to the plain SimulationFn interface (throwing on
  /// permanent failure).  The wrapper must outlive the returned function.
  [[nodiscard]] SimulationFn as_simulation_fn();

  [[nodiscard]] FaultStats stats() const;
  [[nodiscard]] const RetryPolicy& policy() const noexcept { return policy_; }

 private:
  SimulationFn inner_;
  RetryPolicy policy_;
  ValidationSpec validation_;
  mutable std::mutex mutex_;
  stats::Rng rng_;
  FaultStats stats_;
};

// ---------------------------------------------------------------------------
// Circuit breaker

struct CircuitBreakerConfig {
  /// Consecutive failures that trip the breaker open.
  std::size_t failure_threshold = 5;
  /// Denied calls the breaker stays open before half-opening a probe.
  /// Counted in calls (not wall time) so state transitions are
  /// deterministic and testable.
  std::size_t cooldown_calls = 16;

  void validate() const;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

[[nodiscard]] std::string to_string(BreakerState s);

/// Closed/open/half-open breaker over an unreliable dependency.  Callers
/// ask allow() before using the dependency and report the outcome with
/// record_success()/record_failure().  Thread-safe.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(const CircuitBreakerConfig& config = {});

  /// True when the dependency may be tried.  While open, consumes one
  /// cooldown tick per call; the call after the cooldown expires is the
  /// half-open probe.
  [[nodiscard]] bool allow();

  void record_success();
  void record_failure();

  /// Force-opens the breaker regardless of the failure count — the hook
  /// for out-of-band distrust signals (e.g. a SurrogateHealthMonitor
  /// reaching UNTRUSTED).  While already open it restarts the cooldown
  /// (without counting another trip), so a persistent signal starves the
  /// half-open probe.
  void trip();

  /// Returns to closed with the failure count cleared (the dependency was
  /// replaced or repaired out-of-band); the trip counter is preserved.
  void reset();

  [[nodiscard]] BreakerState state() const;
  /// Times the breaker has transitioned closed/half-open -> open.
  [[nodiscard]] std::size_t trips() const;
  [[nodiscard]] std::size_t consecutive_failures() const;

 private:
  void trip_locked();

  CircuitBreakerConfig config_;
  mutable std::mutex mutex_;
  BreakerState state_ = BreakerState::kClosed;
  std::size_t consecutive_failures_ = 0;
  std::size_t cooldown_remaining_ = 0;
  std::size_t trips_ = 0;
  bool probe_outstanding_ = false;
};

}  // namespace le::core
