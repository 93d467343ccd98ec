#include "le/core/resilient.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace le::core {

namespace {

constexpr double kBackoffMultiplier = 2.0;
constexpr double kMaxBackoffSeconds = 0.05;
constexpr double kJitterFraction = 0.1;

}  // namespace

// ---------------------------------------------------------------------------
// RetryPolicy

double RetryPolicy::base_backoff(std::size_t retry) const {
  if (retry == 0) return 0.0;
  const double raw = initial_backoff_seconds *
                     std::pow(kBackoffMultiplier,
                              static_cast<double>(retry - 1));
  return std::min(raw, kMaxBackoffSeconds);
}

void RetryPolicy::validate() const {
  if (max_attempts == 0) {
    throw std::invalid_argument("RetryPolicy: max_attempts == 0");
  }
  if (initial_backoff_seconds < 0.0) {
    throw std::invalid_argument("RetryPolicy: negative backoff");
  }
}

// ---------------------------------------------------------------------------
// Output validation

void ValidationSpec::validate() const {
  if (!lower_bounds.empty() && lower_bounds.size() != expected_dim) {
    throw std::invalid_argument("ValidationSpec: lower_bounds size mismatch");
  }
  if (!upper_bounds.empty() && upper_bounds.size() != expected_dim) {
    throw std::invalid_argument("ValidationSpec: upper_bounds size mismatch");
  }
}

std::string to_string(OutputVerdict v) {
  switch (v) {
    case OutputVerdict::kValid: return "valid";
    case OutputVerdict::kWrongDimension: return "wrong_dimension";
    case OutputVerdict::kNonFinite: return "non_finite";
    case OutputVerdict::kOutOfBounds: return "out_of_bounds";
  }
  return "unknown";
}

OutputVerdict validate_output(std::span<const double> output,
                              const ValidationSpec& spec) {
  if (spec.expected_dim != 0 && output.size() != spec.expected_dim) {
    return OutputVerdict::kWrongDimension;
  }
  for (double v : output) {
    if (!std::isfinite(v)) return OutputVerdict::kNonFinite;
  }
  if (!spec.lower_bounds.empty() || !spec.upper_bounds.empty()) {
    for (std::size_t i = 0; i < output.size(); ++i) {
      if (!spec.lower_bounds.empty() && output[i] < spec.lower_bounds[i]) {
        return OutputVerdict::kOutOfBounds;
      }
      if (!spec.upper_bounds.empty() && output[i] > spec.upper_bounds[i]) {
        return OutputVerdict::kOutOfBounds;
      }
    }
  }
  return OutputVerdict::kValid;
}

// ---------------------------------------------------------------------------
// ResilientSimulation

ResilientSimulation::ResilientSimulation(SimulationFn inner,
                                         RetryPolicy policy,
                                         ValidationSpec validation)
    : inner_(std::move(inner)), policy_(policy),
      validation_(std::move(validation)), rng_(policy.seed) {
  if (!inner_) {
    throw std::invalid_argument("ResilientSimulation: null simulation");
  }
  policy_.validate();
  validation_.validate();
}

std::optional<std::vector<double>> ResilientSimulation::try_run(
    std::span<const double> input) {
  {
    std::lock_guard lock(mutex_);
    ++stats_.calls;
  }
  for (std::size_t attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    if (attempt > 1) {
      double backoff = policy_.base_backoff(attempt - 1);
      {
        std::lock_guard lock(mutex_);
        backoff *= 1.0 + kJitterFraction * rng_.uniform(-1.0, 1.0);
        ++stats_.retries;
        stats_.total_backoff_seconds += backoff;
      }
      if (backoff > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      }
    }
    {
      std::lock_guard lock(mutex_);
      ++stats_.attempts;
    }
    try {
      std::vector<double> output(inner_(input));
      if (validate_output(output, validation_) == OutputVerdict::kValid) {
        return output;
      }
      std::lock_guard lock(mutex_);
      ++stats_.rejections;
    } catch (const std::exception&) {
      // Transient failure: fall through to the next attempt.
    }
  }
  std::lock_guard lock(mutex_);
  ++stats_.failures;
  return std::nullopt;
}

std::vector<double> ResilientSimulation::run(std::span<const double> input) {
  if (auto output = try_run(input)) return std::move(*output);
  throw SimulationFailed("ResilientSimulation: state point failed after " +
                         std::to_string(policy_.max_attempts) + " attempts");
}

SimulationFn ResilientSimulation::as_simulation_fn() {
  return [this](std::span<const double> input) { return run(input); };
}

FaultStats ResilientSimulation::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

// ---------------------------------------------------------------------------
// CircuitBreaker

void CircuitBreakerConfig::validate() const {
  if (failure_threshold == 0) {
    throw std::invalid_argument("CircuitBreaker: failure_threshold == 0");
  }
}

std::string to_string(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(const CircuitBreakerConfig& config)
    : config_(config) {
  config_.validate();
}

bool CircuitBreaker::allow() {
  std::lock_guard lock(mutex_);
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (cooldown_remaining_ > 0) {
        --cooldown_remaining_;
        return false;
      }
      state_ = BreakerState::kHalfOpen;
      [[fallthrough]];
    case BreakerState::kHalfOpen:
      // Exactly one probe at a time; concurrent callers are denied until
      // the probe reports back.
      if (probe_outstanding_) return false;
      probe_outstanding_ = true;
      return true;
  }
  return true;
}

void CircuitBreaker::record_success() {
  std::lock_guard lock(mutex_);
  consecutive_failures_ = 0;
  probe_outstanding_ = false;
  state_ = BreakerState::kClosed;
}

void CircuitBreaker::record_failure() {
  std::lock_guard lock(mutex_);
  if (state_ == BreakerState::kHalfOpen) {
    // Failed probe: straight back to open for a full cooldown.
    probe_outstanding_ = false;
    trip_locked();
    return;
  }
  ++consecutive_failures_;
  if (state_ == BreakerState::kClosed &&
      consecutive_failures_ >= config_.failure_threshold) {
    trip_locked();
  }
}

void CircuitBreaker::trip() {
  std::lock_guard lock(mutex_);
  probe_outstanding_ = false;
  if (state_ == BreakerState::kOpen) {
    // Re-asserted distrust restarts the cooldown, so a caller that trips
    // on every request keeps the breaker open indefinitely — no half-open
    // probe ever reaches the dependency while the signal persists.
    cooldown_remaining_ = config_.cooldown_calls;
    consecutive_failures_ = config_.failure_threshold;
    return;
  }
  trip_locked();
}

void CircuitBreaker::reset() {
  std::lock_guard lock(mutex_);
  state_ = BreakerState::kClosed;
  consecutive_failures_ = 0;
  cooldown_remaining_ = 0;
  probe_outstanding_ = false;
}

void CircuitBreaker::trip_locked() {
  state_ = BreakerState::kOpen;
  cooldown_remaining_ = config_.cooldown_calls;
  consecutive_failures_ = config_.failure_threshold;
  ++trips_;
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard lock(mutex_);
  return state_;
}

std::size_t CircuitBreaker::trips() const {
  std::lock_guard lock(mutex_);
  return trips_;
}

std::size_t CircuitBreaker::consecutive_failures() const {
  std::lock_guard lock(mutex_);
  return consecutive_failures_;
}

}  // namespace le::core
