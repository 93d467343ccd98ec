// Tests for the fault-tolerance layer: FaultInjector determinism,
// RetryPolicy backoff arithmetic, ResilientSimulation retry/validation,
// CircuitBreaker state transitions, the dispatcher's simulation-only
// degraded mode, scheduler task retry, and survival of the adaptive loop
// and MLControl campaigns under heavy injected fault rates.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "le/core/adaptive_loop.hpp"
#include "le/core/ml_control.hpp"
#include "le/core/resilient.hpp"
#include "le/core/surrogate.hpp"
#include "le/runtime/communicator.hpp"
#include "le/runtime/fault.hpp"
#include "le/runtime/scheduler.hpp"

namespace le::core {
namespace {

std::vector<double> identity_sim_output(std::span<const double> x) {
  return std::vector<double>{x[0]};
}

// ---------------------------------------------------------------------------
// FaultInjector

/// Runs `calls` queries through a fresh injector and records, per call,
/// whether it threw and whether the output was corrupted to non-finite.
std::vector<int> fault_signature(const runtime::FaultSpec& spec,
                                 std::size_t calls) {
  runtime::FaultInjector injector(spec);
  auto sim = injector.wrap(identity_sim_output);
  std::vector<int> signature;
  const std::vector<double> input{0.5};
  for (std::size_t i = 0; i < calls; ++i) {
    try {
      const auto out = sim(input);
      signature.push_back(std::isfinite(out[0]) ? 0 : 1);
    } catch (const runtime::InjectedFault&) {
      signature.push_back(2);
    }
  }
  return signature;
}

TEST(FaultInjector, SameSeedSameFaultSequence) {
  runtime::FaultSpec spec;
  spec.throw_probability = 0.2;
  spec.nan_probability = 0.15;
  spec.inf_probability = 0.05;
  spec.seed = 77;
  const auto a = fault_signature(spec, 200);
  const auto b = fault_signature(spec, 200);
  EXPECT_EQ(a, b);
  // Different seed: a different sequence (with 200 draws this is certain
  // for any non-degenerate rates).
  spec.seed = 78;
  EXPECT_NE(a, fault_signature(spec, 200));
}

TEST(FaultInjector, ResetReplaysTheStream) {
  runtime::FaultSpec spec;
  spec.throw_probability = 0.3;
  spec.seed = 5;
  runtime::FaultInjector injector(spec);
  auto sim = injector.wrap(identity_sim_output);
  const std::vector<double> input{1.0};
  std::vector<int> first, second;
  for (int round = 0; round < 2; ++round) {
    auto& sink = round == 0 ? first : second;
    for (int i = 0; i < 50; ++i) {
      try {
        (void)sim(input);
        sink.push_back(0);
      } catch (const runtime::InjectedFault&) {
        sink.push_back(1);
      }
    }
    injector.reset();
  }
  EXPECT_EQ(first, second);
  EXPECT_EQ(injector.counts().calls, 0u);  // reset zeroed the counters
}

TEST(FaultInjector, CountsMatchObservedFaults) {
  runtime::FaultSpec spec;
  spec.throw_probability = 0.25;
  spec.nan_probability = 0.25;
  spec.seed = 11;
  runtime::FaultInjector injector(spec);
  auto sim = injector.wrap(identity_sim_output);
  std::size_t observed_throws = 0, observed_nans = 0;
  const std::vector<double> input{2.0};
  for (int i = 0; i < 400; ++i) {
    try {
      if (!std::isfinite(sim(input)[0])) ++observed_nans;
    } catch (const runtime::InjectedFault&) {
      ++observed_throws;
    }
  }
  const auto counts = injector.counts();
  EXPECT_EQ(counts.calls, 400u);
  EXPECT_EQ(counts.throws, observed_throws);
  EXPECT_EQ(counts.nan_corruptions, observed_nans);
  // ~100 expected of each; determinism makes this a fixed number, the wide
  // band just documents the rate is in the right regime.
  EXPECT_GT(counts.throws, 60u);
  EXPECT_LT(counts.throws, 140u);
}

TEST(FaultInjector, ZeroRatesAreTransparent) {
  runtime::FaultInjector injector(runtime::FaultSpec{});
  auto sim = injector.wrap(identity_sim_output);
  const auto out = sim(std::vector<double>{3.25});
  EXPECT_DOUBLE_EQ(out[0], 3.25);
  EXPECT_EQ(injector.counts().total_faults(), 0u);
}

TEST(FaultInjector, RejectsBadSpec) {
  runtime::FaultSpec spec;
  spec.throw_probability = 1.5;
  EXPECT_THROW(runtime::FaultInjector{spec}, std::invalid_argument);
  spec.throw_probability = 0.0;
  spec.latency_seconds = -1.0;
  EXPECT_THROW(runtime::FaultInjector{spec}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// RetryPolicy

TEST(RetryPolicy, BackoffArithmetic) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.01;
  EXPECT_DOUBLE_EQ(policy.base_backoff(0), 0.0);   // before the first attempt
  EXPECT_DOUBLE_EQ(policy.base_backoff(1), 0.01);
  EXPECT_DOUBLE_EQ(policy.base_backoff(2), 0.02);
  EXPECT_DOUBLE_EQ(policy.base_backoff(3), 0.04);
  EXPECT_DOUBLE_EQ(policy.base_backoff(4), 0.05);  // capped
  EXPECT_DOUBLE_EQ(policy.base_backoff(10), 0.05);
}

TEST(RetryPolicy, Validation) {
  RetryPolicy policy;
  policy.max_attempts = 0;
  EXPECT_THROW(policy.validate(), std::invalid_argument);
  policy = RetryPolicy{};
  policy.initial_backoff_seconds = -1.0;
  EXPECT_THROW(policy.validate(), std::invalid_argument);
  RetryPolicy{}.validate();  // defaults are valid
}

// ---------------------------------------------------------------------------
// Output validation

TEST(ValidateOutput, VerdictsCoverTaxonomy) {
  ValidationSpec spec;
  spec.expected_dim = 2;
  spec.lower_bounds = {0.0, -1.0};
  spec.upper_bounds = {10.0, 1.0};
  using V = OutputVerdict;
  EXPECT_EQ(validate_output(std::vector<double>{1.0, 0.0}, spec), V::kValid);
  EXPECT_EQ(validate_output(std::vector<double>{1.0}, spec),
            V::kWrongDimension);
  EXPECT_EQ(validate_output(
                std::vector<double>{std::nan(""), 0.0}, spec),
            V::kNonFinite);
  EXPECT_EQ(validate_output(std::vector<double>{11.0, 0.0}, spec),
            V::kOutOfBounds);
  EXPECT_EQ(validate_output(std::vector<double>{1.0, -2.0}, spec),
            V::kOutOfBounds);
  // Bound sizes must match the declared dimension.
  ValidationSpec bad;
  bad.expected_dim = 3;
  bad.lower_bounds = {0.0};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ResilientSimulation

TEST(ResilientSimulation, RetriesTransientThrows) {
  std::size_t calls = 0;
  SimulationFn flaky = [&](std::span<const double> x) -> std::vector<double> {
    if (++calls < 3) throw std::runtime_error("transient");
    return {x[0] * 2.0};
  };
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_seconds = 0.0;  // keep the test fast
  ResilientSimulation resilient(flaky, policy);
  const auto out = resilient.run(std::vector<double>{1.5});
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  const FaultStats stats = resilient.stats();
  EXPECT_EQ(stats.calls, 1u);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.failures, 0u);
}

TEST(ResilientSimulation, RejectsInvalidOutputsAndRetries) {
  std::size_t calls = 0;
  SimulationFn nan_then_good = [&](std::span<const double>) {
    return std::vector<double>{
        ++calls == 1 ? std::numeric_limits<double>::quiet_NaN() : 7.0};
  };
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_seconds = 0.0;
  ValidationSpec validation;
  validation.expected_dim = 1;
  ResilientSimulation resilient(nan_then_good, policy, validation);
  const auto out = resilient.try_run(std::vector<double>{0.0});
  ASSERT_TRUE(out.has_value());
  EXPECT_DOUBLE_EQ((*out)[0], 7.0);
  EXPECT_EQ(resilient.stats().rejections, 1u);
}

TEST(ResilientSimulation, PermanentFailureReportsAndThrows) {
  SimulationFn broken = [](std::span<const double>) -> std::vector<double> {
    throw std::runtime_error("always");
  };
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 0.0;
  ResilientSimulation resilient(broken, policy);
  EXPECT_FALSE(resilient.try_run(std::vector<double>{0.0}).has_value());
  EXPECT_THROW((void)resilient.run(std::vector<double>{0.0}),
               SimulationFailed);
  const FaultStats stats = resilient.stats();
  EXPECT_EQ(stats.calls, 2u);
  EXPECT_EQ(stats.failures, 2u);
  EXPECT_EQ(stats.attempts, 6u);
  EXPECT_DOUBLE_EQ(stats.attempts_per_call(), 3.0);
}

TEST(ResilientSimulation, AsSimulationFnAdapts) {
  SimulationFn fine = [](std::span<const double> x) {
    return std::vector<double>{x[0] + 1.0};
  };
  ResilientSimulation resilient(fine, RetryPolicy{});
  SimulationFn wrapped = resilient.as_simulation_fn();
  EXPECT_DOUBLE_EQ(wrapped(std::vector<double>{41.0})[0], 42.0);
}

// ---------------------------------------------------------------------------
// CircuitBreaker

TEST(CircuitBreaker, OpensAfterConsecutiveFailures) {
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  config.cooldown_calls = 2;
  CircuitBreaker breaker(config);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  // A success resets the consecutive count.
  breaker.record_success();
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreaker, HalfOpenProbeClosesOnSuccess) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown_calls = 3;
  CircuitBreaker breaker(config);
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  // Cooldown: three denied calls.
  EXPECT_FALSE(breaker.allow());
  EXPECT_FALSE(breaker.allow());
  EXPECT_FALSE(breaker.allow());
  // Fourth call is the half-open probe.
  EXPECT_TRUE(breaker.allow());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  // Concurrent callers are denied while the probe is outstanding.
  EXPECT_FALSE(breaker.allow());
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.allow());
}

TEST(CircuitBreaker, FailedProbeReopensWithFullCooldown) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown_calls = 2;
  CircuitBreaker breaker(config);
  breaker.record_failure();
  EXPECT_FALSE(breaker.allow());
  EXPECT_FALSE(breaker.allow());
  EXPECT_TRUE(breaker.allow());  // probe
  breaker.record_failure();      // probe failed
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_FALSE(breaker.allow());  // cooldown restarted in full
  EXPECT_FALSE(breaker.allow());
  EXPECT_TRUE(breaker.allow());
}

TEST(CircuitBreaker, RejectsBadConfig) {
  CircuitBreakerConfig config;
  config.failure_threshold = 0;
  EXPECT_THROW(CircuitBreaker{config}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Dispatcher degraded mode

/// UQ model whose predictions can be poisoned to NaN on demand; counts
/// predict calls so tests can prove the breaker skips the surrogate.
class PoisonableUq final : public uq::UqModel {
 public:
  uq::Prediction predict(std::span<const double> input) override {
    ++predict_calls;
    if (poisoned) {
      return {{std::numeric_limits<double>::quiet_NaN()}, {0.0}};
    }
    return {{2.0 * input[0]}, {0.01}};
  }
  std::size_t input_dim() const override { return 1; }
  std::size_t output_dim() const override { return 1; }

  bool poisoned = false;
  std::size_t predict_calls = 0;
};

TEST(DispatcherBreaker, TripsToSimulationOnlyAndRecovers) {
  auto uq_model = std::make_shared<PoisonableUq>();
  std::size_t sim_calls = 0;
  SimulationFn sim = [&](std::span<const double> x) {
    ++sim_calls;
    return std::vector<double>{2.0 * x[0]};
  };
  SurrogateDispatcher dispatcher(uq_model, sim, 1.0);
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  config.cooldown_calls = 4;
  dispatcher.enable_circuit_breaker(config);
  const std::vector<double> input{0.5};

  // Healthy phase: surrogate answers.
  (void)dispatcher.query(input);
  (void)dispatcher.query(input);
  EXPECT_EQ(dispatcher.stats().surrogate_answers, 2u);

  // Poisoned phase: three invalid predictions trip the breaker; every
  // such query is answered by the simulation.
  uq_model->poisoned = true;
  for (int i = 0; i < 3; ++i) {
    const Answer a = dispatcher.query(input);
    EXPECT_EQ(a.source, AnswerSource::kSimulation);
    EXPECT_DOUBLE_EQ(a.values[0], 1.0);
  }
  EXPECT_EQ(dispatcher.stats().invalid_predictions, 3u);
  ASSERT_NE(dispatcher.circuit_breaker(), nullptr);
  EXPECT_EQ(dispatcher.circuit_breaker()->state(), BreakerState::kOpen);

  // Simulation-only mode: the surrogate is not even consulted.
  const std::size_t predicts_before = uq_model->predict_calls;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(dispatcher.query(input).source, AnswerSource::kSimulation);
  }
  EXPECT_EQ(uq_model->predict_calls, predicts_before);
  EXPECT_EQ(dispatcher.stats().breaker_short_circuits, 4u);

  // Half-open probe while still poisoned: consulted once, fails, reopens.
  (void)dispatcher.query(input);
  EXPECT_EQ(uq_model->predict_calls, predicts_before + 1);
  EXPECT_EQ(dispatcher.circuit_breaker()->state(), BreakerState::kOpen);

  // Recovery: cooldown passes, the probe validates, breaker closes and
  // the surrogate serves again.
  uq_model->poisoned = false;
  for (int i = 0; i < 4; ++i) (void)dispatcher.query(input);
  const Answer healed = dispatcher.query(input);
  EXPECT_EQ(healed.source, AnswerSource::kSurrogate);
  EXPECT_EQ(dispatcher.circuit_breaker()->state(), BreakerState::kClosed);
  EXPECT_GT(sim_calls, 0u);
}

TEST(DispatcherBreaker, InvalidPredictionsWithoutBreakerStillFallBack) {
  auto uq_model = std::make_shared<PoisonableUq>();
  uq_model->poisoned = true;
  SimulationFn sim = [](std::span<const double> x) {
    return std::vector<double>{2.0 * x[0]};
  };
  SurrogateDispatcher dispatcher(uq_model, sim, 1.0);  // no breaker armed
  for (int i = 0; i < 10; ++i) {
    const Answer a = dispatcher.query(std::vector<double>{1.0});
    EXPECT_EQ(a.source, AnswerSource::kSimulation);
    EXPECT_TRUE(std::isfinite(a.values[0]));
  }
  EXPECT_EQ(dispatcher.stats().invalid_predictions, 10u);
  EXPECT_EQ(dispatcher.circuit_breaker(), nullptr);
}

TEST(Dispatcher, BufferedUncertaintyResetsOnDrain) {
  auto uq_model = std::make_shared<PoisonableUq>();
  SimulationFn sim = [](std::span<const double> x) {
    return std::vector<double>{2.0 * x[0]};
  };
  // Threshold below the model's 0.01 spread: every query falls back and
  // buffers, carrying its uncertainty score.
  SurrogateDispatcher dispatcher(uq_model, sim, 0.001);
  (void)dispatcher.query(std::vector<double>{1.0});
  (void)dispatcher.query(std::vector<double>{2.0});
  EXPECT_EQ(dispatcher.training_buffer().size(), 2u);
  EXPECT_NEAR(dispatcher.mean_buffered_uncertainty(), 0.01, 1e-12);
  (void)dispatcher.take_retraining();
  EXPECT_DOUBLE_EQ(dispatcher.mean_buffered_uncertainty(), 0.0);
  EXPECT_EQ(dispatcher.training_buffer().size(), 0u);
}

// ---------------------------------------------------------------------------
// Scheduler retry / re-queue

TEST(SchedulerFaults, RetriesRecoverMostTasks) {
  auto tasks = runtime::make_mlaroundhpc_workload(4, 2000, 16, 100);
  for (auto& t : tasks) t.failure_probability = 0.3;
  runtime::SchedulerConfig config;
  config.policy = runtime::SchedulePolicy::kSharedQueue;
  config.workers = 3;
  config.max_task_attempts = 5;
  const runtime::ScheduleResult result = runtime::run_workload(tasks, config);
  // P(5 consecutive failures) = 0.3^5 ~ 0.24%: with 20 tasks, losing more
  // than a couple would be astronomically unlikely — and the draw is
  // deterministic in (seed, id, attempt) anyway.
  EXPECT_LE(result.failed_tasks, 2u);
  EXPECT_GT(result.retried_attempts, 0u);
  for (double t : result.completion_seconds) EXPECT_GT(t, 0.0);
}

TEST(SchedulerFaults, NoRetryBudgetCountsFailures) {
  auto tasks = runtime::make_mlaroundhpc_workload(2, 500, 8, 100);
  for (auto& t : tasks) t.failure_probability = 1.0;
  runtime::SchedulerConfig config;
  config.workers = 2;
  config.max_task_attempts = 3;
  const runtime::ScheduleResult result = runtime::run_workload(tasks, config);
  EXPECT_EQ(result.failed_tasks, tasks.size());
  EXPECT_EQ(result.retried_attempts, 2 * tasks.size());
}

TEST(SchedulerFaults, FailureOutcomeIsDeterministicInSeed) {
  auto tasks = runtime::make_mlaroundhpc_workload(3, 500, 12, 100);
  for (auto& t : tasks) t.failure_probability = 0.5;
  runtime::SchedulerConfig config;
  config.workers = 4;
  config.max_task_attempts = 2;
  config.seed = 99;
  const auto a = runtime::run_workload(tasks, config);
  const auto b = runtime::run_workload(tasks, config);
  EXPECT_EQ(a.failed_tasks, b.failed_tasks);
  EXPECT_EQ(a.retried_attempts, b.retried_attempts);
}

TEST(SchedulerFaults, RejectsBadFaultConfig) {
  std::vector<runtime::Task> tasks{runtime::Task{}};
  runtime::SchedulerConfig config;
  config.max_task_attempts = 0;
  EXPECT_THROW((void)runtime::run_workload(tasks, config),
               std::invalid_argument);
  config.max_task_attempts = 1;
  tasks[0].failure_probability = 1.5;
  EXPECT_THROW((void)runtime::run_workload(tasks, config),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Communicator input validation

TEST(CommunicatorValidation, OutOfRangeRankThrows) {
  runtime::Communicator comm(2);
  std::vector<double> data(3, 0.0);
  EXPECT_THROW(comm.allreduce_sum(2, data), std::out_of_range);
  EXPECT_THROW(comm.broadcast(0, 5, data), std::out_of_range);
  EXPECT_THROW(comm.rotate(7, data), std::out_of_range);
}

TEST(CommunicatorValidation, MismatchedLengthsThrowOnEveryRank) {
  const std::size_t p = 3;
  runtime::Communicator comm(p);
  std::atomic<int> throws{0};
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < p; ++r) {
    threads.emplace_back([&, r] {
      // Rank 2 brings a span of the wrong length.
      std::vector<double> data(r == 2 ? 4 : 3, 1.0);
      try {
        comm.allreduce_sum(r, data);
      } catch (const std::invalid_argument&) {
        ++throws;
      }
    });
  }
  for (auto& t : threads) t.join();
  // All ranks observe the same inconsistency and throw together — nobody
  // deadlocks at the barrier and no scratch buffer is consumed corrupted.
  EXPECT_EQ(throws.load(), static_cast<int>(p));
}

// ---------------------------------------------------------------------------
// End-to-end: adaptive loop and campaigns under injected faults

TEST(AdaptiveLoopFaults, Survives30PercentThrowRate) {
  const data::ParamSpace space({{"x", -1.0, 1.0, false}});
  runtime::FaultSpec spec;
  spec.throw_probability = 0.3;
  spec.seed = 21;
  runtime::FaultInjector injector(spec);
  const SimulationFn sim = injector.wrap([](std::span<const double> x) {
    return std::vector<double>{std::sin(2.0 * x[0])};
  });
  AdaptiveLoopConfig cfg;
  cfg.initial_samples = 16;
  cfg.samples_per_round = 8;
  cfg.max_rounds = 3;
  cfg.uncertainty_threshold = 0.0;  // never converge: exercise all rounds
  cfg.candidate_pool = 60;
  cfg.hidden = {16, 16};
  cfg.mc_passes = 8;
  cfg.train.epochs = 40;
  cfg.train.batch_size = 8;
  cfg.retry.max_attempts = 3;
  cfg.retry.initial_backoff_seconds = 0.0;
  const AdaptiveLoopResult result = run_adaptive_loop(space, sim, 1, cfg);
  ASSERT_TRUE(result.surrogate != nullptr);
  EXPECT_EQ(result.corpus.size(), result.simulations_run);
  // Accounting closes: every requested point either entered the corpus or
  // was reported failed, and the wrapper's stats agree.
  EXPECT_EQ(result.fault_stats.calls,
            result.simulations_run + result.simulations_failed);
  EXPECT_EQ(result.fault_stats.failures, result.simulations_failed);
  EXPECT_GT(result.fault_stats.attempts, result.fault_stats.calls);
}

TEST(AdaptiveLoopFaults, SurvivesThrowPlusNanMix) {
  // The acceptance-criterion mix: 10% throws + 5% NaN corruption.
  const data::ParamSpace space({{"x", -1.0, 1.0, false}});
  runtime::FaultSpec spec;
  spec.throw_probability = 0.10;
  spec.nan_probability = 0.05;
  spec.seed = 31;
  runtime::FaultInjector injector(spec);
  const SimulationFn sim = injector.wrap([](std::span<const double> x) {
    return std::vector<double>{std::sin(2.0 * x[0])};
  });
  AdaptiveLoopConfig cfg;
  cfg.initial_samples = 16;
  cfg.samples_per_round = 8;
  cfg.max_rounds = 2;
  cfg.uncertainty_threshold = 0.0;
  cfg.candidate_pool = 60;
  cfg.hidden = {16, 16};
  cfg.mc_passes = 8;
  cfg.train.epochs = 40;
  cfg.train.batch_size = 8;
  cfg.retry.max_attempts = 4;
  cfg.retry.initial_backoff_seconds = 0.0;
  const AdaptiveLoopResult result = run_adaptive_loop(space, sim, 1, cfg);
  ASSERT_TRUE(result.surrogate != nullptr);
  // NaN outputs never reach the corpus.
  for (std::size_t i = 0; i < result.corpus.size(); ++i) {
    EXPECT_TRUE(std::isfinite(result.corpus.target(i)[0]));
  }
  EXPECT_GT(result.fault_stats.rejections + result.fault_stats.retries, 0u);
}

TEST(AdaptiveLoopFaults, AllInitialFailuresThrow) {
  const data::ParamSpace space({{"x", 0.0, 1.0, false}});
  const SimulationFn broken =
      [](std::span<const double>) -> std::vector<double> {
    throw std::runtime_error("dead cluster");
  };
  AdaptiveLoopConfig cfg;
  cfg.initial_samples = 4;
  cfg.retry.max_attempts = 2;
  cfg.retry.initial_backoff_seconds = 0.0;
  EXPECT_THROW((void)run_adaptive_loop(space, broken, 1, cfg),
               std::runtime_error);
}

TEST(MlCampaignFaults, CompletesUnderFaultsAndReportsAccurately) {
  const data::ParamSpace space(
      {{"x", -1.0, 1.0, false}, {"y", -1.0, 1.0, false}});
  runtime::FaultSpec spec;
  spec.throw_probability = 0.10;
  spec.nan_probability = 0.05;
  spec.seed = 13;
  runtime::FaultInjector injector(spec);
  const SimulationFn sim = injector.wrap([](std::span<const double> x) {
    return std::vector<double>{x[0] - 0.4, x[1] + 0.3};
  });
  const OutputObjective objective = [](std::span<const double> out) {
    return out[0] * out[0] + out[1] * out[1];
  };
  CampaignConfig cfg;
  cfg.simulation_budget = 20;
  cfg.warmup = 6;
  cfg.pool = 100;
  cfg.train.epochs = 40;
  cfg.train.batch_size = 8;
  cfg.retry.max_attempts = 3;
  cfg.retry.initial_backoff_seconds = 0.0;
  const CampaignResult result = run_ml_campaign(space, sim, 2, objective, cfg);
  // The budget is spent exactly, split between successes and failures.
  EXPECT_EQ(result.simulations_run + result.simulations_failed,
            cfg.simulation_budget);
  EXPECT_EQ(result.evaluated.size(), result.simulations_run);
  EXPECT_EQ(result.trace.size(), result.simulations_run);
  EXPECT_EQ(result.fault_stats.failures, result.simulations_failed);
  EXPECT_LT(result.best_objective, 1.0);  // still made optimization progress
}

TEST(MlCampaignFaults, DirectCampaignSkipsFailures) {
  const data::ParamSpace space({{"x", -1.0, 1.0, false}});
  std::size_t calls = 0;
  const SimulationFn sometimes =
      [&](std::span<const double> x) -> std::vector<double> {
    if (++calls % 3 == 0) throw std::runtime_error("transient");
    return {x[0]};
  };
  const OutputObjective objective = [](std::span<const double> out) {
    return out[0];
  };
  CampaignConfig cfg;
  cfg.simulation_budget = 12;
  cfg.warmup = 4;
  cfg.retry.max_attempts = 1;  // no retries: every throw is a failure
  const CampaignResult result =
      run_direct_campaign(space, sometimes, 1, objective, cfg);
  EXPECT_EQ(result.simulations_run + result.simulations_failed,
            cfg.simulation_budget);
  EXPECT_GT(result.simulations_failed, 0u);
  EXPECT_EQ(result.trace.size(), result.simulations_run);
}

}  // namespace
}  // namespace le::core
