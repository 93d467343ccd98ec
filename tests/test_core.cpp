// Tests for the Learning Everywhere core: the effective-speedup model, the
// UQ-gated dispatcher, the adaptive training loop, MLControl campaigns and
// the NN/sync-engine adapter.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <random>
#include <thread>

#include "le/core/adaptive_loop.hpp"
#include "le/core/effective_speedup.hpp"
#include "le/core/ml_control.hpp"
#include "le/core/network_problem.hpp"
#include "le/core/resilient.hpp"
#include "le/core/surrogate.hpp"
#include "le/serve/degradation.hpp"
#include "le/serve/lookup_cache.hpp"
#include "le/serve/overload.hpp"
#include "le/nn/loss.hpp"
#include "le/nn/optimizer.hpp"
#include "le/obs/health.hpp"
#include "le/obs/metrics.hpp"
#include "le/obs/speedup_meter.hpp"
#include "le/tensor/simd.hpp"
#include "le/uq/acquisition.hpp"
#include "le/uq/deep_ensemble.hpp"
#include "snapshot_lookup.hpp"

namespace le::core {
namespace {

using le::stats::Rng;
using le::testing_support::counter_in;
using le::testing_support::gauge_in;

TEST(EffectiveSpeedup, FormulaMatchesHandComputation) {
  SpeedupTimes t;
  t.t_seq = 10.0;
  t.t_train = 2.0;
  t.t_learn = 0.5;
  t.t_lookup = 0.001;
  // S = 10*(100+10) / (0.001*100 + 2.5*10) = 1100 / 25.1
  EXPECT_NEAR(effective_speedup(t, 100, 10), 1100.0 / 25.1, 1e-9);
}

TEST(EffectiveSpeedup, NoMlLimit) {
  // N_lookup = 0 reduces to T_seq / (T_train + T_learn); with no learning
  // cost it is exactly the classic T_seq / T_train.
  SpeedupTimes t;
  t.t_seq = 8.0;
  t.t_train = 2.0;
  t.t_learn = 0.0;
  EXPECT_DOUBLE_EQ(effective_speedup(t, 0, 5), no_ml_limit(t));
  EXPECT_DOUBLE_EQ(no_ml_limit(t), 4.0);
}

TEST(EffectiveSpeedup, ApproachesLookupLimit) {
  SpeedupTimes t;
  t.t_seq = 1.0;
  t.t_train = 1.0;
  t.t_learn = 0.1;
  t.t_lookup = 1e-5;
  const double limit = lookup_limit(t);
  EXPECT_DOUBLE_EQ(limit, 1e5);
  // Monotone approach.
  double prev = 0.0;
  for (std::size_t n : {10u, 100u, 1000u, 100000u, 10000000u}) {
    const double s = effective_speedup(t, n, 10);
    EXPECT_GT(s, prev);
    EXPECT_LT(s, limit);
    prev = s;
  }
  EXPECT_GT(effective_speedup(t, 1000000000ull, 10), 0.98 * limit);
}

TEST(EffectiveSpeedup, SweepRowsConsistent) {
  SpeedupTimes t;
  t.t_lookup = 1e-3;
  const auto rows = sweep_lookups(t, 5, {0, 10, 1000});
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].n_lookup, 0u);
  EXPECT_NEAR(rows[2].fraction_of_limit,
              rows[2].speedup / lookup_limit(t), 1e-12);
}

TEST(EffectiveSpeedup, RatioToReachFraction) {
  SpeedupTimes t;
  t.t_seq = 1.0;
  t.t_train = 1.0;
  t.t_learn = 0.0;
  t.t_lookup = 1e-4;
  const double ratio = ratio_to_reach_fraction(t, 0.5);
  // At the found ratio the speedup is at least half the limit.
  EXPECT_GE(effective_speedup(t, static_cast<std::size_t>(ratio), 1),
            0.5 * lookup_limit(t));
  EXPECT_THROW((void)ratio_to_reach_fraction(t, 1.5), std::invalid_argument);
}

TEST(EffectiveSpeedup, ValidatesInput) {
  SpeedupTimes t;
  EXPECT_THROW((void)effective_speedup(t, 0, 0), std::invalid_argument);
  t.t_lookup = 0.0;
  EXPECT_THROW((void)lookup_limit(t), std::invalid_argument);
}

/// Fake UQ model with controllable spread: sigma = |x| (certain near 0).
class FakeUq final : public uq::UqModel {
 public:
  uq::Prediction predict(std::span<const double> input) override {
    return {{2.0 * input[0]}, {std::abs(input[0])}};
  }
  std::size_t input_dim() const override { return 1; }
  std::size_t output_dim() const override { return 1; }
};

TEST(Dispatcher, RoutesByUncertainty) {
  std::size_t sim_calls = 0;
  auto sim = [&](std::span<const double> x) {
    ++sim_calls;
    return std::vector<double>{2.0 * x[0] + 0.01};
  };
  SurrogateDispatcher dispatcher(std::make_shared<FakeUq>(), sim, 0.5);

  const Answer cheap = dispatcher.query(std::vector<double>{0.1});
  EXPECT_EQ(cheap.source, AnswerSource::kSurrogate);
  EXPECT_DOUBLE_EQ(cheap.values[0], 0.2);
  EXPECT_EQ(sim_calls, 0u);

  const Answer costly = dispatcher.query(std::vector<double>{2.0});
  EXPECT_EQ(costly.source, AnswerSource::kSimulation);
  EXPECT_NEAR(costly.values[0], 4.01, 1e-12);
  EXPECT_EQ(sim_calls, 1u);

  EXPECT_EQ(dispatcher.stats().surrogate_answers, 1u);
  EXPECT_EQ(dispatcher.stats().simulation_answers, 1u);
  EXPECT_DOUBLE_EQ(dispatcher.stats().surrogate_fraction(), 0.5);
}

TEST(Dispatcher, FallbackRunsFillTrainingBuffer) {
  auto sim = [](std::span<const double> x) {
    return std::vector<double>{x[0] * x[0]};
  };
  SurrogateDispatcher dispatcher(std::make_shared<FakeUq>(), sim, 0.5);
  (void)dispatcher.query(std::vector<double>{3.0});  // fallback
  (void)dispatcher.query(std::vector<double>{0.1});  // surrogate
  (void)dispatcher.query(std::vector<double>{-4.0}); // fallback
  EXPECT_EQ(dispatcher.training_buffer().size(), 2u);
  const data::Dataset drained = dispatcher.take_retraining();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_EQ(dispatcher.training_buffer().size(), 0u);
  EXPECT_DOUBLE_EQ(drained.target(0)[0], 9.0);
}

TEST(Dispatcher, ThresholdExtremes) {
  auto sim = [](std::span<const double> x) {
    return std::vector<double>{x[0]};
  };
  // Threshold 0 with nonzero spread -> always simulate.
  SurrogateDispatcher strict(std::make_shared<FakeUq>(), sim, 0.0);
  EXPECT_EQ(strict.query(std::vector<double>{1.0}).source,
            AnswerSource::kSimulation);
  // Huge threshold -> always surrogate.
  SurrogateDispatcher lax(std::make_shared<FakeUq>(), sim, 1e9);
  EXPECT_EQ(lax.query(std::vector<double>{1.0}).source,
            AnswerSource::kSurrogate);
  EXPECT_THROW(lax.set_threshold(-1.0), std::invalid_argument);
}

TEST(Dispatcher, StatsAccumulateWallTimePerSource) {
  // A deliberately slow simulation: simulation_seconds must clearly
  // dominate surrogate_seconds, and both must be populated.
  auto sim = [](std::span<const double> x) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return std::vector<double>{2.0 * x[0]};
  };
  SurrogateDispatcher dispatcher(std::make_shared<FakeUq>(), sim, 0.5);
  for (int i = 0; i < 3; ++i) {
    (void)dispatcher.query(std::vector<double>{0.01});  // surrogate
    (void)dispatcher.query(std::vector<double>{2.0});   // simulation
  }
  const DispatcherStats& s = dispatcher.stats();
  EXPECT_EQ(s.surrogate_answers, 3u);
  EXPECT_EQ(s.simulation_answers, 3u);
  EXPECT_GT(s.surrogate_seconds, 0.0);
  EXPECT_GE(s.simulation_seconds, 3 * 0.005);  // three 5 ms sleeps
  EXPECT_GT(s.simulation_seconds, s.surrogate_seconds);
  // Per-answer seconds mirror the aggregate split.
  const Answer a = dispatcher.query(std::vector<double>{2.0});
  EXPECT_GE(a.seconds, 0.005);
}

TEST(Dispatcher, SpeedupMeterSeesLookupsAndTrainRuns) {
  auto sim = [](std::span<const double> x) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return std::vector<double>{2.0 * x[0]};
  };
  SurrogateDispatcher dispatcher(std::make_shared<FakeUq>(), sim, 0.5);
  obs::EffectiveSpeedupMeter meter;
  dispatcher.set_speedup_meter(&meter);
  for (int i = 0; i < 4; ++i) {
    (void)dispatcher.query(std::vector<double>{0.01});  // lookup
  }
  (void)dispatcher.query(std::vector<double>{2.0});  // train unit
  meter.record_learn(0.01);

  const auto snap = meter.snapshot();
  EXPECT_EQ(snap.n_lookup, 4u);
  EXPECT_EQ(snap.n_train, 1u);
  EXPECT_GT(snap.t_lookup(), 0.0);
  EXPECT_GE(snap.t_train(), 0.002);

  // The live S must agree with the offline Section III-D formula priced
  // with the meter's own per-unit times — same equation, same inputs.
  SpeedupTimes times;
  times.t_seq = snap.t_seq();
  times.t_train = snap.t_train();
  times.t_learn = snap.t_learn();
  times.t_lookup = snap.t_lookup();
  const double offline =
      effective_speedup(times, snap.n_lookup, snap.n_train);
  EXPECT_NEAR(snap.speedup(), offline, 1e-9 * offline);

  // Detaching stops accounting.
  dispatcher.set_speedup_meter(nullptr);
  (void)dispatcher.query(std::vector<double>{0.01});
  EXPECT_EQ(meter.snapshot().n_lookup, 4u);
}

TEST(Dispatcher, EnableMetricsPublishesCountersAndGauges) {
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  auto sim = [](std::span<const double> x) {
    return std::vector<double>{2.0 * x[0]};
  };
  SurrogateDispatcher dispatcher(std::make_shared<FakeUq>(), sim, 0.5);
  obs::MetricsRegistry registry;  // private registry keeps the test hermetic
  dispatcher.enable_metrics(registry, "disp_test");
  (void)dispatcher.query(std::vector<double>{0.01});  // surrogate
  (void)dispatcher.query(std::vector<double>{2.0});   // simulation
  obs::set_metrics_enabled(was_enabled);

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(counter_in(snap, "disp_test.surrogate_answers"), 1u);
  EXPECT_EQ(counter_in(snap, "disp_test.simulation_answers"), 1u);
  EXPECT_EQ(registry.histogram("disp_test.surrogate_seconds").count(), 1u);
  EXPECT_EQ(registry.histogram("disp_test.simulation_seconds").count(), 1u);
  EXPECT_DOUBLE_EQ(gauge_in(snap, "disp_test.surrogate_fraction").value(), 0.5);
}

TEST(Dispatcher, ReplaceSurrogateValidatesShape) {
  auto sim = [](std::span<const double> x) {
    return std::vector<double>{x[0]};
  };
  SurrogateDispatcher dispatcher(std::make_shared<FakeUq>(), sim, 0.5);
  class WrongShape final : public uq::UqModel {
   public:
    uq::Prediction predict(std::span<const double>) override { return {{0}, {0}}; }
    std::size_t input_dim() const override { return 7; }
    std::size_t output_dim() const override { return 1; }
  };
  EXPECT_THROW(dispatcher.replace_surrogate(std::make_shared<WrongShape>()),
               std::invalid_argument);
  dispatcher.replace_surrogate(std::make_shared<FakeUq>());  // same shape ok
}

TEST(AdaptiveLoop, UncertaintyShrinksAndConverges) {
  // Simulation: smooth 1-D function; loop must converge well before the
  // round cap and its uncertainty trace must decrease.
  const data::ParamSpace space({{"x", -1.0, 1.0, false}});
  const SimulationFn sim = [](std::span<const double> x) {
    return std::vector<double>{std::sin(2.0 * x[0])};
  };
  AdaptiveLoopConfig cfg;
  cfg.initial_samples = 24;
  cfg.samples_per_round = 12;
  cfg.max_rounds = 6;
  cfg.uncertainty_threshold = 0.08;
  cfg.candidate_pool = 100;
  cfg.hidden = {24, 24};
  cfg.dropout_rate = 0.08;
  cfg.mc_passes = 16;
  cfg.train.epochs = 120;
  cfg.train.batch_size = 16;
  const AdaptiveLoopResult result = run_adaptive_loop(space, sim, 1, cfg);
  ASSERT_FALSE(result.rounds.empty());
  EXPECT_EQ(result.corpus.size(), result.simulations_run);
  EXPECT_GE(result.simulations_run, cfg.initial_samples);
  // Later rounds should not be (much) more uncertain than round 0.
  EXPECT_LE(result.rounds.back().mean_uncertainty,
            result.rounds.front().mean_uncertainty + 0.05);
  ASSERT_TRUE(result.surrogate != nullptr);
  // Surrogate accuracy sanity: prediction near truth at a probe point.
  const auto pred = result.surrogate->predict_mean_only(std::vector<double>{0.25});
  EXPECT_NEAR(pred[0], std::sin(0.5), 0.25);
}

TEST(AdaptiveLoop, ValidatesConfig) {
  const data::ParamSpace space({{"x", 0.0, 1.0, false}});
  const SimulationFn sim = [](std::span<const double>) {
    return std::vector<double>{0.0};
  };
  AdaptiveLoopConfig cfg;
  cfg.initial_samples = 0;
  EXPECT_THROW(run_adaptive_loop(space, sim, 1, cfg), std::invalid_argument);
}

TEST(MlControl, CampaignFindsBowlMinimum) {
  const data::ParamSpace space(
      {{"x", -1.0, 1.0, false}, {"y", -1.0, 1.0, false}});
  std::size_t sims = 0;
  const SimulationFn sim = [&](std::span<const double> x) {
    ++sims;
    // "Simulation output": the two coordinates shifted.
    return std::vector<double>{x[0] - 0.4, x[1] + 0.3};
  };
  const OutputObjective objective = [](std::span<const double> out) {
    return out[0] * out[0] + out[1] * out[1];
  };
  CampaignConfig cfg;
  cfg.simulation_budget = 24;
  cfg.warmup = 8;
  cfg.pool = 200;
  cfg.train.epochs = 80;
  cfg.train.batch_size = 8;
  const CampaignResult ml = run_ml_campaign(space, sim, 2, objective, cfg);
  EXPECT_EQ(ml.simulations_run, 24u);
  EXPECT_EQ(sims, 24u);
  EXPECT_EQ(ml.trace.size(), 24u);
  EXPECT_LT(ml.best_objective, 0.05);
  EXPECT_NEAR(ml.best_input[0], 0.4, 0.3);
  EXPECT_NEAR(ml.best_input[1], -0.3, 0.3);
  // Trace is monotone non-increasing.
  for (std::size_t i = 1; i < ml.trace.size(); ++i) {
    EXPECT_LE(ml.trace[i], ml.trace[i - 1]);
  }
}

TEST(MlControl, MlBeatsDirectOnAverage) {
  const data::ParamSpace space(
      {{"x", -1.0, 1.0, false}, {"y", -1.0, 1.0, false}});
  const SimulationFn sim = [](std::span<const double> x) {
    return std::vector<double>{x[0] - 0.37, x[1] + 0.22};
  };
  const OutputObjective objective = [](std::span<const double> out) {
    return out[0] * out[0] + out[1] * out[1];
  };
  double ml_total = 0.0, direct_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    CampaignConfig cfg;
    cfg.simulation_budget = 20;
    cfg.warmup = 7;
    cfg.pool = 150;
    cfg.train.epochs = 60;
    cfg.seed = seed;
    ml_total += run_ml_campaign(space, sim, 2, objective, cfg).best_objective;
    direct_total +=
        run_direct_campaign(space, sim, 2, objective, cfg).best_objective;
  }
  EXPECT_LT(ml_total, direct_total);
}

TEST(NetworkProblem, GradientMatchesDirectBackprop) {
  Rng rng(30);
  nn::MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden = {5};
  cfg.output_dim = 1;
  cfg.activation = nn::Activation::kTanh;
  nn::Network net = nn::make_mlp(cfg, rng);

  data::Dataset ds(2, 1);
  for (int i = 0; i < 20; ++i) {
    const double in[2] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const double tg[1] = {in[0] * 0.5 - in[1]};
    ds.add(std::span<const double>{in, 2}, std::span<const double>{tg, 1});
  }
  NetworkSgdProblem problem(net.clone(), ds);
  EXPECT_EQ(problem.dim(), net.parameter_count());
  EXPECT_EQ(problem.sample_count(), 20u);

  const std::vector<double> w = problem.initial_weights();
  std::vector<std::size_t> batch{0, 3, 7};
  std::vector<double> grad(problem.dim());
  const double loss_value = problem.loss_and_grad(w, batch, grad);
  EXPECT_GT(loss_value, 0.0);

  // Finite-difference spot check of a few coordinates.
  const double eps = 1e-6;
  for (std::size_t j : {0ul, 5ul, grad.size() - 1}) {
    std::vector<double> wp = w, wm = w, scratch(grad.size());
    wp[j] += eps;
    wm[j] -= eps;
    const double up = problem.loss_and_grad(wp, batch, scratch);
    const double down = problem.loss_and_grad(wm, batch, scratch);
    EXPECT_NEAR(grad[j], (up - down) / (2 * eps), 1e-5);
  }
}

TEST(NetworkProblem, TrainsUnderAllreduceEngine) {
  Rng rng(31);
  nn::MlpConfig cfg;
  cfg.input_dim = 1;
  cfg.hidden = {8};
  cfg.output_dim = 1;
  cfg.activation = nn::Activation::kTanh;
  nn::Network net = nn::make_mlp(cfg, rng);
  data::Dataset ds(1, 1);
  for (int i = 0; i < 64; ++i) {
    const double in[1] = {rng.uniform(-1, 1)};
    const double tg[1] = {0.7 * in[0]};
    ds.add(std::span<const double>{in, 1}, std::span<const double>{tg, 1});
  }
  NetworkSgdProblem problem(std::move(net), ds);
  runtime::SyncRunConfig sync;
  sync.model = runtime::SyncModel::kAllreduce;
  sync.workers = 2;
  sync.epochs = 6;
  sync.steps_per_epoch = 80;
  sync.batch_size = 8;
  sync.learning_rate = 0.1;
  const runtime::SyncRunResult result = runtime::run_parallel_sgd(problem, sync);
  EXPECT_LT(result.loss_per_epoch.back(), result.loss_per_epoch.front());
}

// FakeUq with call counters and a poison switch, for the serving tests:
// uncertainty = |x|, so the 0.5-threshold gate accepts small inputs.
class CountingUq final : public uq::UqModel {
 public:
  uq::Prediction predict(std::span<const double> input) override {
    ++predict_calls;
    if (poisoned) return {{std::nan("")}, {0.0}};
    return {{2.0 * input[0]}, {std::abs(input[0])}};
  }
  std::vector<uq::Prediction> predict_batch(
      const tensor::Matrix& inputs) override {
    ++batch_calls;
    std::vector<uq::Prediction> out;
    out.reserve(inputs.rows());
    for (std::size_t r = 0; r < inputs.rows(); ++r) {
      const double x = inputs(r, 0);
      if (poisoned) {
        out.push_back({{std::nan("")}, {0.0}});
      } else {
        out.push_back({{2.0 * x}, {std::abs(x)}});
      }
    }
    return out;
  }
  std::size_t input_dim() const override { return 1; }
  std::size_t output_dim() const override { return 1; }

  std::size_t predict_calls = 0;
  std::size_t batch_calls = 0;
  bool poisoned = false;
};

SimulationFn identity_sim() {
  return [](std::span<const double> x) { return std::vector<double>{x[0]}; };
}

TEST(DispatcherCache, RepeatQueriesHitWithoutAForwardPass) {
  auto model = std::make_shared<CountingUq>();
  SurrogateDispatcher dispatcher(model, identity_sim(), 0.5);
  dispatcher.enable_lookup_cache(serve::LookupCacheConfig{});

  const Answer first = dispatcher.query(std::vector<double>{0.2});
  EXPECT_EQ(first.source, AnswerSource::kSurrogate);
  EXPECT_FALSE(first.from_cache);
  EXPECT_EQ(model->batch_calls, 1u);  // a query is a one-row batch
  EXPECT_EQ(model->predict_calls, 0u);

  const Answer second = dispatcher.query(std::vector<double>{0.2});
  EXPECT_EQ(second.source, AnswerSource::kSurrogate);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.values, first.values);
  EXPECT_DOUBLE_EQ(second.uncertainty, first.uncertainty);
  EXPECT_EQ(model->batch_calls, 1u);  // no second forward

  EXPECT_EQ(dispatcher.stats().surrogate_answers, 2u);
  EXPECT_EQ(dispatcher.stats().cache_hits, 1u);
  ASSERT_NE(dispatcher.lookup_cache(), nullptr);
  EXPECT_EQ(dispatcher.lookup_cache()->stats().hits, 1u);
}

TEST(DispatcherCache, RejectedAnswersAreNeverCached) {
  auto model = std::make_shared<CountingUq>();
  SurrogateDispatcher dispatcher(model, identity_sim(), 0.5);
  dispatcher.enable_lookup_cache(serve::LookupCacheConfig{});

  // |2.0| > threshold: fallback; the gate never accepted, so no entry.
  EXPECT_EQ(dispatcher.query(std::vector<double>{2.0}).source,
            AnswerSource::kSimulation);
  EXPECT_EQ(dispatcher.lookup_cache()->size(), 0u);
  EXPECT_EQ(dispatcher.query(std::vector<double>{2.0}).source,
            AnswerSource::kSimulation);
  EXPECT_EQ(dispatcher.stats().cache_hits, 0u);
}

TEST(DispatcherCache, TighteningTheGateInvalidatesLooserHits) {
  auto model = std::make_shared<CountingUq>();
  SurrogateDispatcher dispatcher(model, identity_sim(), 0.5);
  dispatcher.enable_lookup_cache(serve::LookupCacheConfig{});

  // Accepted at threshold 0.5 with uncertainty 0.4 and cached.
  EXPECT_EQ(dispatcher.query(std::vector<double>{0.4}).source,
            AnswerSource::kSurrogate);
  dispatcher.set_threshold(0.3);
  // The cached answer's 0.4 no longer passes the *current* gate: the hit
  // is discarded, the fresh forward also fails the gate -> simulation.
  const Answer again = dispatcher.query(std::vector<double>{0.4});
  EXPECT_EQ(again.source, AnswerSource::kSimulation);
  EXPECT_FALSE(again.from_cache);
  EXPECT_EQ(dispatcher.stats().cache_hits, 0u);
}

TEST(DispatcherCache, ReplacingTheSurrogateClearsTheCache) {
  auto model = std::make_shared<CountingUq>();
  SurrogateDispatcher dispatcher(model, identity_sim(), 0.5);
  dispatcher.enable_lookup_cache(serve::LookupCacheConfig{});

  (void)dispatcher.query(std::vector<double>{0.2});
  ASSERT_EQ(dispatcher.lookup_cache()->size(), 1u);
  dispatcher.replace_surrogate(std::make_shared<CountingUq>());
  EXPECT_EQ(dispatcher.lookup_cache()->size(), 0u);
}

TEST(DispatcherCache, HitsServeEvenWhileTheBreakerIsOpen) {
  // A cached answer was validated at insert time, so it stays servable
  // when the live surrogate path is tripped to simulation-only mode.
  auto model = std::make_shared<CountingUq>();
  SurrogateDispatcher dispatcher(model, identity_sim(), 0.5);
  dispatcher.enable_lookup_cache(serve::LookupCacheConfig{});
  CircuitBreakerConfig breaker;
  breaker.failure_threshold = 2;
  breaker.cooldown_calls = 100;
  dispatcher.enable_circuit_breaker(breaker);

  (void)dispatcher.query(std::vector<double>{0.2});  // cached
  model->poisoned = true;
  (void)dispatcher.query(std::vector<double>{0.3});  // failure 1
  (void)dispatcher.query(std::vector<double>{0.3});  // failure 2 -> open
  ASSERT_EQ(dispatcher.circuit_breaker()->state(), BreakerState::kOpen);

  const Answer hit = dispatcher.query(std::vector<double>{0.2});
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(hit.source, AnswerSource::kSurrogate);
  // An uncached input under an open breaker still short-circuits.
  EXPECT_EQ(dispatcher.query(std::vector<double>{0.25}).source,
            AnswerSource::kSimulation);
}

TEST(DispatcherBatch, MatchesQuerySemanticsRowByRow) {
  auto model = std::make_shared<CountingUq>();
  std::size_t sim_calls = 0;
  auto sim = [&sim_calls](std::span<const double> x) {
    ++sim_calls;
    return std::vector<double>{x[0] * x[0]};
  };
  SurrogateDispatcher dispatcher(model, sim, 0.5);
  obs::EffectiveSpeedupMeter meter;
  dispatcher.set_speedup_meter(&meter);

  tensor::Matrix inputs(3, 1);
  inputs(0, 0) = 0.1;  // accepted
  inputs(1, 0) = 2.0;  // too uncertain -> simulation
  inputs(2, 0) = 0.3;  // accepted
  const std::vector<Answer> answers = dispatcher.query_batch(inputs);

  ASSERT_EQ(answers.size(), 3u);
  EXPECT_EQ(answers[0].source, AnswerSource::kSurrogate);
  EXPECT_DOUBLE_EQ(answers[0].values[0], 0.2);
  EXPECT_EQ(answers[1].source, AnswerSource::kSimulation);
  EXPECT_DOUBLE_EQ(answers[1].values[0], 4.0);
  EXPECT_EQ(answers[2].source, AnswerSource::kSurrogate);
  EXPECT_DOUBLE_EQ(answers[2].values[0], 0.6);

  EXPECT_EQ(model->batch_calls, 1u);     // one shared forward
  EXPECT_EQ(model->predict_calls, 0u);   // never the row-wise path
  EXPECT_EQ(sim_calls, 1u);
  EXPECT_EQ(dispatcher.stats().surrogate_answers, 2u);
  EXPECT_EQ(dispatcher.stats().simulation_answers, 1u);
  EXPECT_EQ(dispatcher.training_buffer().size(), 1u);  // no run is wasted
  EXPECT_EQ(meter.snapshot().n_lookup, 2u);
  EXPECT_EQ(meter.snapshot().n_train, 1u);
  for (const Answer& answer : answers) EXPECT_GT(answer.seconds, 0.0);
}

TEST(DispatcherBatch, CachedRowsSkipTheSharedForward) {
  auto model = std::make_shared<CountingUq>();
  SurrogateDispatcher dispatcher(model, identity_sim(), 0.5);
  dispatcher.enable_lookup_cache(serve::LookupCacheConfig{});

  tensor::Matrix inputs(3, 1);
  inputs(0, 0) = 0.1;
  inputs(1, 0) = 0.2;
  inputs(2, 0) = 0.3;
  (void)dispatcher.query_batch(inputs);
  ASSERT_EQ(model->batch_calls, 1u);

  const std::vector<Answer> replay = dispatcher.query_batch(inputs);
  EXPECT_EQ(model->batch_calls, 1u);  // fully served from the cache
  for (const Answer& answer : replay) {
    EXPECT_TRUE(answer.from_cache);
    EXPECT_EQ(answer.source, AnswerSource::kSurrogate);
  }
  EXPECT_EQ(dispatcher.stats().cache_hits, 3u);
}

TEST(DispatcherBatch, OpenBreakerShortCircuitsTheWholeBatch) {
  auto model = std::make_shared<CountingUq>();
  SurrogateDispatcher dispatcher(model, identity_sim(), 0.5);
  CircuitBreakerConfig breaker;
  breaker.failure_threshold = 1;
  breaker.cooldown_calls = 100;
  dispatcher.enable_circuit_breaker(breaker);

  model->poisoned = true;
  (void)dispatcher.query(std::vector<double>{0.1});  // trips the breaker
  model->poisoned = false;
  ASSERT_EQ(dispatcher.circuit_breaker()->state(), BreakerState::kOpen);

  tensor::Matrix inputs(4, 1, 0.1);
  const std::size_t before = dispatcher.stats().breaker_short_circuits;
  const std::size_t forwards_before = model->batch_calls;  // the trip query
  const std::vector<Answer> answers = dispatcher.query_batch(inputs);
  for (const Answer& answer : answers) {
    EXPECT_EQ(answer.source, AnswerSource::kSimulation);
  }
  EXPECT_EQ(model->batch_calls, forwards_before);
  EXPECT_EQ(dispatcher.stats().breaker_short_circuits, before + 4);
}

TEST(DispatcherBatch, ValidatesShapeAndHandlesEmptyInput) {
  auto model = std::make_shared<CountingUq>();
  SurrogateDispatcher dispatcher(model, identity_sim(), 0.5);
  tensor::Matrix wrong(2, 3, 0.0);
  EXPECT_THROW((void)dispatcher.query_batch(wrong), std::invalid_argument);
  EXPECT_TRUE(dispatcher.query_batch(tensor::Matrix(0, 1)).empty());
}

// ---------------------------------------------------------------------------
// Health monitoring on the dispatcher

/// 1-D reference inputs for the drift detector, uniform on [0, 1).
tensor::Matrix health_reference(std::size_t rows) {
  tensor::Matrix m(rows, 1);
  for (std::size_t r = 0; r < rows; ++r) {
    m(r, 0) = static_cast<double>(r) / static_cast<double>(rows);
  }
  return m;
}

/// Health config that never drift-evaluates during short tests and shadows
/// every accepted answer.
obs::SurrogateHealthConfig every_answer_shadowed() {
  obs::SurrogateHealthConfig cfg;
  cfg.drift.window = 100000;
  cfg.shadow_fraction = 1.0;
  cfg.min_shadow_samples = 2;
  cfg.residual_window = 8;
  return cfg;
}

TEST(DispatcherHealth, ShadowSamplingFeedsMonitorMeterAndBuffer) {
  auto model = std::make_shared<CountingUq>();
  std::size_t sim_calls = 0;
  auto sim = [&sim_calls](std::span<const double> x) {
    ++sim_calls;
    return std::vector<double>{2.0 * x[0]};  // matches the model exactly
  };
  SurrogateDispatcher dispatcher(model, sim, 0.5);
  dispatcher.enable_health_monitoring(every_answer_shadowed(),
                                      health_reference(64));
  obs::EffectiveSpeedupMeter meter;
  dispatcher.set_speedup_meter(&meter);

  for (int i = 0; i < 4; ++i) {
    const Answer a = dispatcher.query(std::vector<double>{0.1});
    EXPECT_EQ(a.source, AnswerSource::kSurrogate);
  }
  // Every accepted answer was re-run through the simulation...
  EXPECT_EQ(sim_calls, 4u);
  EXPECT_EQ(dispatcher.stats().shadow_samples, 4u);
  EXPECT_GT(dispatcher.stats().shadow_seconds, 0.0);
  ASSERT_NE(dispatcher.health_monitor(), nullptr);
  EXPECT_EQ(dispatcher.health_monitor()->report().shadow_samples, 4u);
  // ...billed as training-path work, never as lookup time...
  EXPECT_EQ(meter.snapshot().n_lookup, 4u);
  EXPECT_EQ(meter.snapshot().n_train, 4u);
  // ...and the ground truth lands in the training buffer for reuse.
  EXPECT_EQ(dispatcher.training_buffer().size(), 4u);
  // A perfect surrogate stays healthy.
  EXPECT_EQ(dispatcher.health_monitor()->state(),
            obs::HealthState::kHealthy);
}

TEST(DispatcherHealth, RejectsReferenceWidthMismatch) {
  auto model = std::make_shared<CountingUq>();
  SurrogateDispatcher dispatcher(model, identity_sim(), 0.5);
  EXPECT_THROW(dispatcher.enable_health_monitoring(every_answer_shadowed(),
                                                   tensor::Matrix(8, 3, 0.0)),
               std::invalid_argument);
}

TEST(DispatcherHealth, UntrustedMonitorTripsTheBreaker) {
  auto model = std::make_shared<CountingUq>();
  SurrogateDispatcher dispatcher(model, identity_sim(), 0.5);
  dispatcher.enable_circuit_breaker({});
  dispatcher.enable_health_monitoring(every_answer_shadowed(),
                                      health_reference(64));
  obs::SurrogateHealthMonitor* monitor = dispatcher.health_monitor();
  ASSERT_NE(monitor, nullptr);

  // Force UNTRUSTED through the residual alarm.
  monitor->set_residual_baseline(0.01);
  for (int i = 0; i < 4; ++i) {
    const double mean[1] = {0.0};
    const double stddev[1] = {0.1};
    const double truth[1] = {1.0};
    monitor->record_shadow(mean, stddev, truth);
  }
  ASSERT_EQ(monitor->state(), obs::HealthState::kUntrusted);

  // The next query syncs the breaker and short-circuits to the simulation.
  const Answer a = dispatcher.query(std::vector<double>{0.1});
  EXPECT_EQ(a.source, AnswerSource::kSimulation);
  ASSERT_NE(dispatcher.circuit_breaker(), nullptr);
  EXPECT_EQ(dispatcher.circuit_breaker()->state(), BreakerState::kOpen);
  // And it stays open: health re-trips on every query, so no half-open
  // probe lets the untrusted surrogate answer.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(dispatcher.query(std::vector<double>{0.1}).source,
              AnswerSource::kSimulation);
  }
  EXPECT_EQ(dispatcher.circuit_breaker()->state(), BreakerState::kOpen);
}

TEST(DispatcherHealth, RetrainAndReplaceRestoreTheSurrogatePath) {
  auto model = std::make_shared<CountingUq>();
  SurrogateDispatcher dispatcher(model, identity_sim(), 0.5);
  dispatcher.enable_circuit_breaker({});
  dispatcher.enable_health_monitoring(every_answer_shadowed(),
                                      health_reference(64));
  obs::SurrogateHealthMonitor* monitor = dispatcher.health_monitor();
  monitor->set_residual_baseline(0.01);
  for (int i = 0; i < 4; ++i) {
    const double mean[1] = {0.0};
    const double stddev[1] = {0.1};
    const double truth[1] = {1.0};
    monitor->record_shadow(mean, stddev, truth);
  }
  (void)dispatcher.query(std::vector<double>{0.1});  // trips the breaker
  ASSERT_EQ(dispatcher.circuit_breaker()->state(), BreakerState::kOpen);

  // The retrain path: monitor rebased, surrogate replaced; the breaker
  // resets so the fresh model starts trusted instead of inheriting the
  // distrust of the one it replaced.
  monitor->on_retrained(health_reference(64));
  dispatcher.replace_surrogate(std::make_shared<CountingUq>());
  EXPECT_EQ(dispatcher.circuit_breaker()->state(), BreakerState::kClosed);
  EXPECT_EQ(dispatcher.query(std::vector<double>{0.1}).source,
            AnswerSource::kSurrogate);
  EXPECT_EQ(monitor->state(), obs::HealthState::kHealthy);
}

TEST(CircuitBreaker, TripAndResetAreOutOfBandControls) {
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  config.cooldown_calls = 4;
  CircuitBreaker breaker(config);
  EXPECT_TRUE(breaker.allow());
  breaker.trip();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_FALSE(breaker.allow());
  // Re-tripping while open restarts the cooldown without recounting: even
  // after the original 4-call cooldown would have half-opened, a refresh
  // per call keeps every allow() denied.
  for (int i = 0; i < 10; ++i) {
    breaker.trip();
    EXPECT_FALSE(breaker.allow());
  }
  EXPECT_EQ(breaker.trips(), 1u);
  breaker.reset();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
  EXPECT_TRUE(breaker.allow());
  EXPECT_EQ(breaker.trips(), 1u);  // history preserved across reset
}

TEST(AdaptiveLoop, NotifiesHealthMonitorOnRetrain) {
  obs::SurrogateHealthConfig cfg = every_answer_shadowed();
  obs::SurrogateHealthMonitor monitor(cfg, health_reference(64));
  monitor.set_residual_baseline(0.01);
  for (int i = 0; i < 4; ++i) {
    const double mean[1] = {0.0};
    const double stddev[1] = {0.1};
    const double truth[1] = {1.0};
    monitor.record_shadow(mean, stddev, truth);
  }
  ASSERT_TRUE(monitor.retrain_requested());

  const data::ParamSpace space({{"x", 0.0, 1.0, false}});
  auto sim = [](std::span<const double> x) {
    return std::vector<double>{std::sin(x[0])};
  };
  AdaptiveLoopConfig loop;
  loop.initial_samples = 12;
  loop.samples_per_round = 4;
  loop.max_rounds = 1;
  loop.train.epochs = 10;
  loop.train.batch_size = 4;
  loop.health_monitor = &monitor;
  const AdaptiveLoopResult result = run_adaptive_loop(space, sim, 1, loop);
  EXPECT_GE(result.corpus.size(), 12u);
  EXPECT_EQ(monitor.state(), obs::HealthState::kHealthy);
  EXPECT_FALSE(monitor.retrain_requested());
  EXPECT_EQ(monitor.transitions().back().reason, "retrained");
}

/// Constant-answer surrogate with a controllable uncertainty, so tests can
/// distinguish which model produced an answer (by value) and steer the
/// gate (by sigma).
class TaggedUq final : public uq::UqModel {
 public:
  TaggedUq(double value, double sigma) : value_(value), sigma_(sigma) {}
  uq::Prediction predict(std::span<const double>) override {
    return {{value_}, {sigma_}};
  }
  std::size_t input_dim() const override { return 1; }
  std::size_t output_dim() const override { return 1; }

 private:
  double value_;
  double sigma_;
};

// ---------------------------------------------------------------------------
// Overload robustness (DESIGN.md section 14): per-request deadlines and the
// graceful-degradation ladder, with honest S_eff attribution throughout.
// ---------------------------------------------------------------------------

// Ladder sized so two record() calls drive exactly one deterministic
// evaluation (window max as the quantile).
serve::DegradationConfig tiny_ladder() {
  serve::DegradationConfig config;
  config.window = 2;
  config.quantile = 1.0;
  config.engage = {1e-3, 2e-3, 3e-3};
  config.release_fraction = 0.5;
  config.release_windows = 2;
  return config;
}

void feed_window(serve::DegradationLadder& ladder, double seconds) {
  ladder.record(seconds);
  ladder.record(seconds);
}

TEST(DispatcherOverload, ExpiredDeadlineIsShedBeforeAnyModelWork) {
  auto model = std::make_shared<CountingUq>();
  std::size_t sim_calls = 0;
  SurrogateDispatcher dispatcher(
      model,
      [&](std::span<const double> x) {
        ++sim_calls;
        return std::vector<double>{x[0]};
      },
      0.5);
  obs::EffectiveSpeedupMeter meter;
  dispatcher.set_speedup_meter(&meter);

  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  const Answer shed = dispatcher.query(std::vector<double>{0.1}, past);
  EXPECT_EQ(shed.source, AnswerSource::kShed);
  EXPECT_EQ(shed.shed_reason, serve::ShedReason::kDeadline);
  EXPECT_TRUE(shed.values.empty());
  // "Before any model work" means exactly that: no forward, no simulation.
  EXPECT_EQ(model->predict_calls + model->batch_calls, 0u);
  EXPECT_EQ(sim_calls, 0u);

  // Shed is not an answer: it is outside total() and outside the meter —
  // counting refusals as lookups would inflate S_eff.
  EXPECT_EQ(dispatcher.stats().shed_deadline, 1u);
  EXPECT_EQ(dispatcher.stats().total(), 0u);
  EXPECT_EQ(dispatcher.stats().shed_total(), 1u);
  EXPECT_EQ(meter.snapshot().n_lookup, 0u);
  EXPECT_EQ(meter.snapshot().n_train, 0u);

  // A live deadline serves normally and IS metered.
  const auto future =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  const Answer ok = dispatcher.query(std::vector<double>{0.1}, future);
  EXPECT_EQ(ok.source, AnswerSource::kSurrogate);
  EXPECT_EQ(meter.snapshot().n_lookup, 1u);
}

TEST(DispatcherOverload, BatchDeadlinesExcludeDeadRowsFromTheSharedForward) {
  /// Counts the rows (not calls) its batched forward actually sees.
  class RowCountingUq final : public uq::UqModel {
   public:
    uq::Prediction predict(std::span<const double> input) override {
      ++rows_seen;
      return {{2.0 * input[0]}, {std::abs(input[0])}};
    }
    std::vector<uq::Prediction> predict_batch(
        const tensor::Matrix& inputs) override {
      rows_seen += inputs.rows();
      std::vector<uq::Prediction> out;
      for (std::size_t r = 0; r < inputs.rows(); ++r) {
        out.push_back({{2.0 * inputs(r, 0)}, {std::abs(inputs(r, 0))}});
      }
      return out;
    }
    std::size_t input_dim() const override { return 1; }
    std::size_t output_dim() const override { return 1; }
    std::size_t rows_seen = 0;
  };
  auto model = std::make_shared<RowCountingUq>();
  SurrogateDispatcher dispatcher(model, identity_sim(), 0.5);

  tensor::Matrix inputs(3, 1);
  inputs(0, 0) = 0.1;
  inputs(1, 0) = 0.2;
  inputs(2, 0) = 0.3;
  const auto now = std::chrono::steady_clock::now();
  const std::vector<serve::Deadline> deadlines{
      std::nullopt, now - std::chrono::milliseconds(1),  // row 1 is dead
      now + std::chrono::seconds(5)};

  const auto answers = dispatcher.query_batch(inputs, deadlines);
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_EQ(answers[0].source, AnswerSource::kSurrogate);
  EXPECT_DOUBLE_EQ(answers[0].values[0], 0.2);
  EXPECT_EQ(answers[1].source, AnswerSource::kShed);
  EXPECT_EQ(answers[1].shed_reason, serve::ShedReason::kDeadline);
  EXPECT_EQ(answers[2].source, AnswerSource::kSurrogate);
  // The dead row never rode the GEMM: only two rows reached the model.
  EXPECT_EQ(model->rows_seen, 2u);
  EXPECT_EQ(dispatcher.stats().shed_deadline, 1u);

  EXPECT_THROW(
      (void)dispatcher.query_batch(
          inputs, std::vector<serve::Deadline>{std::nullopt, std::nullopt}),
      std::invalid_argument);
}

TEST(DispatcherOverload, LadderShedsAllThenServesOnlyCacheHits) {
  auto model = std::make_shared<CountingUq>();
  auto ladder = std::make_shared<serve::DegradationLadder>(tiny_ladder());
  SurrogateDispatcher dispatcher(model, identity_sim(), 0.5);
  dispatcher.enable_lookup_cache(serve::LookupCacheConfig{});
  dispatcher.attach_degradation(ladder);

  // Prime the cache at kFull.
  const std::vector<double> warm{0.1};
  ASSERT_EQ(dispatcher.query(warm).source, AnswerSource::kSurrogate);
  ASSERT_EQ(model->batch_calls, 1u);

  // Severe pressure: straight to kShedAll — everything is refused, and the
  // model is never consulted for a refused query.
  feed_window(*ladder, 1.0);
  ASSERT_EQ(ladder->level(), serve::ServiceLevel::kShedAll);
  ASSERT_EQ(dispatcher.degradation_ladder(), ladder.get());
  const Answer refused = dispatcher.query(warm);
  EXPECT_EQ(refused.source, AnswerSource::kShed);
  EXPECT_EQ(refused.shed_reason, serve::ShedReason::kOverload);
  EXPECT_EQ(model->batch_calls, 1u);
  EXPECT_EQ(dispatcher.stats().shed_overload, 1u);

  // Pressure eases one notch: kCacheOnly serves remembered answers as
  // honest lookups and sheds misses without a forward.
  feed_window(*ladder, 1.0e-3);
  feed_window(*ladder, 1.0e-3);
  ASSERT_EQ(ladder->level(), serve::ServiceLevel::kCacheOnly);
  const Answer hit = dispatcher.query(warm);
  EXPECT_EQ(hit.source, AnswerSource::kSurrogate);
  EXPECT_TRUE(hit.from_cache);
  const Answer miss = dispatcher.query(std::vector<double>{0.4});
  EXPECT_EQ(miss.source, AnswerSource::kShed);
  EXPECT_EQ(miss.shed_reason, serve::ShedReason::kOverload);
  EXPECT_EQ(model->batch_calls, 1u);  // still only the warming forward
}

TEST(DispatcherOverload, DegradedLevelServesDegradedTierWithoutFallback) {
  std::size_t sim_calls = 0;
  auto ladder = std::make_shared<serve::DegradationLadder>(tiny_ladder());
  SurrogateDispatcher dispatcher(
      std::make_shared<TaggedUq>(1.0, 0.1),
      [&](std::span<const double> x) {
        ++sim_calls;
        return std::vector<double>{x[0]};
      },
      0.5);
  dispatcher.enable_lookup_cache(serve::LookupCacheConfig{});
  obs::EffectiveSpeedupMeter meter;
  dispatcher.set_speedup_meter(&meter);
  dispatcher.attach_degradation(ladder);
  dispatcher.set_degraded_surrogate(std::make_shared<TaggedUq>(2.0, 0.2),
                                    0.2);

  feed_window(*ladder, 1.5e-3);
  ASSERT_EQ(ladder->level(), serve::ServiceLevel::kDegraded);

  // The degraded tier answers (by value: 2.0 is the degraded model),
  // flagged and counted — and honestly metered as a lookup, because it IS
  // one: a cheaper model really did answer.
  const Answer degraded = dispatcher.query(std::vector<double>{0.7});
  EXPECT_EQ(degraded.source, AnswerSource::kSurrogate);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_DOUBLE_EQ(degraded.values[0], 2.0);
  EXPECT_EQ(dispatcher.stats().degraded_answers, 1u);
  EXPECT_EQ(meter.snapshot().n_lookup, 1u);
  // Never cached: the lookup table stores full-fidelity answers only.
  EXPECT_EQ(dispatcher.lookup_cache()->size(), 0u);

  // Tighten the gate so the degraded tier's spread (0.2) is rejected: at a
  // degraded level that is a shed, NOT a simulation — running the most
  // expensive path under overload is the collapse the ladder prevents.
  dispatcher.set_threshold(0.1);
  const Answer rejected = dispatcher.query(std::vector<double>{0.7});
  EXPECT_EQ(rejected.source, AnswerSource::kShed);
  EXPECT_EQ(rejected.shed_reason, serve::ShedReason::kOverload);
  EXPECT_EQ(sim_calls, 0u);
  EXPECT_EQ(meter.snapshot().n_train, 0u);
}

TEST(DispatcherOverload, DegradedRegistrationValidatesAndPromotionClearsIt) {
  auto ladder = std::make_shared<serve::DegradationLadder>(tiny_ladder());
  SurrogateDispatcher dispatcher(std::make_shared<TaggedUq>(1.0, 0.1),
                                 identity_sim(), 0.5);
  dispatcher.attach_degradation(ladder);

  // Added error wider than the gate could never answer — refuse loudly.
  EXPECT_THROW(dispatcher.set_degraded_surrogate(
                   std::make_shared<TaggedUq>(2.0, 0.6), 0.6),
               std::invalid_argument);
  EXPECT_THROW(dispatcher.set_degraded_surrogate(
                   std::make_shared<TaggedUq>(2.0, 0.2), -1.0),
               std::invalid_argument);
  dispatcher.set_degraded_surrogate(std::make_shared<TaggedUq>(2.0, 0.2),
                                    0.2);

  feed_window(*ladder, 1.5e-3);
  ASSERT_EQ(ladder->level(), serve::ServiceLevel::kDegraded);
  EXPECT_DOUBLE_EQ(dispatcher.query(std::vector<double>{0.7}).values[0], 2.0);

  // A retrain promotion clears the registration: a degraded cut of a
  // retired model must not serve the new era.  Still at kDegraded, the
  // dispatcher falls back to the (new) full model, unflagged.
  dispatcher.replace_surrogate(std::make_shared<TaggedUq>(3.0, 0.1));
  const Answer after = dispatcher.query(std::vector<double>{0.7});
  EXPECT_DOUBLE_EQ(after.values[0], 3.0);
  EXPECT_FALSE(after.degraded);

  // nullptr deregisters without touching the gate.
  dispatcher.set_degraded_surrogate(nullptr, 0.0);
  EXPECT_DOUBLE_EQ(dispatcher.query(std::vector<double>{0.7}).values[0], 3.0);
}

// ---------------------------------------------------------------------------
// One request path: query() answers and books exactly like a one-row
// query_batch() on an identically configured dispatcher.
// ---------------------------------------------------------------------------

/// A dispatcher over a CountingUq with a meter and a metrics registry
/// attached, plus the ladder a scenario may arm.  Immovable, like the
/// dispatcher it owns.
struct DispatcherRig {
  DispatcherRig()
      : model(std::make_shared<CountingUq>()),
        dispatcher(
            model,
            [this](std::span<const double> x) {
              ++sim_calls;
              return std::vector<double>{x[0] * x[0]};
            },
            0.5) {
    dispatcher.set_speedup_meter(&meter);
    dispatcher.enable_metrics(registry);
  }

  std::shared_ptr<CountingUq> model;
  std::size_t sim_calls = 0;
  SurrogateDispatcher dispatcher;
  obs::EffectiveSpeedupMeter meter;
  obs::MetricsRegistry registry;
  std::shared_ptr<serve::DegradationLadder> ladder;
};

/// Everything a request may book, minus wall-clock seconds.
struct RigLedger {
  std::vector<std::size_t> counts;
  double mean_accepted_uncertainty = 0.0;
  std::map<std::string, std::uint64_t> metric_counts;

  bool operator==(const RigLedger&) const = default;
};

RigLedger ledger_of(const DispatcherRig& rig) {
  const DispatcherStats& s = rig.dispatcher.stats();
  const obs::EffectiveSpeedupMeter::Snapshot meter = rig.meter.snapshot();
  RigLedger ledger;
  ledger.counts = {s.surrogate_answers,
                   s.simulation_answers,
                   s.invalid_predictions,
                   s.breaker_short_circuits,
                   s.cache_hits,
                   s.shadow_samples,
                   s.shed_deadline,
                   s.shed_overload,
                   s.degraded_answers,
                   meter.n_lookup,
                   meter.n_train,
                   rig.sim_calls,
                   rig.model->predict_calls + rig.model->batch_calls,
                   rig.dispatcher.training_buffer().size()};
  ledger.mean_accepted_uncertainty = s.mean_accepted_uncertainty;
  const obs::MetricsSnapshot metrics = rig.registry.snapshot();
  for (const auto& counter : metrics.counters) {
    ledger.metric_counts[counter.name] = counter.value;
  }
  for (const auto& histogram : metrics.histograms) {
    ledger.metric_counts[histogram.name] = histogram.count;
  }
  if (const CircuitBreaker* breaker = rig.dispatcher.circuit_breaker()) {
    ledger.counts.push_back(static_cast<std::size_t>(breaker->state()));
  }
  return ledger;
}

void expect_same_ledger(const RigLedger& a, const RigLedger& b) {
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.mean_accepted_uncertainty, b.mean_accepted_uncertainty);
  EXPECT_EQ(a.metric_counts, b.metric_counts);
}

void arm_ladder(DispatcherRig& rig, double pressure_seconds) {
  rig.ladder = std::make_shared<serve::DegradationLadder>(tiny_ladder());
  rig.dispatcher.attach_degradation(rig.ladder);
  feed_window(*rig.ladder, pressure_seconds);
}

TEST(DispatcherBatch, QueryIsABatchOfOne) {
  struct Scenario {
    const char* name;
    std::function<void(DispatcherRig&)> arrange;
    double probe;
    /// Deadline relative to the probe: <0 expired, >0 live, 0 none.
    int deadline_ms = 0;
  };
  const auto open_breaker = [](DispatcherRig& rig, std::size_t threshold) {
    CircuitBreakerConfig breaker;
    breaker.failure_threshold = threshold;
    breaker.cooldown_calls = 100;
    rig.dispatcher.enable_circuit_breaker(breaker);
  };
  const auto cache_only = [](DispatcherRig& rig) {
    rig.dispatcher.enable_lookup_cache(serve::LookupCacheConfig{});
    (void)rig.dispatcher.query(std::vector<double>{0.1});
    arm_ladder(rig, 1.0);
    feed_window(*rig.ladder, 1.0e-3);
    feed_window(*rig.ladder, 1.0e-3);
    ASSERT_EQ(rig.ladder->level(), serve::ServiceLevel::kCacheOnly);
  };
  const auto degraded = [](DispatcherRig& rig) {
    arm_ladder(rig, 1.5e-3);
    rig.dispatcher.set_degraded_surrogate(std::make_shared<CountingUq>(), 0.2);
    ASSERT_EQ(rig.ladder->level(), serve::ServiceLevel::kDegraded);
  };
  const std::vector<Scenario> scenarios{
      {"cache hit",
       [](DispatcherRig& rig) {
         rig.dispatcher.enable_lookup_cache(serve::LookupCacheConfig{});
         (void)rig.dispatcher.query(std::vector<double>{0.2});
       },
       0.2},
      {"gate accept and cache insert",
       [](DispatcherRig& rig) {
         rig.dispatcher.enable_lookup_cache(serve::LookupCacheConfig{});
       },
       0.1, 5000},
      {"gate reject -> simulation", [](DispatcherRig&) {}, 2.0},
      {"invalid prediction feeds the breaker",
       [&](DispatcherRig& rig) {
         open_breaker(rig, 2);
         rig.model->poisoned = true;
       },
       0.1},
      {"open breaker short-circuits",
       [&](DispatcherRig& rig) {
         open_breaker(rig, 1);
         rig.model->poisoned = true;
         (void)rig.dispatcher.query(std::vector<double>{0.1});
         rig.model->poisoned = false;
         ASSERT_EQ(rig.dispatcher.circuit_breaker()->state(),
                   BreakerState::kOpen);
       },
       0.1},
      {"deadline shed on entry", [](DispatcherRig&) {}, 0.1, -1},
      {"ladder kShedAll",
       [](DispatcherRig& rig) {
         arm_ladder(rig, 1.0);
         ASSERT_EQ(rig.ladder->level(), serve::ServiceLevel::kShedAll);
       },
       0.1},
      {"ladder kCacheOnly hit", cache_only, 0.1},
      {"ladder kCacheOnly miss", cache_only, 0.4},
      {"ladder kDegraded accept", degraded, 0.1},
      {"ladder kDegraded reject", degraded, 0.7},
      {"shadow sample",
       [](DispatcherRig& rig) {
         rig.dispatcher.enable_health_monitoring(every_answer_shadowed(),
                                                 health_reference(64));
       },
       0.1},
  };

  for (const Scenario& scenario : scenarios) {
    SCOPED_TRACE(scenario.name);
    DispatcherRig single;
    DispatcherRig batch;
    scenario.arrange(single);
    scenario.arrange(batch);
    const RigLedger before = ledger_of(single);
    expect_same_ledger(before, ledger_of(batch));

    serve::Deadline deadline;
    if (scenario.deadline_ms != 0) {
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(scenario.deadline_ms);
    }
    const Answer one =
        single.dispatcher.query(std::vector<double>{scenario.probe}, deadline);
    const std::vector<Answer> rows = batch.dispatcher.query_batch(
        tensor::Matrix(1, 1, scenario.probe),
        std::vector<serve::Deadline>{deadline});
    ASSERT_EQ(rows.size(), 1u);
    const Answer& row = rows[0];

    EXPECT_EQ(one.source, row.source);
    EXPECT_EQ(one.values, row.values);
    EXPECT_EQ(one.uncertainty, row.uncertainty);
    EXPECT_EQ(one.from_cache, row.from_cache);
    EXPECT_EQ(one.degraded, row.degraded);
    EXPECT_EQ(one.shed_reason, row.shed_reason);
    const RigLedger after = ledger_of(single);
    EXPECT_NE(after, before);  // the probe booked something
    expect_same_ledger(after, ledger_of(batch));
  }
}

TEST(DispatcherBatch, QueryRejectsAWrongWidthInputBeforeAnyWork) {
  std::size_t sim_calls = 0;
  SurrogateDispatcher dispatcher(
      std::make_shared<FakeUq>(),
      [&](std::span<const double> x) {
        ++sim_calls;
        return std::vector<double>{x[0]};
      },
      0.5);
  dispatcher.enable_lookup_cache(serve::LookupCacheConfig{});
  obs::EffectiveSpeedupMeter meter;
  dispatcher.set_speedup_meter(&meter);

  // FakeUq reads only input[0], so nothing downstream notices the width:
  // 2.0 fails the gate (a width-blind dispatcher would run the simulation),
  // 0.1 passes it (and would be cached under a 2-wide key).
  EXPECT_THROW((void)dispatcher.query(std::vector<double>{2.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)dispatcher.query(std::vector<double>{0.1, 0.0}),
               std::invalid_argument);

  EXPECT_EQ(sim_calls, 0u);
  EXPECT_EQ(dispatcher.stats().total(), 0u);
  EXPECT_EQ(dispatcher.stats().shed_total(), 0u);
  EXPECT_EQ(dispatcher.stats().invalid_predictions, 0u);
  EXPECT_EQ(dispatcher.training_buffer().size(), 0u);
  EXPECT_EQ(dispatcher.lookup_cache()->size(), 0u);
  EXPECT_EQ(meter.snapshot().n_lookup, 0u);
  EXPECT_EQ(meter.snapshot().n_train, 0u);
}

// ---------------------------------------------------------------------------
// The lookup path per batch: served bits and batch booking

/// What a served ensemble answer is, computed the long way: each member's
/// layers run one infer() at a time (GEMM, bias and activation as
/// separate passes), the member outputs reduced with the ensemble's
/// mean/stddev formula, the gate score the largest stddev.
uq::Prediction layered_ensemble_row(std::vector<nn::Network>& members,
                                    std::span<const double> input) {
  const std::size_t out_dim = members.front().output_dim();
  std::vector<double> sum(out_dim, 0.0), sum_sq(out_dim, 0.0);
  for (nn::Network& member : members) {
    tensor::Matrix cur(1, input.size()), next;
    std::copy(input.begin(), input.end(), cur.data());
    for (std::size_t i = 0; i < member.layer_count(); ++i) {
      member.layer(i).infer(cur, next);
      std::swap(cur, next);
    }
    for (std::size_t k = 0; k < out_dim; ++k) {
      sum[k] += cur(0, k);
      sum_sq[k] += cur(0, k) * cur(0, k);
    }
  }
  const double n = static_cast<double>(members.size());
  uq::Prediction p;
  for (std::size_t k = 0; k < out_dim; ++k) {
    p.mean.push_back(sum[k] / n);
    const double var =
        std::max(0.0, (sum_sq[k] - n * p.mean[k] * p.mean[k]) / (n - 1.0));
    p.stddev.push_back(std::sqrt(var));
  }
  return p;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(DispatcherBatch, ServedAnswersEqualTheLayeredForwardBitForBit) {
  // A five-member 5 -> 32 -> 32 -> 3 tanh ensemble (the benchmark's served
  // shape) behind a cached dispatcher: every answer, fresh or replayed
  // from the cache, carries the layered path's mean and gate score bit for
  // bit, on kScalar and on kAvx2.
  for (const auto kernel :
       {tensor::GemmKernel::kScalar, tensor::GemmKernel::kAvx2}) {
    tensor::set_gemm_kernel_override(kernel);
    Rng rng(88);
    std::vector<nn::Network> members, reference;
    for (int m = 0; m < 5; ++m) {
      nn::MlpConfig cfg;
      cfg.input_dim = 5;
      cfg.hidden = {32, 32};
      cfg.output_dim = 3;
      cfg.activation = nn::Activation::kTanh;
      members.push_back(nn::make_mlp(cfg, rng));
      for (const nn::ParamView& view : members.back().parameters()) {
        for (double& v : view.values) v += rng.uniform(-0.05, 0.05);
      }
      members.back().set_training(false);
      reference.push_back(members.back().clone());
      reference.back().set_training(false);
    }
    SurrogateDispatcher dispatcher(
        std::make_shared<uq::DeepEnsemble>(std::move(members)),
        identity_sim(), 1e9);
    serve::LookupCacheConfig cache;
    cache.capacity = 1024;
    cache.resolution = 1e-9;
    dispatcher.enable_lookup_cache(cache);
    tensor::Matrix inputs(64, 5);
    for (int call = 0; call < 3; ++call) {
      // Calls 1 and 2 keep every other row, so half the batch replays
      // cached answers.
      for (std::size_t r = 0; r < inputs.rows(); ++r) {
        if (call == 0 || r % 2 == 1) {
          for (double& v : inputs.row(r)) v = rng.uniform(-2.0, 2.0);
        }
      }
      const std::vector<Answer> answers = dispatcher.query_batch(inputs);
      for (std::size_t r = 0; r < inputs.rows(); ++r) {
        const uq::Prediction want =
            layered_ensemble_row(reference, inputs.row(r));
        const double score = uq::uncertainty_score(want);
        ASSERT_EQ(answers[r].source, AnswerSource::kSurrogate);
        EXPECT_EQ(answers[r].from_cache, call > 0 && r % 2 == 0);
        EXPECT_TRUE(same_bits(answers[r].values, want.mean))
            << tensor::to_string(kernel) << " call " << call << " row " << r;
        EXPECT_TRUE(same_bits({&answers[r].uncertainty, 1}, {&score, 1}))
            << tensor::to_string(kernel) << " call " << call << " row " << r;
      }
    }
  }
  tensor::set_gemm_kernel_override(std::nullopt);
}

TEST(DispatcherBatch, NanInputFallsBackToTheSimulationOnEveryKernel) {
  // A 2-member 2 -> 8 -> 1 tanh ensemble asked {NaN, 0.5}: the NaN reaches
  // the tanh, the prediction is invalid, and the row falls back to the
  // simulation on kScalar and on kAvx2 alike (the AVX2 tanh keeps a NaN
  // lane NaN, as std::tanh does, instead of clamping it to -9).
  for (const auto kernel :
       {tensor::GemmKernel::kScalar, tensor::GemmKernel::kAvx2}) {
    tensor::set_gemm_kernel_override(kernel);
    Rng rng(25);
    std::vector<nn::Network> members;
    for (int m = 0; m < 2; ++m) {
      nn::MlpConfig cfg;
      cfg.input_dim = 2;
      cfg.hidden = {8};
      cfg.output_dim = 1;
      cfg.activation = nn::Activation::kTanh;
      members.push_back(nn::make_mlp(cfg, rng));
      members.back().set_training(false);
    }
    SurrogateDispatcher dispatcher(
        std::make_shared<uq::DeepEnsemble>(std::move(members)),
        [](std::span<const double>) { return std::vector<double>{0.0}; },
        1e9);
    tensor::Matrix inputs(1, 2);
    inputs(0, 0) = std::numeric_limits<double>::quiet_NaN();
    inputs(0, 1) = 0.5;
    const std::vector<Answer> answers = dispatcher.query_batch(inputs);
    EXPECT_EQ(answers[0].source, AnswerSource::kSimulation)
        << tensor::to_string(kernel);
    EXPECT_EQ(dispatcher.stats().invalid_predictions, 1u)
        << tensor::to_string(kernel);
  }
  tensor::set_gemm_kernel_override(std::nullopt);
}

TEST(DispatcherBatch, BatchBookingEqualsTheAnswersBookedOneByOne) {
  // Batches of 1-20 rows over a small key pool (so the cache hits), with
  // rows the gate declines (simulation) and rows already past their
  // deadline (shed).  After every query_batch the stats, the counters,
  // the meter and the latency histogram hold what booking the returned
  // answers one at a time, in row order, gives.
  auto model = std::make_shared<CountingUq>();
  SurrogateDispatcher dispatcher(model, identity_sim(), 0.5);
  serve::LookupCacheConfig cache;
  cache.capacity = 8;
  dispatcher.enable_lookup_cache(cache);
  obs::MetricsRegistry registry;
  dispatcher.enable_metrics(registry, "book");
  obs::EffectiveSpeedupMeter meter;
  dispatcher.set_speedup_meter(&meter);

  std::mt19937 gen(5);
  std::uniform_int_distribution<int> rows_dist(1, 20);
  std::uniform_int_distribution<int> key_dist(0, 15);
  std::uniform_int_distribution<int> coin(0, 9);
  std::size_t surrogate = 0, simulation = 0, hits = 0, shed = 0;
  double surrogate_seconds = 0.0, uncertainty_sum = 0.0;
  double simulation_seconds = 0.0;
  const auto past = std::chrono::steady_clock::now() - std::chrono::hours(1);
  for (int batch = 0; batch < 40; ++batch) {
    const std::size_t n = static_cast<std::size_t>(rows_dist(gen));
    tensor::Matrix inputs(n, 1);
    std::vector<serve::Deadline> deadlines(n);
    for (std::size_t r = 0; r < n; ++r) {
      // Keys 0-11 pass the 0.5 gate, 12-15 go to the simulation.
      inputs(r, 0) = 0.04 * key_dist(gen) + (coin(gen) < 3 ? 0.02 : 0.0);
      if (coin(gen) == 0) deadlines[r] = past;
    }
    const std::vector<Answer> answers = dispatcher.query_batch(inputs, deadlines);
    for (const Answer& answer : answers) {
      switch (answer.source) {
        case AnswerSource::kSurrogate:
          ++surrogate;
          surrogate_seconds += answer.seconds;
          uncertainty_sum += answer.uncertainty;
          hits += answer.from_cache ? 1 : 0;
          break;
        case AnswerSource::kSimulation:
          ++simulation;
          simulation_seconds += answer.seconds;
          break;
        case AnswerSource::kShed:
          ++shed;
          break;
      }
    }
    SCOPED_TRACE(testing::Message() << "batch " << batch);
    const DispatcherStats& stats = dispatcher.stats();
    ASSERT_EQ(stats.surrogate_answers, surrogate);
    ASSERT_EQ(stats.simulation_answers, simulation);
    ASSERT_EQ(stats.cache_hits, hits);
    ASSERT_EQ(stats.shed_deadline, shed);
    ASSERT_EQ(stats.surrogate_seconds, surrogate_seconds);
    ASSERT_EQ(stats.simulation_seconds, simulation_seconds);
    if (surrogate > 0) {
      ASSERT_EQ(stats.mean_accepted_uncertainty,
                uncertainty_sum / static_cast<double>(surrogate));
    }
    const obs::MetricsSnapshot metrics = registry.snapshot();
    ASSERT_EQ(counter_in(metrics, "book.surrogate_answers"), surrogate);
    ASSERT_EQ(counter_in(metrics, "book.simulation_answers"), simulation);
    ASSERT_EQ(counter_in(metrics, "book.cache_hits"), hits);
    ASSERT_EQ(counter_in(metrics, "book.shed_deadline"), shed);
    ASSERT_EQ(registry.histogram("book.surrogate_seconds").count(), surrogate);
    ASSERT_EQ(registry.histogram("book.surrogate_seconds").sum(),
              surrogate_seconds);
    ASSERT_EQ(registry.histogram("book.simulation_seconds").count(),
              simulation);
    ASSERT_EQ(gauge_in(metrics, "book.surrogate_fraction"),
              stats.surrogate_fraction());
    const auto snap = meter.snapshot();
    ASSERT_EQ(snap.n_lookup, surrogate);
    ASSERT_EQ(snap.n_train, simulation);
    // The meter adds a batch's lookup seconds as one sum, so only its
    // rounding may differ from the row-by-row total.
    ASSERT_NEAR(snap.lookup_seconds, surrogate_seconds,
                1e-12 * surrogate_seconds);
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(simulation, 0u);
  EXPECT_GT(shed, 0u);
}

TEST(DispatcherBatch, ExportedMetricsEqualStatsCacheAndMonitor) {
  // One book per count: after seeded batches with cache hits, fallbacks,
  // sheds and shadow samples, every exported dispatcher.* counter and gauge
  // equals stats(), dispatcher.cache.* the cache's stats() and
  // dispatcher.health.* the monitor's report.  Metrics are enabled before
  // the cache and monitor are armed; the exporter finds them anyway.  A
  // destroyed dispatcher keeps its counters in the registry.
  obs::MetricsRegistry registry;
  std::map<std::string, std::uint64_t> final_counters;
  {
    SurrogateDispatcher dispatcher(std::make_shared<CountingUq>(),
                                   identity_sim(), 0.5);
    dispatcher.enable_metrics(registry);
    serve::LookupCacheConfig cache;
    cache.capacity = 8;
    dispatcher.enable_lookup_cache(cache);
    dispatcher.enable_circuit_breaker({});
    obs::SurrogateHealthConfig health = every_answer_shadowed();
    health.shadow_fraction = 0.25;
    dispatcher.enable_health_monitoring(health, health_reference(64));
    std::mt19937 gen(9);
    std::uniform_int_distribution<int> key_dist(0, 15);
    std::uniform_int_distribution<int> coin(0, 9);
    const auto past = std::chrono::steady_clock::now() - std::chrono::hours(1);
    for (int batch = 0; batch < 30; ++batch) {
      tensor::Matrix inputs(12, 1);
      std::vector<serve::Deadline> deadlines(12);
      for (std::size_t r = 0; r < 12; ++r) {
        inputs(r, 0) = 0.04 * key_dist(gen);
        if (coin(gen) == 0) deadlines[r] = past;
      }
      (void)dispatcher.query_batch(inputs, deadlines);
    }
    const DispatcherStats s = dispatcher.stats();
    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(counter_in(snap, "dispatcher.surrogate_answers"),
              s.surrogate_answers);
    EXPECT_EQ(counter_in(snap, "dispatcher.simulation_answers"),
              s.simulation_answers);
    EXPECT_EQ(counter_in(snap, "dispatcher.invalid_predictions"),
              s.invalid_predictions);
    EXPECT_EQ(counter_in(snap, "dispatcher.breaker_short_circuits"),
              s.breaker_short_circuits);
    EXPECT_EQ(counter_in(snap, "dispatcher.cache_hits"), s.cache_hits);
    EXPECT_EQ(counter_in(snap, "dispatcher.shadow_samples"), s.shadow_samples);
    EXPECT_EQ(counter_in(snap, "dispatcher.shed_deadline"), s.shed_deadline);
    EXPECT_EQ(counter_in(snap, "dispatcher.shed_overload"), s.shed_overload);
    EXPECT_EQ(counter_in(snap, "dispatcher.degraded_answers"),
              s.degraded_answers);
    EXPECT_EQ(gauge_in(snap, "dispatcher.surrogate_fraction"),
              s.surrogate_fraction());
    EXPECT_EQ(gauge_in(snap, "dispatcher.breaker_state"),
              static_cast<double>(dispatcher.circuit_breaker()->state()));
    const serve::LookupCacheStats c = dispatcher.lookup_cache()->stats();
    EXPECT_EQ(counter_in(snap, "dispatcher.cache.hits"), c.hits);
    EXPECT_EQ(counter_in(snap, "dispatcher.cache.misses"), c.misses);
    EXPECT_EQ(counter_in(snap, "dispatcher.cache.insertions"), c.insertions);
    EXPECT_EQ(counter_in(snap, "dispatcher.cache.evictions"), c.evictions);
    EXPECT_EQ(gauge_in(snap, "dispatcher.cache.entries"),
              static_cast<double>(c.entries));
    const obs::SurrogateHealthMonitor& monitor = *dispatcher.health_monitor();
    const obs::HealthReport h = monitor.report();
    EXPECT_EQ(gauge_in(snap, "dispatcher.health.state"),
              static_cast<double>(static_cast<int>(h.state)));
    EXPECT_EQ(gauge_in(snap, "dispatcher.health.psi_max"), h.drift.max_psi);
    EXPECT_EQ(gauge_in(snap, "dispatcher.health.ks_max"), h.drift.max_ks);
    EXPECT_EQ(gauge_in(snap, "dispatcher.health.residual_rmse"),
              h.residual_rmse);
    EXPECT_EQ(gauge_in(snap, "dispatcher.health.coverage"), h.coverage);
    EXPECT_EQ(gauge_in(snap, "dispatcher.health.sharpness"), h.sharpness);
    EXPECT_EQ(counter_in(snap, "dispatcher.health.shadow_samples"),
              h.shadow_samples);
    EXPECT_EQ(counter_in(snap, "dispatcher.health.transitions"),
              monitor.transitions().size());
    EXPECT_GT(s.cache_hits, 0u);
    EXPECT_GT(s.simulation_answers, 0u);
    EXPECT_GT(s.shed_deadline, 0u);
    EXPECT_GT(s.shadow_samples, 0u);
    for (const auto& counter : snap.counters) {
      final_counters[counter.name] = counter.value;
    }
  }
  const obs::MetricsSnapshot after = registry.snapshot();
  for (const auto& [name, value] : final_counters) {
    EXPECT_EQ(counter_in(after, name), value) << name;
  }
  EXPECT_TRUE(after.gauges.empty());
}

}  // namespace
}  // namespace le::core
