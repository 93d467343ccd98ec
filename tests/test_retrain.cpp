// Autonomous retraining service tests: the concurrent buffer handoff, the
// detect -> collect -> train -> shadow-eval -> promote loop, poisoned- and
// fault-injected-trainer robustness, guard-window rollback, and SIGKILL
// kill-and-resume through the promotion checkpoint.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "le/ckpt/campaign_checkpoint.hpp"
#include "le/core/resilient.hpp"
#include "le/core/surrogate.hpp"
#include "le/obs/health.hpp"
#include "le/retrain/retraining_service.hpp"
#include "le/runtime/fault.hpp"
#include "le/stats/rng.hpp"
#include "le/uq/uq_model.hpp"
#include "snapshot_lookup.hpp"

namespace le {
namespace {

namespace fs = std::filesystem;

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::temp_directory_path() / name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

// ---------------------------------------------------------------------------
// Fixture pieces

/// The "real simulation": cheap but non-trivial, 2 in -> 2 out.
std::vector<double> simulation(std::span<const double> p) {
  return {std::sin(2.0 * p[0]) * std::cos(p[1]) + 0.3 * p[0], p[0] * p[1]};
}

/// Deterministic stand-in surrogate: configurable mean, constant stddev.
/// predict() is pure, so instances are safe to share across threads.
class StubModel final : public uq::UqModel {
 public:
  using MeanFn = std::function<std::vector<double>(std::span<const double>)>;
  StubModel(std::size_t in, std::size_t out, MeanFn mean, double stddev)
      : in_(in), out_(out), mean_(std::move(mean)), stddev_(stddev) {}

  uq::Prediction predict(std::span<const double> input) override {
    return {mean_(input), std::vector<double>(out_, stddev_)};
  }
  std::size_t input_dim() const override { return in_; }
  std::size_t output_dim() const override { return out_; }

 private:
  std::size_t in_, out_;
  MeanFn mean_;
  double stddev_;
};

/// An incumbent that is accurate (up to a small deterministic wiggle, so
/// the residual baseline latches above zero) on the unit box and useless
/// off it — the classic drift casualty.
std::shared_ptr<StubModel> make_incumbent() {
  return std::make_shared<StubModel>(
      2, 2,
      [](std::span<const double> p) -> std::vector<double> {
        const bool in_dist =
            p[0] >= 0.0 && p[0] <= 1.0 && p[1] >= 0.0 && p[1] <= 1.0;
        if (!in_dist) return {0.0, 0.0};
        std::vector<double> v = simulation(p);
        v[0] += 0.05 * std::sin(13.0 * p[0]);
        v[1] += 0.05 * std::cos(9.0 * p[1]);
        return v;
      },
      /*stddev=*/0.3);
}

obs::SurrogateHealthConfig health_config() {
  obs::SurrogateHealthConfig hc;
  hc.drift.bins = 8;
  hc.drift.window = 32;
  hc.psi_drifting = 0.6;
  hc.psi_untrusted = 1e9;  // ground truth, not drift, condemns the model
  hc.ks_drifting = 0.4;
  hc.ks_untrusted = 1e9;
  hc.coverage_shortfall_drifting = 0.30;
  hc.coverage_shortfall_untrusted = 0.60;
  hc.shadow_fraction = 0.5;  // stride 2: trips fast in tests
  hc.residual_window = 16;
  hc.min_shadow_samples = 6;
  return hc;
}

retrain::RetrainingConfig service_config() {
  retrain::RetrainingConfig cfg;
  cfg.min_corpus_size = 48;
  cfg.hidden = {24, 24};
  cfg.dropout_rate = 0.15;
  cfg.mc_passes = 16;
  cfg.train.epochs = 300;
  cfg.train.batch_size = 16;
  cfg.seed = 404;
  cfg.min_eval_samples = 10;
  cfg.max_rmse_ratio = 1.0;
  cfg.min_coverage = 0.15;
  cfg.guard_window_queries = 64;
  return cfg;
}

std::vector<double> draw(stats::Rng& rng, double lo, double hi) {
  return {rng.uniform(lo, hi), rng.uniform(lo, hi)};
}

data::Dataset make_corpus(stats::Rng& rng, std::size_t n, double lo,
                          double hi) {
  data::Dataset corpus(2, 2);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<double> p = draw(rng, lo, hi);
    corpus.add(p, simulation(p));
  }
  return corpus;
}

/// Serves in-distribution queries until the residual baseline latches,
/// then drifted queries until the monitor latches UNTRUSTED.
void trip_monitor(core::SurrogateDispatcher& dispatcher, stats::Rng& rng) {
  for (int q = 0; q < 48; ++q) {
    (void)dispatcher.query(draw(rng, 0.05, 0.95));
  }
  ASSERT_GT(dispatcher.health_monitor()->report().baseline_rmse, 0.0);
  for (int q = 0; q < 256 && !dispatcher.health_monitor()->retrain_requested();
       ++q) {
    (void)dispatcher.query(draw(rng, 2.0, 3.0));
  }
  ASSERT_TRUE(dispatcher.health_monitor()->retrain_requested());
  ASSERT_EQ(dispatcher.circuit_breaker()->state(), core::BreakerState::kOpen);
}

/// Interleaves drifted queries with service polls until a promotion lands.
[[nodiscard]] bool drive_to_promotion(core::SurrogateDispatcher& dispatcher,
                                      retrain::RetrainingService& service,
                                      stats::Rng& rng, int max_iterations) {
  for (int i = 0; i < max_iterations; ++i) {
    (void)dispatcher.query(draw(rng, 2.0, 3.0));
    (void)service.poll_once();
    if (service.stats().promotions >= 1) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Satellite 1: the buffer handoff is safe against a concurrent serving path

TEST(RetrainTake, ConcurrentBankAndTakeLosesNothing) {
  // Every query falls back (huge spread vs tiny threshold), so each of the
  // N serving-thread queries banks exactly one sample while the drainer
  // thread races take_retraining() against the appends.
  auto uncertain = std::make_shared<StubModel>(
      1, 1, [](std::span<const double>) { return std::vector<double>{0.0}; },
      /*stddev=*/10.0);
  core::SurrogateDispatcher dispatcher(
      uncertain,
      [](std::span<const double> p) { return std::vector<double>{p[0]}; },
      /*threshold=*/1e-3);

  constexpr int kQueries = 1000;
  std::atomic<bool> serving_done{false};
  std::thread server([&] {
    for (int i = 0; i < kQueries; ++i) {
      const double input[1] = {static_cast<double>(i)};
      (void)dispatcher.query(input);
    }
    serving_done.store(true);
  });

  std::set<std::int64_t> seen;
  std::size_t taken = 0;
  const auto absorb = [&](const data::Dataset& banked) {
    for (std::size_t r = 0; r < banked.size(); ++r) {
      // The banked target is the simulation output, i.e. the query id:
      // conservation is provable per sample, not just by count.
      const auto [it, fresh] = seen.insert(
          static_cast<std::int64_t>(std::llround(banked.target(r)[0])));
      EXPECT_TRUE(fresh) << "sample " << *it << " banked twice";
      ++taken;
    }
  };
  while (!serving_done.load()) {
    absorb(dispatcher.take_retraining());
  }
  server.join();
  absorb(dispatcher.take_retraining());  // whatever the race left behind

  EXPECT_EQ(taken, static_cast<std::size_t>(kQueries));
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kQueries));
  EXPECT_EQ(dispatcher.training_buffer().size(), 0u);
}

// ---------------------------------------------------------------------------
// Tentpole: full autonomous loop

TEST(RetrainService, PromotesACandidateAfterDriftAndServesIt) {
  auto incumbent = make_incumbent();
  core::SurrogateDispatcher dispatcher(incumbent, simulation,
                                       /*threshold=*/1e9);
  dispatcher.enable_circuit_breaker({});
  stats::Rng corpus_rng(7);
  dispatcher.enable_health_monitoring(
      health_config(), make_corpus(corpus_rng, 96, 0.0, 1.0).input_matrix());
  retrain::RetrainingService service(dispatcher, service_config());

  stats::Rng rng(11);
  trip_monitor(dispatcher, rng);

  ASSERT_TRUE(drive_to_promotion(dispatcher, service, rng, 4000));
  const retrain::RetrainingStats stats = service.stats();
  EXPECT_GE(stats.retrain_requests_seen, 1u);
  EXPECT_GE(stats.candidates_trained, 1u);
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.rollbacks, 0u);
  EXPECT_GT(stats.last_eval_samples, 0u);
  // The candidate beat the incumbent's degraded-era residual RMSE.
  EXPECT_LT(stats.last_eval_rmse, stats.last_incumbent_rmse);

  // The promotion swapped the model, healed the monitor and closed the
  // breaker; the retained prior is the incumbent.
  EXPECT_NE(dispatcher.current_surrogate(), incumbent);
  EXPECT_EQ(service.prior_model(), incumbent);
  EXPECT_EQ(dispatcher.health_monitor()->state(), obs::HealthState::kHealthy);
  EXPECT_EQ(dispatcher.circuit_breaker()->state(),
            core::BreakerState::kClosed);
  EXPECT_EQ(service.state(), retrain::ServiceState::kGuard);

  // The candidate now answers drifted-region queries from the surrogate
  // path, and surviving the guard window returns the service to IDLE.
  const std::size_t surrogate_before = dispatcher.stats().surrogate_answers;
  for (int q = 0;
       q < 400 && service.state() != retrain::ServiceState::kIdle; ++q) {
    (void)dispatcher.query(draw(rng, 2.0, 3.0));
    (void)service.poll_once();
  }
  EXPECT_EQ(service.state(), retrain::ServiceState::kIdle);
  EXPECT_GT(dispatcher.stats().surrogate_answers, surrogate_before);
  EXPECT_EQ(service.stats().rollbacks, 0u);
}

// ---------------------------------------------------------------------------
// Poisoned candidate: rejected at shadow evaluation, never serves

TEST(RetrainService, PoisonedCandidateIsRejectedWithoutServing) {
  auto incumbent = make_incumbent();
  core::SurrogateDispatcher dispatcher(incumbent, simulation, 1e9);
  dispatcher.enable_circuit_breaker({});
  stats::Rng corpus_rng(7);
  dispatcher.enable_health_monitoring(
      health_config(), make_corpus(corpus_rng, 96, 0.0, 1.0).input_matrix());

  retrain::RetrainingConfig cfg = service_config();
  // A confidently wrong candidate: constant nonsense mean, near-zero
  // spread, and a training loss that looks excellent.
  cfg.trainer = [](const data::Dataset&, stats::Rng&) {
    retrain::TrainedCandidate candidate;
    candidate.model = std::make_shared<StubModel>(
        2, 2,
        [](std::span<const double>) {
          return std::vector<double>{100.0, 100.0};
        },
        /*stddev=*/1e-6);
    candidate.final_loss = 1e-4;
    return candidate;
  };
  retrain::RetrainingService service(dispatcher, cfg);

  stats::Rng rng(13);
  trip_monitor(dispatcher, rng);
  for (int i = 0; i < 400 && service.stats().candidates_rejected == 0; ++i) {
    (void)dispatcher.query(draw(rng, 2.0, 3.0));
    (void)service.poll_once();
  }

  const retrain::RetrainingStats stats = service.stats();
  EXPECT_GE(stats.candidates_rejected, 1u);
  EXPECT_EQ(stats.promotions, 0u);
  // The poisoned model never touched the serving path: the incumbent is
  // still installed, the breaker is still open, and a query still goes to
  // the simulation.
  EXPECT_EQ(dispatcher.current_surrogate(), incumbent);
  EXPECT_TRUE(dispatcher.health_monitor()->retrain_requested());
  const std::size_t sims_before = dispatcher.stats().simulation_answers;
  (void)dispatcher.query(draw(rng, 2.0, 3.0));
  EXPECT_EQ(dispatcher.stats().simulation_answers, sims_before + 1);
  // Rejection re-armed collection with a larger corpus requirement.
  EXPECT_EQ(service.state(), retrain::ServiceState::kCollecting);
}

// ---------------------------------------------------------------------------
// Fault-injected trainer: bounded retries, then re-arm

TEST(RetrainService, TrainerFaultsAreRetriedThenReArmed) {
  auto incumbent = make_incumbent();
  core::SurrogateDispatcher dispatcher(incumbent, simulation, 1e9);
  dispatcher.enable_circuit_breaker({});
  stats::Rng corpus_rng(7);
  dispatcher.enable_health_monitoring(
      health_config(), make_corpus(corpus_rng, 96, 0.0, 1.0).input_matrix());

  // Every attempt's training loss is NaN-corrupted: diverged training.
  runtime::FaultSpec spec;
  spec.nan_probability = 1.0;
  runtime::FaultInjector faults(spec);
  retrain::RetrainingConfig cfg = service_config();
  cfg.trainer_faults = &faults;
  cfg.max_train_attempts = 2;
  cfg.train.epochs = 20;  // the loss is doomed; do not waste epochs on it
  retrain::RetrainingService service(dispatcher, cfg);

  stats::Rng rng(17);
  trip_monitor(dispatcher, rng);
  // Collect, then burn through the bounded attempts.  A failed attempt
  // below the bound stays in kTraining and retries on the very next poll.
  int first_failure_poll = -1;
  int second_failure_poll = -1;
  for (int i = 0; i < 400 && service.stats().train_failures < 2; ++i) {
    (void)dispatcher.query(draw(rng, 2.0, 3.0));
    const retrain::ServiceState after = service.poll_once();
    const std::size_t failures = service.stats().train_failures;
    if (failures == 1 && first_failure_poll < 0) {
      first_failure_poll = i;
      EXPECT_EQ(after, retrain::ServiceState::kTraining);
    }
    if (failures == 2) second_failure_poll = i;
  }
  ASSERT_GE(first_failure_poll, 0);
  EXPECT_EQ(second_failure_poll, first_failure_poll + 1);

  const retrain::RetrainingStats stats = service.stats();
  EXPECT_EQ(stats.train_attempts, 2u);
  EXPECT_EQ(stats.train_failures, 2u);
  EXPECT_EQ(stats.candidates_trained, 0u);
  EXPECT_EQ(stats.promotions, 0u);
  // Re-armed, not wedged: back to collecting (with a grown corpus target),
  // incumbent untouched, breaker still protecting the serving path.
  EXPECT_EQ(service.state(), retrain::ServiceState::kCollecting);
  EXPECT_EQ(dispatcher.current_surrogate(), incumbent);
  EXPECT_TRUE(dispatcher.health_monitor()->retrain_requested());
  EXPECT_GT(faults.counts().nan_corruptions, 0u);
}

// ---------------------------------------------------------------------------
// Guard window: a promotion that re-trips rolls back and re-latches

TEST(RetrainService, GuardWindowRollbackRestoresIncumbentAndRelatches) {
  auto incumbent = make_incumbent();
  core::SurrogateDispatcher dispatcher(incumbent, simulation, 1e9);
  dispatcher.enable_circuit_breaker({});
  stats::Rng corpus_rng(7);
  const data::Dataset reference = make_corpus(corpus_rng, 96, 0.0, 1.0);
  dispatcher.enable_health_monitoring(health_config(),
                                      reference.input_matrix());

  retrain::RetrainingConfig cfg = service_config();
  cfg.min_corpus_size = 140;  // 96 seeded + fresh drifted fallbacks
  cfg.guard_window_queries = 400;
  retrain::RetrainingService service(dispatcher, cfg);
  service.seed_corpus(reference);

  stats::Rng rng(19);
  trip_monitor(dispatcher, rng);
  ASSERT_TRUE(drive_to_promotion(dispatcher, service, rng, 4000));
  ASSERT_EQ(service.state(), retrain::ServiceState::kGuard);
  const auto candidate = dispatcher.current_surrogate();
  ASSERT_NE(candidate, incumbent);

  // Let the candidate latch its own residual baseline on traffic it can
  // handle, then yank the stream to a region nobody trained on.  The
  // monitor re-trips inside the guard window; the service must roll back.
  for (int q = 0; q < 24; ++q) {
    (void)dispatcher.query(draw(rng, 2.0, 3.0));
    (void)service.poll_once();
  }
  ASSERT_EQ(service.stats().rollbacks, 0u);
  for (int q = 0; q < 400 && service.stats().rollbacks == 0; ++q) {
    (void)dispatcher.query(draw(rng, 5.0, 6.0));
    (void)service.poll_once();
  }

  const retrain::RetrainingStats stats = service.stats();
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.rollbacks, 1u);
  // One-call rollback restored the exact incumbent object and re-latched
  // the monitor (on_rolled_back): the retrain request stands and the
  // breaker shields the serving path again.
  EXPECT_EQ(dispatcher.current_surrogate(), incumbent);
  EXPECT_TRUE(dispatcher.health_monitor()->retrain_requested());
  EXPECT_EQ(service.state(), retrain::ServiceState::kIdle);
  // The next poll re-enters the loop for another attempt.
  (void)service.poll_once();
  EXPECT_EQ(service.state(), retrain::ServiceState::kCollecting);
}

TEST(RetrainService, RollbackWithoutAPromotionIsANoop) {
  auto incumbent = make_incumbent();
  core::SurrogateDispatcher dispatcher(incumbent, simulation, 1e9);
  retrain::RetrainingService service(dispatcher, service_config());
  EXPECT_FALSE(service.rollback("nothing to roll back"));
  EXPECT_EQ(service.stats().rollbacks, 0u);
  EXPECT_EQ(dispatcher.current_surrogate(), incumbent);
}

// ---------------------------------------------------------------------------
// Background thread + concurrent serving (the TSan-instrumented variant of
// this binary recompiles the dispatcher, service and trainer dependencies
// with -fsanitize=thread)

TEST(RetrainRace, BackgroundServiceRacesAServingThread) {
  auto incumbent = make_incumbent();
  core::SurrogateDispatcher dispatcher(incumbent, simulation, 1e9);
  dispatcher.enable_circuit_breaker({});
  stats::Rng corpus_rng(7);
  dispatcher.enable_health_monitoring(
      health_config(), make_corpus(corpus_rng, 96, 0.0, 1.0).input_matrix());

  retrain::RetrainingConfig cfg = service_config();
  cfg.train.epochs = 60;  // promotion quality is not under test here
  cfg.min_coverage = 0.0;
  cfg.poll_interval_seconds = 1e-4;
  retrain::RetrainingService service(dispatcher, cfg);
  service.start();

  // One serving thread: warm up in-distribution, drift off-support, keep
  // serving while the background service detects, trains, shadow-evaluates
  // and promotes underneath it.
  std::atomic<bool> stop_serving{false};
  std::thread server([&] {
    stats::Rng rng(23);
    for (int q = 0; q < 48; ++q) {
      (void)dispatcher.query(draw(rng, 0.05, 0.95));
    }
    while (!stop_serving.load(std::memory_order_relaxed)) {
      const core::Answer answer = dispatcher.query(draw(rng, 2.0, 3.0));
      ASSERT_EQ(answer.values.size(), 2u);
      ASSERT_TRUE(std::isfinite(answer.values[0]) &&
                  std::isfinite(answer.values[1]));
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (service.stats().promotions == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop_serving.store(true);
  server.join();
  service.stop();
  EXPECT_EQ(service.state(), retrain::ServiceState::kStopped);
  EXPECT_GE(service.stats().retrain_requests_seen, 1u);
  EXPECT_GE(service.stats().promotions, 1u);
}

TEST(RetrainRace, HotSwapAndTakeRaceAServingThread) {
  // Direct dispatcher-level race: replace_surrogate / current_surrogate /
  // take_retraining hammered against a live query loop.
  auto model = std::make_shared<StubModel>(
      2, 2,
      [](std::span<const double> p) {
        return std::vector<double>{p[0], p[1]};
      },
      /*stddev=*/0.05);
  core::SurrogateDispatcher dispatcher(model, simulation, /*threshold=*/0.11);

  std::atomic<bool> serving_done{false};
  std::thread server([&] {
    stats::Rng rng(29);
    for (int q = 0; q < 20000; ++q) {
      const core::Answer answer = dispatcher.query(draw(rng, 0.0, 1.0));
      ASSERT_TRUE(std::isfinite(answer.values[0]));
    }
    serving_done.store(true);
  });
  std::size_t banked_total = 0;
  for (int i = 0; !serving_done.load(std::memory_order_relaxed); ++i) {
    // Alternate tight and loose spread so both the accept and the
    // fallback-and-bank paths stay live across swaps.
    auto next = std::make_shared<StubModel>(
        2, 2,
        [](std::span<const double> p) {
          return std::vector<double>{p[0] + p[1], p[0] * p[1]};
        },
        i % 2 == 0 ? 0.05 : 10.0);
    dispatcher.replace_surrogate(std::move(next));
    ASSERT_NE(dispatcher.current_surrogate(), nullptr);
    banked_total += dispatcher.take_retraining().size();
  }
  server.join();
  banked_total += dispatcher.take_retraining().size();
  const core::DispatcherStats& stats = dispatcher.stats();
  EXPECT_EQ(banked_total, stats.simulation_answers);
  EXPECT_GT(stats.total(), 0u);
}

// ---------------------------------------------------------------------------
// One book per count: the registry reads the service's and dispatcher's
// own stats

TEST(RetrainMetrics, ExportedMetricsEqualTheStatsTheyRead) {
  using testing_support::counter_in;
  using testing_support::gauge_in;
  auto incumbent = make_incumbent();
  core::SurrogateDispatcher dispatcher(incumbent, simulation, 1e9);
  dispatcher.enable_circuit_breaker({});
  stats::Rng corpus_rng(7);
  dispatcher.enable_health_monitoring(
      health_config(), make_corpus(corpus_rng, 96, 0.0, 1.0).input_matrix());
  obs::MetricsRegistry registry;
  dispatcher.enable_metrics(registry);
  retrain::RetrainingService service(dispatcher, service_config());
  service.enable_metrics(registry);

  stats::Rng rng(11);
  trip_monitor(dispatcher, rng);
  ASSERT_TRUE(drive_to_promotion(dispatcher, service, rng, 4000));

  const obs::MetricsSnapshot snap = registry.snapshot();
  const retrain::RetrainingStats r = service.stats();
  EXPECT_EQ(counter_in(snap, "retrain.requests"), r.retrain_requests_seen);
  EXPECT_EQ(counter_in(snap, "retrain.train_attempts"), r.train_attempts);
  EXPECT_EQ(counter_in(snap, "retrain.train_failures"), r.train_failures);
  EXPECT_EQ(counter_in(snap, "retrain.candidates_rejected"),
            r.candidates_rejected);
  EXPECT_EQ(counter_in(snap, "retrain.promotions"), r.promotions);
  EXPECT_EQ(counter_in(snap, "retrain.rollbacks"), r.rollbacks);
  EXPECT_EQ(gauge_in(snap, "retrain.state"),
            static_cast<double>(service.state()));
  EXPECT_EQ(gauge_in(snap, "retrain.last_eval_rmse"), r.last_eval_rmse);
  EXPECT_EQ(gauge_in(snap, "retrain.last_eval_coverage"),
            r.last_eval_coverage);
  EXPECT_EQ(registry.histogram("retrain.train_seconds").count(),
            r.train_attempts);
  EXPECT_EQ(registry.histogram("retrain.train_seconds").sum(),
            r.train_seconds);

  const core::DispatcherStats d = dispatcher.stats();
  EXPECT_EQ(counter_in(snap, "dispatcher.surrogate_answers"),
            d.surrogate_answers);
  EXPECT_EQ(counter_in(snap, "dispatcher.simulation_answers"),
            d.simulation_answers);
  EXPECT_EQ(counter_in(snap, "dispatcher.breaker_short_circuits"),
            d.breaker_short_circuits);
  EXPECT_EQ(counter_in(snap, "dispatcher.shadow_samples"), d.shadow_samples);
  EXPECT_EQ(gauge_in(snap, "dispatcher.breaker_state"),
            static_cast<double>(dispatcher.circuit_breaker()->state()));
  // The promotion rebased the monitor, restarting its report's shadow
  // count; the exported counter is lifetime, one per dispatcher shadow run.
  const obs::SurrogateHealthMonitor& monitor = *dispatcher.health_monitor();
  EXPECT_EQ(counter_in(snap, "dispatcher.health.shadow_samples"),
            d.shadow_samples);
  EXPECT_LT(monitor.report().shadow_samples, d.shadow_samples);
  EXPECT_EQ(counter_in(snap, "dispatcher.health.transitions"),
            monitor.transitions().size());
  EXPECT_EQ(gauge_in(snap, "dispatcher.health.state"),
            static_cast<double>(static_cast<int>(monitor.state())));
}

TEST(RetrainRace, ScrapeWhileADispatcherAnswersBatches) {
  // A serving thread answers 16-row batches (cache hits, forwards, shadow
  // samples, then drifted rows that trip the monitor and the breaker into
  // fallbacks) while this thread snapshots the registry in a loop: the
  // dispatcher's exporter reads its books race-free (proved by the _tsan
  // build) and no counter ever goes down.
  using testing_support::counter_in;
  auto model = std::make_shared<StubModel>(
      2, 2,
      [](std::span<const double> p) {
        return std::vector<double>{p[0], p[1]};
      },
      /*stddev=*/0.05);
  core::SurrogateDispatcher dispatcher(model, simulation, /*threshold=*/0.11);
  dispatcher.enable_circuit_breaker({});
  serve::LookupCacheConfig cache;
  cache.capacity = 64;
  cache.resolution = 0.1;
  dispatcher.enable_lookup_cache(cache);
  stats::Rng corpus_rng(7);
  dispatcher.enable_health_monitoring(
      health_config(), make_corpus(corpus_rng, 96, 0.0, 1.0).input_matrix());
  obs::MetricsRegistry registry;
  dispatcher.enable_metrics(registry);

  constexpr int kBatches = 200;
  std::atomic<bool> serving_done{false};
  std::thread server([&] {
    stats::Rng rng(31);
    tensor::Matrix batch(16, 2);
    for (int b = 0; b < kBatches; ++b) {
      const double lo = b < kBatches / 2 ? 0.0 : 2.0;
      for (double& v : batch.flat()) v = rng.uniform(lo, lo + 1.0);
      (void)dispatcher.query_batch(batch);
    }
    serving_done.store(true);
  });
  std::map<std::string, std::uint64_t> last;
  std::size_t scrapes = 0;
  while (!serving_done.load(std::memory_order_relaxed)) {
    const obs::MetricsSnapshot snap = registry.snapshot();
    for (const auto& c : snap.counters) {
      EXPECT_GE(c.value, last[c.name]) << c.name;
      last[c.name] = c.value;
    }
    ++scrapes;
  }
  server.join();
  const core::DispatcherStats s = dispatcher.stats();
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(s.total(), static_cast<std::size_t>(kBatches) * 16u);
  EXPECT_EQ(counter_in(snap, "dispatcher.surrogate_answers"),
            s.surrogate_answers);
  EXPECT_EQ(counter_in(snap, "dispatcher.simulation_answers"),
            s.simulation_answers);
  EXPECT_EQ(counter_in(snap, "dispatcher.cache.hits"),
            dispatcher.lookup_cache()->stats().hits);
  EXPECT_GT(s.cache_hits, 0u);
  EXPECT_GT(s.simulation_answers, 0u);
  EXPECT_GT(scrapes, 0u);
}

// ---------------------------------------------------------------------------
// Kill-and-resume: SIGKILL mid-retrain, then restart

#if defined(__linux__)

const char* const kRetrainDirEnv = "LE_RETRAIN_TEST_DIR";

/// Builds the victim/restart fixture around a shared checkpoint directory.
struct Campaign {
  std::shared_ptr<StubModel> incumbent = make_incumbent();
  core::SurrogateDispatcher dispatcher;
  ckpt::CampaignCheckpointer checkpointer;
  retrain::RetrainingService service;

  explicit Campaign(const std::string& dir)
      : dispatcher(incumbent, simulation, 1e9),
        checkpointer({.directory = dir, .campaign_id = "retrain_test",
                      .interval = 1, .keep = 3}),
        service(dispatcher, [this] {
          retrain::RetrainingConfig cfg = service_config();
          cfg.checkpointer = &checkpointer;
          return cfg;
        }()) {
    dispatcher.enable_circuit_breaker({});
    stats::Rng corpus_rng(7);
    dispatcher.enable_health_monitoring(
        health_config(), make_corpus(corpus_rng, 96, 0.0, 1.0).input_matrix());
  }
};

/// Victim body: re-exec'd by the parents below with LE_CRASH_POINT armed
/// at either "retrain.trained" (mid-training, nothing durable yet) or
/// "retrain.promote_saved" (candidate snapshot durable, swap pending).
TEST(RetrainChild, DISABLED_PromotionVictim) {
  const char* dir = std::getenv(kRetrainDirEnv);
  ASSERT_NE(dir, nullptr);
  ASSERT_TRUE(runtime::arm_crash_point_from_env());
  Campaign campaign(dir);
  stats::Rng rng(31);
  trip_monitor(campaign.dispatcher, rng);
  (void)drive_to_promotion(campaign.dispatcher, campaign.service, rng, 4000);
  FAIL() << "victim finished a promotion without being killed";
}

void run_victim(const std::string& dir, const char* crash_point) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::setenv(kRetrainDirEnv, dir.c_str(), 1);
    ::setenv("LE_CRASH_POINT", crash_point, 1);
    ::execl("/proc/self/exe", "test_retrain",
            "--gtest_filter=RetrainChild.DISABLED_PromotionVictim",
            "--gtest_also_run_disabled_tests", "--gtest_brief=1",
            static_cast<char*>(nullptr));
    std::_Exit(127);  // exec failed
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "victim exited normally with status "
      << (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
}

TEST(RetrainKillResume, KilledMidTrainingKeepsTheIncumbent) {
  ScratchDir dir("le_retrain_kill_train");
  run_victim(dir.str(), "retrain.trained:1");

  // Nothing was promoted, so nothing was checkpointed: the restarted
  // campaign keeps the incumbent and simply re-enters the retrain loop.
  // At no point does a half-trained model exist on disk to mis-serve.
  Campaign restarted(dir.str());
  EXPECT_TRUE(restarted.checkpointer.list_snapshots().empty());
  EXPECT_FALSE(restarted.service.resume_from_checkpoint());
  EXPECT_EQ(restarted.dispatcher.current_surrogate(), restarted.incumbent);
  EXPECT_EQ(restarted.service.stats().promotions, 0u);
  EXPECT_EQ(restarted.service.state(), retrain::ServiceState::kIdle);
}

TEST(RetrainKillResume, KilledAfterPromotionSnapshotResumesTheCandidate) {
  ScratchDir dir("le_retrain_kill_promote");
  run_victim(dir.str(), "retrain.promote_saved:1");

  // The validated candidate was durable before the kill; the restarted
  // campaign installs it and enters the guard window.
  Campaign restarted(dir.str());
  ASSERT_FALSE(restarted.checkpointer.list_snapshots().empty());
  ASSERT_TRUE(restarted.service.resume_from_checkpoint());
  EXPECT_NE(restarted.dispatcher.current_surrogate(), restarted.incumbent);
  EXPECT_EQ(restarted.service.prior_model(), restarted.incumbent);
  EXPECT_EQ(restarted.service.stats().promotions, 1u);
  EXPECT_EQ(restarted.service.state(), retrain::ServiceState::kGuard);
  EXPECT_EQ(restarted.dispatcher.health_monitor()->state(),
            obs::HealthState::kHealthy);
  // The resumed candidate answers queries on the region it was trained on.
  stats::Rng rng(37);
  const std::size_t before = restarted.dispatcher.stats().surrogate_answers;
  for (int q = 0; q < 32; ++q) {
    (void)restarted.dispatcher.query(draw(rng, 2.0, 3.0));
  }
  EXPECT_GT(restarted.dispatcher.stats().surrogate_answers, before);
}

#endif  // defined(__linux__)

}  // namespace
}  // namespace le
