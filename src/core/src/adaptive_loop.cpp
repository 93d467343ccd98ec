#include "le/core/adaptive_loop.hpp"

#include <chrono>
#include <stdexcept>

#include "campaign_core.hpp"
#include "le/obs/health.hpp"
#include "le/obs/metrics.hpp"
#include "le/obs/speedup_meter.hpp"
#include "le/uq/acquisition.hpp"

namespace le::core {

AdaptiveLoopResult run_adaptive_loop(const data::ParamSpace& space,
                                     const SimulationFn& simulation,
                                     std::size_t output_dim,
                                     const AdaptiveLoopConfig& config) {
  if (config.initial_samples == 0) {
    throw std::invalid_argument("run_adaptive_loop: need initial samples");
  }
  CampaignCore core("adaptive_loop", space.dims(), output_dim, simulation,
                    config.retry, config.seed, config.speedup_meter,
                    config.checkpointer);
  AdaptiveLoopResult result;

  // Observability: per-simulation latency and run counters go to the
  // global registry; training-set wall time feeds the live speedup meter.
  obs::Histogram* sim_seconds = nullptr;
  obs::Histogram* learn_seconds = nullptr;
  obs::Counter* sims_run = nullptr;
  obs::Counter* sims_failed = nullptr;
  if (obs::metrics_enabled()) {
    auto& registry = obs::MetricsRegistry::global();
    sim_seconds = &registry.histogram("adaptive_loop.sim_seconds");
    learn_seconds = &registry.histogram("adaptive_loop.learn_seconds");
    sims_run = &registry.counter("adaptive_loop.simulations_run");
    sims_failed = &registry.counter("adaptive_loop.simulations_failed");
  }

  const auto run_point = [&](std::span<const double> point) {
    if (const auto seconds = core.run(point)) {
      if (config.speedup_meter) config.speedup_meter->record_train(*seconds);
      if (sim_seconds) sim_seconds->record(*seconds);
      if (sims_run) sims_run->add();
    } else if (sims_failed) {
      sims_failed->add();
    }
  };

  // A fresh MC-dropout surrogate; its streams are pure in (seed, corpus).
  const auto train_timed = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    stats::Rng net_rng = core.rng.split(core.dataset.size());
    stats::Rng fit_rng = core.rng.split(core.dataset.size() + 100000);
    auto surrogate =
        uq::train_mc_dropout(core.dataset, config.hidden, config.dropout_rate,
                             config.mc_passes, config.train, net_rng, fit_rng)
            .model;
    const double seconds = seconds_since(t0);
    if (config.speedup_meter) config.speedup_meter->record_learn(seconds);
    if (learn_seconds) learn_seconds->record(seconds);
    return surrogate;
  };

  // ---- Resume from the newest valid checkpoint, when one exists -------
  // scalars: {converged}; series: (round, corpus_size, mean, max) records.
  std::size_t start_round = 0;
  if (auto snap = core.resume()) {
    result.converged = !snap->scalars.empty() && snap->scalars[0] != 0.0;
    if (snap->series.size() % 4 != 0) {
      throw std::runtime_error(
          "run_adaptive_loop: checkpoint round history malformed");
    }
    for (std::size_t i = 0; i < snap->series.size(); i += 4) {
      result.rounds.push_back({core.count_from(snap->series[i]),
                               core.count_from(snap->series[i + 1]),
                               snap->series[i + 2], snap->series[i + 3]});
    }
    start_round = snap->progress;
  }

  const auto snapshot_now = [&](std::uint64_t rounds_completed) {
    ckpt::CampaignState state = core.snapshot(
        rounds_completed,
        result.surrogate ? &result.surrogate->network() : nullptr);
    state.scalars = {result.converged ? 1.0 : 0.0};
    for (const AdaptiveRound& record : result.rounds) {
      state.series.insert(state.series.end(),
                          {static_cast<double>(record.round),
                           static_cast<double>(record.corpus_size),
                           record.mean_uncertainty, record.max_uncertainty});
    }
    (void)config.checkpointer->save(state);
  };

  // Round 0: Latin-hypercube corpus.
  core.warm_up(space, config.initial_samples, 1, run_point,
               [&] { snapshot_now(0); });
  if (core.dataset.size() == 0) {
    throw std::runtime_error(
        "run_adaptive_loop: every initial simulation failed permanently");
  }

  for (std::size_t round = start_round;
       !result.converged && round < config.max_rounds; ++round) {
    result.surrogate = train_timed();

    // Survey uncertainty over a fresh candidate pool.
    stats::Rng pool_rng = core.rng.split(100 + round);
    const auto pool =
        data::uniform_sample(space, config.candidate_pool, pool_rng);
    const uq::UncertaintySurvey survey =
        uq::survey_uncertainty(*result.surrogate, pool);
    result.rounds.push_back({round, core.dataset.size(), survey.mean_score,
                             survey.max_score});

    result.converged = survey.mean_score <= config.uncertainty_threshold;
    if (!result.converged) {
      // Acquire the most uncertain candidates and simulate them.
      for (std::size_t idx : uq::select_most_uncertain(
               *result.surrogate, pool, config.samples_per_round)) {
        run_point(pool[idx]);
      }
    }
    // A round is the natural consistency boundary: corpus and history
    // agree here, and resume retrains rather than replaying the round.
    if (config.checkpointer) snapshot_now(round + 1);
  }

  if (!result.surrogate) result.surrogate = train_timed();
  core.hand_over(result, &AdaptiveLoopResult::corpus);
  // Retraining restores trust: rebase the health monitor's drift reference
  // on what the new surrogate was actually trained on.
  if (config.health_monitor) {
    config.health_monitor->on_retrained(result.corpus.input_matrix());
  }
  return result;
}

}  // namespace le::core
