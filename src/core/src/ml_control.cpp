#include "le/core/ml_control.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "campaign_core.hpp"
#include "le/data/normalizer.hpp"
#include "le/nn/loss.hpp"
#include "le/nn/optimizer.hpp"
#include "le/obs/speedup_meter.hpp"

namespace le::core {

namespace {

/// Fraction of post-warmup runs spent exploring randomly.
constexpr double kExploration = 0.15;

/// Runs one real point and tracks the best objective after every
/// successful run; returns the run's seconds for the caller's meter call.
std::optional<double> run_tracked(CampaignCore& core, CampaignResult& result,
                                  const OutputObjective& objective,
                                  std::span<const double> point) {
  const std::optional<double> seconds = core.run(point);
  if (!seconds) return seconds;
  const auto output = core.dataset.target(core.dataset.size() - 1);
  const double value = objective(output);
  if (result.trace.empty() || value < result.best_objective) {
    result.best_objective = value;
    result.best_input.assign(point.begin(), point.end());
    result.best_output.assign(output.begin(), output.end());
  }
  result.trace.push_back(result.best_objective);
  return seconds;
}

}  // namespace

CampaignResult run_ml_campaign(const data::ParamSpace& space,
                               const SimulationFn& simulation,
                               std::size_t output_dim,
                               const OutputObjective& objective,
                               const CampaignConfig& config) {
  if (config.warmup == 0 || config.warmup > config.simulation_budget) {
    throw std::invalid_argument("run_ml_campaign: bad warmup/budget");
  }
  CampaignCore core("ml_campaign", space.dims(), output_dim, simulation,
                    config.retry, config.seed, config.speedup_meter,
                    config.checkpointer);
  stats::Rng& rng = core.rng;
  CampaignResult result;
  // A permanently failed point still spends a slot of the budget
  // (core.spent()), so faults cannot stall the campaign forever.
  const auto run_real = [&](std::span<const double> input) {
    const auto seconds = run_tracked(core, result, objective, input);
    if (seconds && config.speedup_meter) {
      config.speedup_meter->record_train(*seconds);
    }
  };

  // Scalers and surrogate outlive the acquisition loop so checkpoints can
  // capture the latest trained model alongside its normalization.
  data::MinMaxNormalizer in_scaler, out_scaler;
  std::optional<nn::Network> surrogate;

  // Resume.  scalars: best objective, input and output (once a run
  // succeeded); series: the trace.
  if (auto snap = core.resume()) {
    result.trace = std::move(snap->series);
    if (!result.trace.empty()) {
      if (snap->scalars.size() != 1 + space.dims() + output_dim) {
        throw std::runtime_error(
            "run_ml_campaign: checkpoint best-point record malformed");
      }
      const auto out = snap->scalars.begin() + 1 +
                       static_cast<std::ptrdiff_t>(space.dims());
      result.best_objective = snap->scalars[0];
      result.best_input.assign(snap->scalars.begin() + 1, out);
      result.best_output.assign(out, snap->scalars.end());
    }
  }

  const auto snapshot_now = [&] {
    ckpt::CampaignState state =
        core.snapshot(core.spent(), surrogate ? &*surrogate : nullptr);
    if (surrogate) {
      state.input_scale_lo = {in_scaler.lo().begin(), in_scaler.lo().end()};
      state.input_scale_hi = {in_scaler.hi().begin(), in_scaler.hi().end()};
      state.output_scale_lo = {out_scaler.lo().begin(), out_scaler.lo().end()};
      state.output_scale_hi = {out_scaler.hi().begin(), out_scaler.hi().end()};
    }
    if (!result.trace.empty()) {
      state.scalars = {result.best_objective};
      for (const auto* part : {&result.best_input, &result.best_output}) {
        state.scalars.insert(state.scalars.end(), part->begin(), part->end());
      }
    }
    state.series = result.trace;
    (void)config.checkpointer->save(state);
  };

  core.warm_up(space, config.warmup, 1, run_real, snapshot_now);

  while (core.spent() < config.simulation_budget) {
    // Snapshot at the iteration boundary: dataset, best point and RNG are
    // mutually consistent here, so a resumed process replays the exact
    // draw sequence an uninterrupted one would have made.
    if (core.due()) snapshot_now();
    // With no successful runs yet there is nothing to train on; explore.
    if (core.dataset.size() == 0 || rng.uniform() < kExploration) {
      run_real(data::uniform_sample(space, 1, rng).front());
      continue;
    }
    // Train the surrogate on all runs so far (normalized).
    const auto scale = [](data::MinMaxNormalizer& scaler, tensor::Matrix m) {
      scaler.fit(m);
      scaler.transform(m);
      return m;
    };
    const data::Dataset scaled(scale(in_scaler, core.dataset.input_matrix()),
                               scale(out_scaler, core.dataset.target_matrix()));
    stats::Rng net_rng = rng.split(1000 + core.simulations_run);
    surrogate = nn::make_mlp(
        {.input_dim = space.dims(), .hidden = config.hidden,
         .output_dim = output_dim, .activation = nn::Activation::kTanh},
        net_rng);
    nn::AdamOptimizer opt(1e-2);
    const nn::MseLoss loss;
    stats::Rng fit_rng = rng.split(2000 + core.simulations_run);
    const auto fit_t0 = std::chrono::steady_clock::now();
    nn::fit(*surrogate, scaled, loss, opt, config.train, fit_rng);
    if (config.speedup_meter) {
      config.speedup_meter->record_learn(seconds_since(fit_t0));
    }
    surrogate->set_training(false);

    // Sweep the pool in one batched forward (bit-identical to row-wise
    // predicts, DESIGN.md section 13) and run the predicted best.  Each
    // candidate is one N_lookup unit, metered in bulk.
    std::vector<double> best_candidate;
    double best_pred = std::numeric_limits<double>::infinity();
    const auto sweep_t0 = std::chrono::steady_clock::now();
    const auto pool = data::uniform_sample(space, config.pool, rng);
    tensor::Matrix scaled_pool(pool.size(), space.dims());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      std::copy(pool[i].begin(), pool[i].end(), scaled_pool.row(i).begin());
    }
    in_scaler.transform(scaled_pool);
    tensor::Matrix preds = surrogate->predict_batch(scaled_pool);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const std::span<double> pred = preds.row(i);
      out_scaler.inverse(pred);
      const double value = objective(pred);
      if (value < best_pred) {
        best_pred = value;
        best_candidate = pool[i];
      }
    }
    if (config.speedup_meter) {
      config.speedup_meter->record_lookups(pool.size(),
                                           seconds_since(sweep_t0));
    }
    run_real(best_candidate);
  }
  // Final snapshot: a restart of a finished campaign resumes to the result
  // immediately instead of redoing the tail since the last periodic save.
  if (config.checkpointer) snapshot_now();
  core.hand_over(result, &CampaignResult::evaluated);
  return result;
}

CampaignResult run_direct_campaign(const data::ParamSpace& space,
                                   const SimulationFn& simulation,
                                   std::size_t output_dim,
                                   const OutputObjective& objective,
                                   const CampaignConfig& config) {
  // The no-ML arm is never checkpointed and runs everything sequentially:
  // its per-run wall time is exactly the model's T_seq baseline.
  CampaignCore core("direct_campaign", space.dims(), output_dim, simulation,
                    config.retry, config.seed, nullptr, nullptr);
  CampaignResult result;
  core.warm_up(
      space, config.simulation_budget, 3,
      [&](std::span<const double> point) {
        const auto seconds = run_tracked(core, result, objective, point);
        if (seconds && config.speedup_meter) {
          config.speedup_meter->record_seq_baseline(*seconds);
        }
      },
      {});
  core.hand_over(result, &CampaignResult::evaluated);
  return result;
}

}  // namespace le::core
