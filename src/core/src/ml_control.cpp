#include "le/core/ml_control.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "le/ckpt/campaign_checkpoint.hpp"
#include "le/data/normalizer.hpp"
#include "le/nn/loss.hpp"
#include "le/nn/network.hpp"
#include "le/nn/optimizer.hpp"
#include "le/nn/serialize.hpp"
#include "le/obs/speedup_meter.hpp"
#include "le/tensor/matrix.hpp"

namespace le::core {

namespace {

/// CampaignState::kind written by run_ml_campaign snapshots; a restart
/// refuses to resume a checkpoint of a different driver.
constexpr const char* kMlCampaignKind = "ml_campaign";

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void record_run(CampaignResult& result, const std::vector<double>& input,
                const std::vector<double>& output, double objective_value) {
  ++result.simulations_run;
  if (result.trace.empty() || objective_value < result.best_objective) {
    result.best_objective = objective_value;
    result.best_input = input;
    result.best_output = output;
  }
  result.trace.push_back(result.best_objective);
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
  stats::Rng rng(config.seed);
  CampaignResult result;
  result.evaluated = data::Dataset(space.dims(), output_dim);

  ValidationSpec validation;
  validation.expected_dim = output_dim;
  ResilientSimulation resilient(simulation, config.retry, validation);
  // A permanently failed point still consumed its simulation slot; count
  // it against the budget so faults cannot stall the campaign forever.
  const auto budget_spent = [&] {
    return result.simulations_run + result.simulations_failed;
  };
  const auto run_real = [&](const std::vector<double>& input) {
    const auto t0 = std::chrono::steady_clock::now();
    if (auto output = resilient.try_run(input)) {
      if (config.speedup_meter) {
        config.speedup_meter->record_train(seconds_since(t0));
      }
      result.evaluated.add(input, *output);
      record_run(result, input, *output, objective(*output));
    } else {
      ++result.simulations_failed;
    }
  };

  // Scalers and surrogate outlive the acquisition loop so checkpoints can
  // capture the latest trained model alongside its normalization.
  data::MinMaxNormalizer in_scaler, out_scaler;
  std::optional<nn::Network> surrogate;
  std::unordered_set<std::uint64_t> warmup_done;

  // ---- Resume from the newest valid checkpoint, when one exists -------
  if (config.checkpointer) {
    if (auto snap = config.checkpointer->load_latest()) {
      if (snap->kind != kMlCampaignKind) {
        throw std::runtime_error(
            "run_ml_campaign: checkpoint kind '" + snap->kind +
            "' belongs to a different campaign driver");
      }
      if (snap->dataset.input_dim() != space.dims() ||
          snap->dataset.target_dim() != output_dim) {
        throw std::runtime_error(
            "run_ml_campaign: checkpoint dimensions do not match this "
            "campaign");
      }
      result.evaluated = std::move(snap->dataset);
      result.simulations_run = snap->simulations_run;
      result.simulations_failed = snap->simulations_failed;
      result.trace = snap->series;
      // scalars layout: best_objective, best_input, best_output (present
      // only once a successful run was recorded).
      if (!result.trace.empty()) {
        const std::size_t expected = 1 + space.dims() + output_dim;
        if (snap->scalars.size() != expected) {
          throw std::runtime_error(
              "run_ml_campaign: checkpoint best-point record malformed");
        }
        auto it = snap->scalars.begin();
        result.best_objective = *it++;
        result.best_input.assign(it, it + space.dims());
        it += static_cast<std::ptrdiff_t>(space.dims());
        result.best_output.assign(it, it + output_dim);
      }
      warmup_done.insert(snap->completed_tasks.begin(),
                         snap->completed_tasks.end());
      if (!snap->rng_state.empty()) rng = ckpt::decode_rng(snap->rng_state);
      if (config.speedup_meter) config.speedup_meter->restore(snap->meter);
    }
  }

  const auto snapshot_now = [&] {
    ckpt::CampaignState state;
    state.kind = kMlCampaignKind;
    state.progress = budget_spent();
    state.simulations_run = result.simulations_run;
    state.simulations_failed = result.simulations_failed;
    state.completed_tasks.assign(warmup_done.begin(), warmup_done.end());
    std::sort(state.completed_tasks.begin(), state.completed_tasks.end());
    state.dataset = result.evaluated;
    state.rng_state = ckpt::encode_rng(rng);
    if (surrogate) {
      std::ostringstream net;
      nn::save_network(net, *surrogate);
      state.network_text = std::move(net).str();
      state.input_scale_lo.assign(in_scaler.lo().begin(),
                                  in_scaler.lo().end());
      state.input_scale_hi.assign(in_scaler.hi().begin(),
                                  in_scaler.hi().end());
      state.output_scale_lo.assign(out_scaler.lo().begin(),
                                   out_scaler.lo().end());
      state.output_scale_hi.assign(out_scaler.hi().begin(),
                                   out_scaler.hi().end());
    }
    if (!result.trace.empty()) {
      state.scalars.reserve(1 + result.best_input.size() +
                            result.best_output.size());
      state.scalars.push_back(result.best_objective);
      state.scalars.insert(state.scalars.end(), result.best_input.begin(),
                           result.best_input.end());
      state.scalars.insert(state.scalars.end(), result.best_output.begin(),
                           result.best_output.end());
    }
    state.series = result.trace;
    if (config.speedup_meter) state.meter = config.speedup_meter->snapshot();
    (void)config.checkpointer->save(state);
  };

  // Warmup points are a deterministic function of the seed, so a resumed
  // campaign regenerates the same set and skips the ids already attempted.
  stats::Rng lhs_rng = rng.split(1);
  const auto warmup_points =
      data::latin_hypercube_sample(space, config.warmup, lhs_rng);
  for (std::size_t i = 0; i < warmup_points.size(); ++i) {
    if (warmup_done.count(i) != 0) continue;
    run_real(warmup_points[i]);
    warmup_done.insert(i);
    if (config.checkpointer && config.checkpointer->due(budget_spent())) {
      snapshot_now();
    }
  }

  while (budget_spent() < config.simulation_budget) {
    // Snapshot at the iteration boundary: dataset, best point and RNG are
    // mutually consistent here, so a resumed process replays the exact
    // draw sequence an uninterrupted one would have made.
    if (config.checkpointer && config.checkpointer->due(budget_spent())) {
      snapshot_now();
    }
    // With no successful runs yet there is nothing to train on; explore.
    if (result.evaluated.size() == 0 || rng.uniform() < config.exploration) {
      run_real(data::uniform_sample(space, 1, rng).front());
      continue;
    }
    // Train the surrogate on all runs so far (normalized).
    in_scaler.fit(result.evaluated.input_matrix());
    out_scaler.fit(result.evaluated.target_matrix());
    data::Dataset scaled(space.dims(), output_dim);
    {
      std::vector<double> in(space.dims()), tg(output_dim);
      for (std::size_t i = 0; i < result.evaluated.size(); ++i) {
        auto is = result.evaluated.input(i);
        auto ts = result.evaluated.target(i);
        in.assign(is.begin(), is.end());
        tg.assign(ts.begin(), ts.end());
        in_scaler.transform(in);
        out_scaler.transform(tg);
        scaled.add(in, tg);
      }
    }
    nn::MlpConfig mlp;
    mlp.input_dim = space.dims();
    mlp.hidden = config.hidden;
    mlp.output_dim = output_dim;
    mlp.activation = nn::Activation::kTanh;
    stats::Rng net_rng = rng.split(1000 + result.simulations_run);
    surrogate = nn::make_mlp(mlp, net_rng);
    nn::AdamOptimizer opt(1e-2);
    const nn::MseLoss loss;
    stats::Rng fit_rng = rng.split(2000 + result.simulations_run);
    const auto fit_t0 = std::chrono::steady_clock::now();
    nn::fit(*surrogate, scaled, loss, opt, config.train, fit_rng);
    if (config.speedup_meter) {
      config.speedup_meter->record_learn(seconds_since(fit_t0));
    }
    surrogate->set_training(false);

    // Sweep the pool through the surrogate in one batched forward; run the
    // predicted best.  A batched row is bit-identical to a single-row
    // predict (DESIGN.md section 13), so the pick does not depend on the
    // batching.  Every candidate prediction is one N_lookup unit of the
    // speedup model; the sweep is metered in bulk (one clock read).
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
  result.fault_stats = resilient.stats();
  return result;
}

CampaignResult run_direct_campaign(const data::ParamSpace& space,
                                   const SimulationFn& simulation,
                                   std::size_t output_dim,
                                   const OutputObjective& objective,
                                   const CampaignConfig& config) {
  stats::Rng rng(config.seed);
  CampaignResult result;
  result.evaluated = data::Dataset(space.dims(), output_dim);
  ValidationSpec validation;
  validation.expected_dim = output_dim;
  ResilientSimulation resilient(simulation, config.retry, validation);
  stats::Rng lhs_rng = rng.split(3);
  for (const auto& point : data::latin_hypercube_sample(
           space, config.simulation_budget, lhs_rng)) {
    const auto t0 = std::chrono::steady_clock::now();
    if (auto output = resilient.try_run(point)) {
      // The no-ML arm runs everything sequentially: its per-run wall time
      // is exactly the model's T_seq baseline.
      if (config.speedup_meter) {
        config.speedup_meter->record_seq_baseline(seconds_since(t0));
      }
      result.evaluated.add(point, *output);
      record_run(result, point, *output, objective(*output));
    } else {
      ++result.simulations_failed;
    }
  }
  result.fault_stats = resilient.stats();
  return result;
}

}  // namespace le::core
