/// @file
/// MLControl: objective-driven computational campaigns (paper Section I,
/// ref [12]): "Using simulations (with HPC) in control of experiments and
/// in objective driven computational campaigns.  Here the simulation
/// surrogates are very valuable to allow real-time predictions."
///
/// The campaign searches for the input state point whose simulated output
/// optimizes a user objective, under a hard budget of real simulation runs.
/// Strategy: every real run enriches a surrogate; between runs the
/// optimizer sweeps a large candidate pool through the (cheap) surrogate
/// and spends the next real run on the surrogate's best suggestion.
/// run_direct_campaign is the no-ML control arm with the same budget.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "le/core/resilient.hpp"
#include "le/core/surrogate.hpp"
#include "le/data/dataset.hpp"
#include "le/data/sampler.hpp"
#include "le/nn/train.hpp"

namespace le::obs {
class EffectiveSpeedupMeter;
}  // namespace le::obs

namespace le::ckpt {
class CampaignCheckpointer;
}  // namespace le::ckpt

namespace le::core {

/// Scalar objective over the simulation's output vector — MINIMIZED.
using OutputObjective = std::function<double(std::span<const double>)>;

struct CampaignConfig {
  /// Hard budget of real simulation runs.
  std::size_t simulation_budget = 30;
  /// Random (Latin hypercube) runs before the surrogate takes over.
  std::size_t warmup = 8;
  /// Candidate pool swept through the surrogate per acquisition.
  std::size_t pool = 400;
  std::vector<std::size_t> hidden = {24, 24};
  nn::TrainConfig train;
  std::uint64_t seed = 61;
  /// Fault handling for real runs; a state point that fails permanently
  /// consumes budget (the compute was spent) but is skipped, not fatal.
  RetryPolicy retry;
  /// Optional live Section III-D accounting: real runs are N_train units,
  /// surrogate training is T_learn, candidate-pool sweeps are bulk
  /// lookups.  run_direct_campaign records its runs as the sequential
  /// baseline (T_seq) instead.  Null disables.
  obs::EffectiveSpeedupMeter* speedup_meter = nullptr;
  /// Optional crash-consistent checkpointing: progress (evaluated dataset,
  /// best point, trace, RNG stream, latest surrogate + scalers, speedup
  /// counters) is snapshotted every checkpointer->config().interval
  /// consumed budget units, and a restarted campaign resumes from the
  /// newest valid snapshot with at most interval units of lost work.
  /// FaultStats are per-process and restart at zero.  Null disables.
  ckpt::CampaignCheckpointer* checkpointer = nullptr;
};

struct CampaignResult {
  std::vector<double> best_input;
  std::vector<double> best_output;
  double best_objective = 0.0;
  std::size_t simulations_run = 0;
  /// State points abandoned after exhausting the retry policy.
  std::size_t simulations_failed = 0;
  /// Attempt/retry/backoff accounting for the whole campaign.
  FaultStats fault_stats;
  /// Best objective after each *successful* real simulation.
  std::vector<double> trace;
  data::Dataset evaluated;
};

/// Surrogate-guided campaign.
[[nodiscard]] CampaignResult run_ml_campaign(const data::ParamSpace& space,
                                             const SimulationFn& simulation,
                                             std::size_t output_dim,
                                             const OutputObjective& objective,
                                             const CampaignConfig& config);

/// Control arm: spend the same budget on Latin-hypercube sampling alone.
[[nodiscard]] CampaignResult run_direct_campaign(
    const data::ParamSpace& space, const SimulationFn& simulation,
    std::size_t output_dim, const OutputObjective& objective,
    const CampaignConfig& config);

}  // namespace le::core
