/// @file
/// The campaign core under run_adaptive_loop, run_ml_campaign and
/// run_direct_campaign (internal to le_core, not installed): how a
/// campaign runs, books and checkpoints a real simulation.  The drivers
/// keep their policy, their own snapshot fields, and the meter call for
/// each run (record_train or record_seq_baseline).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <set>
#include <string>

#include "le/ckpt/campaign_checkpoint.hpp"
#include "le/core/resilient.hpp"
#include "le/data/sampler.hpp"
#include "le/nn/network.hpp"

namespace le::core {

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

class CampaignCore {
 public:
  /// `kind` names the driver in snapshots and errors; a snapshot of
  /// another kind is refused.  A null `checkpointer` disables resume and
  /// saves.
  CampaignCore(std::string kind, std::size_t input_dim,
               std::size_t output_dim, const SimulationFn& simulation,
               const RetryPolicy& retry, std::uint64_t seed,
               obs::EffectiveSpeedupMeter* meter,
               ckpt::CampaignCheckpointer* checkpointer);

  /// Restores the newest snapshot's shared fields and returns it for the
  /// driver's own; throws std::runtime_error on another kind or shape.
  std::optional<ckpt::CampaignState> resume();

  /// Runs `point` through the resilient wrapper: returns the wall seconds
  /// of a valid output, banked as the dataset's last row; counts failures.
  std::optional<double> run(std::span<const double> point);

  /// Latin-hypercube warm-up of `count` points from rng.split(salt): every
  /// id not yet completed goes to `run_point`, and `save` runs whenever
  /// due().  The points are pure in the seed, so a resume reruns none.
  void warm_up(const data::ParamSpace& space, std::size_t count,
               std::uint64_t salt,
               const std::function<void(std::span<const double>)>& run_point,
               const std::function<void()>& save);

  /// The shared snapshot fields at `progress`, with `net` (when given) as
  /// the network text; the driver adds the rest and saves.
  [[nodiscard]] ckpt::CampaignState snapshot(std::uint64_t progress,
                                             nn::Network* net) const;

  /// True when a checkpointer is set and its save interval has passed.
  [[nodiscard]] bool due() const {
    return checkpointer_ && checkpointer_->due(spent());
  }
  /// Simulation slots spent, permanently failed ones included.
  [[nodiscard]] std::size_t spent() const noexcept {
    return simulations_run + simulations_failed;
  }
  /// A snapshot double read as a count; throws std::runtime_error unless
  /// it is an integer in [0, 2^64).
  [[nodiscard]] std::size_t count_from(double value) const;

  /// Moves the books and the fault accounting into a driver's result.
  template <typename Result>
  void hand_over(Result& result, data::Dataset Result::*books) {
    result.*books = std::move(dataset);
    result.simulations_run = simulations_run;
    result.simulations_failed = simulations_failed;
    result.fault_stats = resilient_.stats();
  }

  stats::Rng rng;
  data::Dataset dataset;
  std::size_t simulations_run = 0;
  std::size_t simulations_failed = 0;

 private:
  std::string kind_;
  ResilientSimulation resilient_;
  obs::EffectiveSpeedupMeter* meter_;
  ckpt::CampaignCheckpointer* checkpointer_;
  std::set<std::uint64_t> completed_;  ///< ascending, as snapshots list them
};

}  // namespace le::core
