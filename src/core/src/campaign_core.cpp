#include "campaign_core.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "le/nn/serialize.hpp"
#include "le/obs/speedup_meter.hpp"

namespace le::core {

CampaignCore::CampaignCore(std::string kind, std::size_t input_dim,
                           std::size_t output_dim,
                           const SimulationFn& simulation,
                           const RetryPolicy& retry, std::uint64_t seed,
                           obs::EffectiveSpeedupMeter* meter,
                           ckpt::CampaignCheckpointer* checkpointer)
    : rng(seed),
      dataset(input_dim, output_dim),
      kind_(std::move(kind)),
      resilient_(simulation, retry, ValidationSpec{output_dim, {}, {}}),
      meter_(meter),
      checkpointer_(checkpointer) {}

std::optional<ckpt::CampaignState> CampaignCore::resume() {
  auto snap = checkpointer_ ? checkpointer_->load_latest() : std::nullopt;
  if (!snap) return snap;
  if (snap->kind != kind_) {
    throw std::runtime_error(kind_ + ": checkpoint kind '" + snap->kind +
                             "' belongs to a different campaign driver");
  }
  if (snap->dataset.input_dim() != dataset.input_dim() ||
      snap->dataset.target_dim() != dataset.target_dim()) {
    throw std::runtime_error(kind_ + ": checkpoint dimensions differ");
  }
  dataset = std::move(snap->dataset);
  simulations_run = snap->simulations_run;
  simulations_failed = snap->simulations_failed;
  completed_.insert(snap->completed_tasks.begin(), snap->completed_tasks.end());
  if (!snap->rng_state.empty()) rng = ckpt::decode_rng(snap->rng_state);
  if (meter_) meter_->restore(snap->meter);
  return snap;
}

std::optional<double> CampaignCore::run(std::span<const double> point) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto output = resilient_.try_run(point);
  if (!output) {
    ++simulations_failed;
    return std::nullopt;
  }
  const double seconds = seconds_since(t0);
  dataset.add(point, *output);
  ++simulations_run;
  return seconds;
}

void CampaignCore::warm_up(
    const data::ParamSpace& space, std::size_t count, std::uint64_t salt,
    const std::function<void(std::span<const double>)>& run_point,
    const std::function<void()>& save) {
  stats::Rng lhs_rng = rng.split(salt);
  const auto points = data::latin_hypercube_sample(space, count, lhs_rng);
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (completed_.count(i) != 0) continue;
    run_point(points[i]);
    completed_.insert(i);
    if (due()) save();
  }
}

ckpt::CampaignState CampaignCore::snapshot(std::uint64_t progress,
                                           nn::Network* net) const {
  ckpt::CampaignState state;
  state.kind = kind_;
  state.progress = progress;
  state.simulations_run = simulations_run;
  state.simulations_failed = simulations_failed;
  state.completed_tasks.assign(completed_.begin(), completed_.end());
  state.dataset = dataset;
  state.rng_state = ckpt::encode_rng(rng);
  if (net) {
    std::ostringstream text;
    nn::save_network(text, *net);
    state.network_text = std::move(text).str();
  }
  if (meter_) state.meter = meter_->snapshot();
  return state;
}

std::size_t CampaignCore::count_from(double value) const {
  // NaN fails both bounds; 2^64 is the first double a size_t cannot hold.
  static_assert(sizeof(std::size_t) == 8);
  if (!(value >= 0.0 && value < 0x1p64) || value != std::floor(value)) {
    throw std::runtime_error(kind_ + ": checkpoint holds a malformed count");
  }
  return static_cast<std::size_t>(value);
}

}  // namespace le::core
