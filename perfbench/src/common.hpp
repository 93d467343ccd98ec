/// @file
/// Pieces every workload shares: the command line, the result line, the
/// MD labelling function, the served ensemble and its key pools, and the
/// benchmark's timing wrappers around the library's public interfaces
/// (a uq::UqModel decorator and a wrapped core::SimulationFn).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "le/core/surrogate.hpp"
#include "le/data/sampler.hpp"
#include "le/nn/network.hpp"
#include "le/tensor/matrix.hpp"
#include "le/uq/deep_ensemble.hpp"
#include "oracle.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace le;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// The end-to-end metrics one measurement yields (setup_s is added by the
/// main.cpp).  README.md gives each workload's reading of every field.
struct EndToEnd {
  double answers_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double slo_attainment = 0.0;
  double s_eff = 0.0;
  double campaign_s = 0.0;
  double surrogate_rmse = 0.0;
  double peak_rss_mb = 0.0;
};

/// The per-layer metrics one measurement yields; fields that do not apply
/// to a workload stay 0.  obs.trace_overhead_pct is added by main.cpp.
struct PerLayer {
  double core_self_us_per_row = 0.0;
  double core_fallback_share = 0.0;
  double cache_hit_ratio = 0.0;
  double cache_evictions_per_row = 0.0;
  double uq_forward_us_per_row = 0.0;
  double uq_rows_per_call = 0.0;
  double tensor_flops_per_row = 0.0;
  double tensor_gflops = 0.0;
  double md_calls = 0.0;
  double md_ms_per_call = 0.0;
  double md_busy_share = 0.0;
  double nn_fit_s = 0.0;
  double uq_survey_s = 0.0;
  double core_loop_rounds = 0.0;
  double core_loop_simulations = 0.0;
  double unattributed_share = 0.0;
};

[[nodiscard]] std::vector<Metric> to_metrics(const EndToEnd& e);
[[nodiscard]] std::vector<Metric> to_metrics(const PerLayer& p);

/// One timed measurement of a workload.
struct Measurement {
  OracleReport report;
  EndToEnd end_to_end;
  PerLayer per_layer;
  /// The end-to-end figure tracing overhead is judged on
  /// (latency_p50_ms, or campaign_s for the campaign).
  double overhead_basis = 0.0;
};

/// A set-up workload instance; constructing it is the set-up that setup_s
/// times.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Measures for about `seconds`, recording spans when `traced`.
  [[nodiscard]] virtual Measurement measure(double seconds, bool traced) = 0;
  /// The spans of the last measurement.
  [[nodiscard]] virtual const SpanRecorder& recorder() const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_lookup_cold(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_learn_campaign(std::uint64_t seed);

/// Prints the result as the final JSON line of standard output.
void print_result(const WorkloadResult& result);

/// Lower-rank quantile of `values` (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// The median of the kBestWindows best values (highest when
/// `higher_is_better`, else lowest).  Closed-loop compute-speed figures
/// (rows per second, pass, campaign and typical call times) are taken per
/// window and reported this way: on a shared host, other tenants slow whole
/// stretches of a run, and the best windows are the ones they did not
/// touch.  Tail percentiles are not: they are medians over windows, so a
/// stall that hits only some windows still shows.
inline constexpr std::size_t kBestWindows = 5;
[[nodiscard]] double best_windows(std::vector<double> values,
                                  bool higher_is_better);

/// Median of a small sample.
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set of this process in MB.
[[nodiscard]] double peak_rss_mb();

/// The per-request latency limit of every workload (E18's 25 ms).
inline constexpr double kLatencyLimitSeconds = 0.025;

// ---- Labels: the real nanoconfinement MD -----------------------------

/// Runs the short nanoconfinement MD used for every label in the benchmark
/// on the 5-feature point `x` = (h, z_p, z_n, c, d).  The MD seed is
/// derived from the bits of `x`, so one key always yields the same result.
[[nodiscard]] std::vector<double> run_md(std::span<const double> x);

/// Sums of one layer's calls, as seen from outside the layer.
struct LayerClock {
  double seconds = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t rows = 0;
  /// Per-call seconds; filled by timed_simulation only.
  std::vector<double> call_seconds;
};

/// run_md as a core::SimulationFn that accumulates into `clock` and, when
/// `recorder` is enabled, records an "md.simulate" span per call.  Both
/// must outlive the returned function.
[[nodiscard]] core::SimulationFn timed_simulation(LayerClock& clock,
                                                  SpanRecorder* recorder);

/// uq::UqModel decorator: times every predict/predict_batch call into its
/// clock and records a "uq.predict_batch" span per call when tracing.
class TimedUqModel final : public uq::UqModel {
 public:
  TimedUqModel(std::shared_ptr<uq::UqModel> inner, SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  [[nodiscard]] uq::Prediction predict(std::span<const double> input) override;
  [[nodiscard]] std::vector<uq::Prediction> predict_batch(
      const tensor::Matrix& inputs) override;
  [[nodiscard]] std::size_t input_dim() const override {
    return inner_->input_dim();
  }
  [[nodiscard]] std::size_t output_dim() const override {
    return inner_->output_dim();
  }
  std::vector<nn::LayerPlanChoice> autotune_inference(
      std::size_t batch_hint) override {
    return inner_->autotune_inference(batch_hint);
  }

  [[nodiscard]] const LayerClock& clock() const noexcept { return clock_; }

 private:
  std::shared_ptr<uq::UqModel> inner_;
  SpanRecorder* recorder_;
  LayerClock clock_;
};

// ---- The served model ------------------------------------------------

/// E2-shaped deep ensemble (members x 5->32->32->3, tanh) trained on MD
/// labels from a fixed seed: the deployment lookup_cold serves.
struct ServingModel {
  std::shared_ptr<uq::DeepEnsemble> ensemble;
  /// UQ-gate threshold on uq::uncertainty_score.
  double threshold = 0.0;
  /// Ensemble-mean RMSE against held-out MD labels.
  double rmse = 0.0;
};

[[nodiscard]] ServingModel build_serving_model();

/// Computed FLOPs of one ensemble row: members x sum of 2*in*out.
[[nodiscard]] double ensemble_flops_per_row();

/// Serving keys in the training box, each accepted by the gate by a margin,
/// and their oracle references.
struct KeyPool {
  tensor::Matrix inputs;
  std::vector<KeyReference> refs;

  [[nodiscard]] std::size_t size() const noexcept { return refs.size(); }
};

/// Draws `n` keys from `seed`, dropping any whose scalar-kernel reference
/// uncertainty falls within the gate margin of `model.threshold`.  The
/// references are the scalar-kernel ensemble means.
[[nodiscard]] KeyPool make_key_pool(const ServingModel& model, std::size_t n,
                                    std::uint64_t seed);

/// Prints the per-layer kernel plans the startup autotuner chose.
void print_plans(const std::vector<nn::LayerPlanChoice>& plans);

/// Maps a dispatcher answer onto the oracle's outcome vocabulary.
[[nodiscard]] Outcome outcome_of(const core::Answer& answer);

}  // namespace perfbench
