#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "le/md/nanoconfinement.hpp"
#include "le/nn/train.hpp"
#include "le/tensor/simd.hpp"
#include "le/uq/acquisition.hpp"

namespace perfbench {

void print_result(const WorkloadResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::vector<Metric> to_metrics(const EndToEnd& e) {
  return {{"answers_per_s", e.answers_per_s, "1/s"},
          {"latency_p50_ms", e.latency_p50_ms, "ms"},
          {"latency_p99_ms", e.latency_p99_ms, "ms"},
          {"slo_attainment", e.slo_attainment, "fraction"},
          {"s_eff", e.s_eff, "ratio"},
          {"campaign_s", e.campaign_s, "s"},
          {"surrogate_rmse", e.surrogate_rmse, "target_units"},
          {"peak_rss_mb", e.peak_rss_mb, "MB"}};
}

std::vector<Metric> to_metrics(const PerLayer& p) {
  return {{"core.self_us_per_row", p.core_self_us_per_row, "us"},
          {"core.fallback_share", p.core_fallback_share, "fraction"},
          {"serve.lookup_cache.hit_ratio", p.cache_hit_ratio, "fraction"},
          {"serve.lookup_cache.evictions_per_row", p.cache_evictions_per_row,
           "count"},
          {"uq.forward_us_per_row", p.uq_forward_us_per_row, "us"},
          {"uq.rows_per_call", p.uq_rows_per_call, "count"},
          {"tensor.flops_per_row", p.tensor_flops_per_row, "count"},
          {"tensor.gflops", p.tensor_gflops, "GFLOP/s"},
          {"md.calls", p.md_calls, "count"},
          {"md.ms_per_call", p.md_ms_per_call, "ms"},
          {"md.busy_share", p.md_busy_share, "fraction"},
          {"nn.fit_s", p.nn_fit_s, "s"},
          {"uq.survey_s", p.uq_survey_s, "s"},
          {"core.loop_rounds", p.core_loop_rounds, "count"},
          {"core.loop_simulations", p.core_loop_simulations, "count"},
          {"bench.unattributed_share", p.unattributed_share, "fraction"}};
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::floor(q * static_cast<double>(values.size() - 1)));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double best_windows(std::vector<double> values, bool higher_is_better) {
  if (higher_is_better) {
    std::sort(values.begin(), values.end(), std::greater<>());
  } else {
    std::sort(values.begin(), values.end());
  }
  values.resize(std::min(values.size(), kBestWindows));
  return median(std::move(values));
}

double peak_rss_mb() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;
}

namespace {

// The labelling MD: a small slab and short trajectories, so one label
// costs milliseconds on a desktop core rather than the full campaign's
// seconds.  Every label in the benchmark (training corpora, held-out sets,
// T_seq samples, campaign acquisitions) uses this one configuration.
md::NanoconfinementParams md_params(std::span<const double> x) {
  md::NanoconfinementParams p;
  p.h = x[0];
  p.z_p = static_cast<int>(std::llround(x[1]));
  p.z_n = static_cast<int>(std::llround(x[2]));
  p.c = x[3];
  p.d = x[4];
  p.lx = 3.5;
  p.ly = 3.5;
  p.equilibration_steps = 50;
  p.production_steps = 150;
  p.sample_interval = 10;
  p.bins = 24;
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const double v : x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = (h ^ bits) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  p.seed = h | 1u;
  return p;
}

constexpr std::uint64_t kModelSeed = 20190520;
constexpr std::size_t kMembers = 5;
const std::vector<std::size_t> kHidden = {32, 32};
// Gate margin: pool keys sit at most threshold / kGateMargin in reference
// uncertainty, so a kernel difference cannot flip their gate decision.
constexpr double kGateMargin = 1.5;

// The serving model's training box: z_p = 1, z_n = -1 salts.
data::ParamSpace serving_box() {
  return data::ParamSpace({{"h", 2.4, 3.6, false},
                           {"z_p", 1.0, 1.0, true},
                           {"z_n", -1.0, -1.0, true},
                           {"c", 0.3, 0.6, false},
                           {"d", 0.45, 0.6, false}});
}

tensor::Matrix to_matrix(const std::vector<std::vector<double>>& rows) {
  tensor::Matrix m(rows.size(), rows.empty() ? 0 : rows[0].size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::copy(rows[r].begin(), rows[r].end(), m.row(r).begin());
  }
  return m;
}

/// Ensemble predictions under the scalar reference kernel, restoring the
/// automatic kernel choice afterwards.
std::vector<uq::Prediction> scalar_predictions(uq::UqModel& model,
                                               const tensor::Matrix& inputs) {
  tensor::set_gemm_kernel_override(tensor::GemmKernel::kScalar);
  std::vector<uq::Prediction> out = model.predict_batch(inputs);
  tensor::set_gemm_kernel_override(std::nullopt);
  return out;
}

}  // namespace

std::vector<double> run_md(std::span<const double> x) {
  return md::run_nanoconfinement(md_params(x)).targets();
}

core::SimulationFn timed_simulation(LayerClock& clock,
                                    SpanRecorder* recorder) {
  return [&clock, recorder](std::span<const double> x) {
    const std::uint32_t span =
        recorder != nullptr ? recorder->begin("md.simulate", clock.calls) : 0;
    const auto t0 = Clock::now();
    std::vector<double> out = run_md(x);
    const double dt = seconds_between(t0, Clock::now());
    clock.seconds += dt;
    clock.call_seconds.push_back(dt);
    ++clock.calls;
    ++clock.rows;
    if (recorder != nullptr) recorder->end(span);
    return out;
  };
}

uq::Prediction TimedUqModel::predict(std::span<const double> input) {
  const std::uint32_t span =
      recorder_ != nullptr ? recorder_->begin("uq.predict_batch", clock_.calls)
                           : 0;
  const auto t0 = Clock::now();
  uq::Prediction out = inner_->predict(input);
  clock_.seconds += seconds_between(t0, Clock::now());
  ++clock_.calls;
  ++clock_.rows;
  if (recorder_ != nullptr) recorder_->end(span);
  return out;
}

std::vector<uq::Prediction> TimedUqModel::predict_batch(
    const tensor::Matrix& inputs) {
  const std::uint32_t span =
      recorder_ != nullptr ? recorder_->begin("uq.predict_batch", clock_.calls)
                           : 0;
  const auto t0 = Clock::now();
  std::vector<uq::Prediction> out = inner_->predict_batch(inputs);
  clock_.seconds += seconds_between(t0, Clock::now());
  ++clock_.calls;
  clock_.rows += inputs.rows();
  if (recorder_ != nullptr) recorder_->end(span);
  return out;
}

ServingModel build_serving_model() {
  stats::Rng rng(kModelSeed);
  const data::ParamSpace box = serving_box();
  ServingModel model;

  data::Dataset corpus(5, 3);
  for (const auto& x : data::latin_hypercube_sample(box, 48, rng)) {
    corpus.add(x, run_md(x));
  }
  nn::MlpConfig mlp;
  mlp.input_dim = 5;
  mlp.hidden = kHidden;
  mlp.output_dim = 3;
  mlp.activation = nn::Activation::kTanh;
  nn::TrainConfig train;
  train.epochs = 150;
  train.batch_size = 8;
  model.ensemble = std::make_shared<uq::DeepEnsemble>(
      uq::train_deep_ensemble(mlp, kMembers, corpus, train, rng));

  const auto held_out = data::uniform_sample(box, 24, rng);
  const auto held_pred =
      scalar_predictions(*model.ensemble, to_matrix(held_out));
  double sq = 0.0;
  for (std::size_t i = 0; i < held_out.size(); ++i) {
    const std::vector<double> truth = run_md(held_out[i]);
    for (std::size_t k = 0; k < truth.size(); ++k) {
      const double e = held_pred[i].mean[k] - truth[k];
      sq += e * e;
    }
  }
  model.rmse = std::sqrt(sq / static_cast<double>(held_out.size() * 3));

  // The gate sits at 1.5x the 99th percentile of in-box uncertainty: the
  // trained region is served, extrapolation falls back.
  const auto calib = scalar_predictions(
      *model.ensemble, to_matrix(data::uniform_sample(box, 512, rng)));
  std::vector<double> scores;
  for (const auto& p : calib) scores.push_back(uq::uncertainty_score(p));
  model.threshold = 1.5 * quantile(scores, 0.99);
  return model;
}

double ensemble_flops_per_row() {
  std::vector<std::size_t> widths = {5};
  widths.insert(widths.end(), kHidden.begin(), kHidden.end());
  widths.push_back(3);
  double flops = 0.0;
  for (std::size_t i = 0; i + 1 < widths.size(); ++i) {
    flops += 2.0 * static_cast<double>(widths[i] * widths[i + 1]);
  }
  return static_cast<double>(kMembers) * flops;
}

KeyPool make_key_pool(const ServingModel& model, std::size_t n,
                      std::uint64_t seed) {
  stats::Rng rng(seed);
  const auto candidates =
      data::uniform_sample(serving_box(), n + n / 4 + 16, rng);
  const auto preds =
      scalar_predictions(*model.ensemble, to_matrix(candidates));
  std::vector<std::vector<double>> keys;
  KeyPool pool;
  for (std::size_t i = 0; i < candidates.size() && keys.size() < n; ++i) {
    if (uq::uncertainty_score(preds[i]) > model.threshold / kGateMargin) {
      continue;
    }
    keys.push_back(candidates[i]);
    pool.refs.push_back({preds[i].mean, true});
  }
  if (keys.size() < n) {
    throw std::runtime_error(
        "make_key_pool: too few keys clear the gate margin");
  }
  pool.inputs = to_matrix(keys);
  return pool;
}

void print_plans(const std::vector<nn::LayerPlanChoice>& plans) {
  std::printf("autotune_serving plans (layer: m x k x n -> kernel mc/kc/nc, "
              "best_us vs scalar_us):\n");
  for (const nn::LayerPlanChoice& c : plans) {
    std::printf("  layer %zu: %zux%zux%zu -> %s %zu/%zu/%zu  %.3f vs %.3f\n",
                c.layer_index, c.rows, c.inner, c.cols,
                tensor::to_string(c.plan.kernel).c_str(), c.plan.blocking.mc,
                c.plan.blocking.kc, c.plan.blocking.nc, c.best_us,
                c.scalar_us);
  }
}

Outcome outcome_of(const core::Answer& answer) {
  switch (answer.source) {
    case core::AnswerSource::kShed:
      return Outcome::kShed;
    case core::AnswerSource::kSimulation:
      return Outcome::kSimulation;
    case core::AnswerSource::kSurrogate:
      break;
  }
  return answer.from_cache ? Outcome::kCached : Outcome::kSurrogate;
}

}  // namespace perfbench
