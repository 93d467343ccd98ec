#include "le/core/surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "campaign_core.hpp"
#include "le/core/resilient.hpp"
#include "le/obs/health.hpp"
#include "le/serve/degradation.hpp"
#include "le/serve/lookup_cache.hpp"
#include "le/obs/speedup_meter.hpp"
#include "le/uq/acquisition.hpp"

namespace le::core {

namespace {

/// The one surrogate forward of a batch over rows `rows` (ascending) of
/// `inputs`: one predict_batch, whatever the row count.  Every shipped
/// UqModel answers a one-row predict_batch exactly as predict()
/// (tests/test_uq.cpp), so query() needs no path of its own.  When every
/// row is forwarded, `inputs` goes to the model as it is.
std::vector<uq::Prediction> forward(uq::UqModel& model,
                                    const tensor::Matrix& inputs,
                                    std::span<const std::size_t> rows) {
  if (rows.size() == inputs.rows()) return model.predict_batch(inputs);
  tensor::Matrix packed(rows.size(), inputs.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto src = inputs.row(rows[i]);
    std::copy(src.begin(), src.end(), packed.row(i).begin());
  }
  return model.predict_batch(packed);
}

}  // namespace

SurrogateDispatcher::SurrogateDispatcher(std::shared_ptr<uq::UqModel> surrogate,
                                         SimulationFn simulation,
                                         double threshold)
    : surrogate_(std::move(surrogate)), simulation_(std::move(simulation)),
      threshold_(threshold) {
  if (!surrogate_) throw std::invalid_argument("SurrogateDispatcher: null surrogate");
  if (!simulation_) throw std::invalid_argument("SurrogateDispatcher: null simulation");
  if (threshold < 0.0) throw std::invalid_argument("SurrogateDispatcher: threshold < 0");
  buffer_ = data::Dataset(surrogate_->input_dim(), surrogate_->output_dim());
}

SurrogateDispatcher::~SurrogateDispatcher() = default;

std::shared_ptr<uq::UqModel> SurrogateDispatcher::current_surrogate() const {
  std::lock_guard lock(model_mutex_);
  return surrogate_;
}

void SurrogateDispatcher::set_ground_truth_tap(GroundTruthTap tap) {
  ground_truth_tap_ = std::move(tap);
}

Answer SurrogateDispatcher::query(std::span<const double> input,
                                  serve::Deadline deadline) {
  tensor::Matrix row(1, input.size());
  std::copy(input.begin(), input.end(), row.data());
  return std::move(query_batch(row, {&deadline, 1}).front());
}

std::vector<Answer> SurrogateDispatcher::query_batch(
    const tensor::Matrix& inputs, std::span<const serve::Deadline> deadlines) {
  if (!deadlines.empty() && deadlines.size() != inputs.rows()) {
    throw std::invalid_argument(
        "query_batch: deadlines must be empty or one per row");
  }
  // One ladder level per batch; the stages below never re-read it, so a
  // row is answered consistently at the level it entered under.
  const serve::ServiceLevel level =
      ladder_ ? ladder_->level() : serve::ServiceLevel::kFull;
  // Cache epoch FIRST, then the model: if a replace_surrogate() lands in
  // between, the stale epoch makes this batch's inserts drop — a retired
  // model's answer can never be cached into the new model's era.
  const std::uint64_t cache_epoch = cache_ ? cache_->epoch() : 0;
  bool degraded = false;
  const std::shared_ptr<uq::UqModel> surrogate =
      serving_surrogate(level, degraded);
  if (inputs.cols() != surrogate->input_dim()) {
    throw std::invalid_argument("query_batch: input dim mismatch");
  }
  const std::size_t n = inputs.rows();
  std::vector<Answer> answers(n);
  if (n == 0) return answers;

  const auto deadline_of = [&](std::size_t r) -> serve::Deadline {
    return deadlines.empty() ? serve::Deadline{} : deadlines[r];
  };

  // Pass 0 — shed.  Rows dead on arrival (and, under kShedAll, every row)
  // are resolved here, before ANY model work — not even a drift
  // observation — and excluded from everything below: a shed row never
  // reaches the forward.  A resolved row is recognisable by
  // answers[r].source == kShed.
  const auto entry = std::chrono::steady_clock::now();
  std::size_t n_live = 0;
  for (std::size_t r = 0; r < n; ++r) {
    if (const serve::Deadline d = deadline_of(r); d && *d <= entry) {
      answers[r] = make_shed_answer(serve::ShedReason::kDeadline, 0.0);
    } else if (level == serve::ServiceLevel::kShedAll) {
      answers[r] = make_shed_answer(serve::ShedReason::kOverload, 0.0);
    } else {
      ++n_live;
    }
  }
  if (n_live == 0) return answers;
  const auto is_live = [&](std::size_t r) {
    return answers[r].source != AnswerSource::kShed;
  };

  // Health monitoring sees every live input — cache hits included, since
  // drift is a property of the demand stream, not of the route taken.  A
  // completed drift window can flip the monitor to UNTRUSTED right here,
  // in which case the breaker opens before this batch consults it.
  if (health_) {
    for (std::size_t r = 0; r < n; ++r) {
      if (is_live(r)) health_->observe_query(inputs.row(r));
    }
    sync_health_breaker();
  }

  // Pass 1 — learned-lookup cache over the live rows: a remembered
  // gate-accepted answer, re-checked against the *current* threshold, is
  // served with no forward pass.  Shared work is billed evenly: every live
  // row owes an equal slice of the cache pass, and below, every forwarded
  // miss owes an equal slice of the one forward that served it.
  std::vector<std::size_t> misses;
  misses.reserve(n_live);
  for (std::size_t r = 0; r < n; ++r) {
    if (is_live(r)) misses.push_back(r);
  }
  const auto cache_t0 = std::chrono::steady_clock::now();
  // One probe of the whole batch, kept for the inserts of pass 2: probe_of
  // maps a row to its place in it.  The probe's buffers are the
  // dispatcher's, so a steady-state probe and insert allocate nothing.
  serve::LookupCache::Batch& probe = cache_batch_;
  std::vector<std::size_t> probe_of;
  if (cache_) {
    cache_->find_batch({inputs.data(), inputs.size()}, inputs.cols(), misses,
                       probe);
    probe_of.resize(n);
    std::size_t n_missed = 0;
    for (std::size_t i = 0; i < misses.size(); ++i) {
      const std::size_t r = misses[i];
      probe_of[r] = i;
      if (probe.hit(i) && probe.uncertainty(i) <= threshold_) {
        const std::span<const double> values = probe.values(i);
        answers[r].values.assign(values.begin(), values.end());
        answers[r].uncertainty = probe.uncertainty(i);
        answers[r].from_cache = true;
      } else {
        misses[n_missed++] = r;
      }
    }
    misses.resize(n_missed);
  }
  std::vector<double> owed(n, 0.0);
  const double cache_share =
      seconds_since(cache_t0) / static_cast<double>(n_live);
  for (std::size_t r = 0; r < n; ++r) {
    if (is_live(r)) owed[r] = cache_share;
  }

  // Brownout tier 2: kCacheOnly refuses every miss — the forward never
  // happens; the cache hits above stay honest lookups.
  if (level == serve::ServiceLevel::kCacheOnly) {
    for (const std::size_t r : misses) {
      answers[r] = make_shed_answer(serve::ShedReason::kOverload, owed[r]);
    }
    misses.clear();
  }

  // Pass 2 — one surrogate forward over the misses, gated by one breaker
  // consultation for the whole batch.  Deadlines are re-checked first: a
  // row that expired during the cache pass is shed here, pre-forward,
  // instead of riding along dead.
  const bool short_circuit = !misses.empty() && breaker_ && !breaker_->allow();
  if (short_circuit) {
    std::lock_guard lock(stats_mutex_);
    stats_.breaker_short_circuits += misses.size();
  } else {
    const auto pack_now = std::chrono::steady_clock::now();
    std::erase_if(misses, [&](std::size_t r) {
      const serve::Deadline d = deadline_of(r);
      if (!d || *d > pack_now) return false;
      answers[r] = make_shed_answer(serve::ShedReason::kDeadline, owed[r]);
      return true;
    });
  }
  if (!short_circuit && !misses.empty()) {
    const auto fwd_t0 = std::chrono::steady_clock::now();
    std::vector<uq::Prediction> predictions =
        forward(*surrogate, inputs, misses);
    const double fwd_share =
        seconds_since(fwd_t0) / static_cast<double>(misses.size());

    ValidationSpec spec;
    spec.expected_dim = surrogate->output_dim();
    std::size_t n_declined = 0;  // misses[0, n_declined) go on to pass 3
    for (std::size_t i = 0; i < misses.size(); ++i) {
      const std::size_t r = misses[i];
      owed[r] += fwd_share;
      uq::Prediction& prediction = predictions[i];
      const double score = uq::uncertainty_score(prediction);
      // An unusable prediction (corrupted mean, non-finite score, wrong
      // length) is a surrogate *failure*, distinct from an honest "too
      // uncertain" answer: it feeds the breaker instead of the gate.
      const bool usable =
          std::isfinite(score) &&
          validate_output(prediction.mean, spec) == OutputVerdict::kValid;
      if (!usable) {
        {
          std::lock_guard lock(stats_mutex_);
          ++stats_.invalid_predictions;
        }
        if (breaker_) breaker_->record_failure();
      } else {
        if (breaker_) breaker_->record_success();
        answers[r].uncertainty = score;
      }
      if (!usable || score > threshold_) {
        misses[n_declined++] = r;
        continue;
      }
      // Only gate-accepted answers are remembered, so a later hit inherits
      // this acceptance; the epoch drops the insert if this model has been
      // retired meanwhile.  Degraded answers are never cached (the cache
      // stores full-fidelity answers only, and a degraded answer must not
      // keep serving after the brownout lifts) and never shadow sampled (a
      // shadow run is a full simulation — exactly the cost the ladder is
      // shedding).
      if (!degraded) {
        if (cache_) probe.stage(probe_of[r], prediction.mean, score);
        if (health_ && health_->should_shadow_sample()) {
          shadow_sample(inputs.row(r), prediction.mean, prediction.stddev,
                        score);
        }
      }
      answers[r].values = std::move(prediction.mean);
      answers[r].degraded = degraded;
    }
    misses.resize(n_declined);
    if (cache_) (void)cache_->insert_batch(probe, cache_epoch);
  }

  // Pass 3 — book the surrogate answers; whatever the cache, the breaker
  // and the gate all declined falls back to the simulation at kFull.  At
  // any degraded level the fallback is disabled — running the most
  // expensive path under overload is the collapse mode the ladder exists
  // to prevent — so those rows are shed instead.
  std::vector<bool> needs_sim(n, false);
  for (const std::size_t r : misses) needs_sim[r] = true;
  for (std::size_t r = 0; r < n; ++r) {
    Answer& answer = answers[r];
    if (answer.source == AnswerSource::kShed) continue;  // resolved above
    if (!needs_sim[r]) {
      answer.source = AnswerSource::kSurrogate;
      answer.seconds = owed[r];
      if (latency_.surrogate_seconds) {
        latency_.surrogate_seconds->record(answer.seconds);
      }
      continue;
    }
    if (level != serve::ServiceLevel::kFull) {
      answer = make_shed_answer(serve::ShedReason::kOverload, owed[r]);
      continue;
    }
    // Never burn a simulation on a request that died while the batch was
    // being predicted.
    const auto sim_t0 = std::chrono::steady_clock::now();
    if (const serve::Deadline d = deadline_of(r); d && *d <= sim_t0) {
      answer = make_shed_answer(serve::ShedReason::kDeadline, owed[r]);
      continue;
    }
    answer.values = simulation_(inputs.row(r));
    answer.source = AnswerSource::kSimulation;
    answer.seconds = owed[r] + seconds_since(sim_t0);
    bank_ground_truth(inputs.row(r), answer.values, answer.uncertainty,
                      answer.seconds);
    {
      std::lock_guard lock(stats_mutex_);
      ++stats_.simulation_answers;
      stats_.simulation_seconds += answer.seconds;
    }
    if (latency_.simulation_seconds) {
      latency_.simulation_seconds->record(answer.seconds);
    }
  }
  book_surrogate_answers(answers);
  return answers;
}

std::shared_ptr<uq::UqModel> SurrogateDispatcher::serving_surrogate(
    serve::ServiceLevel level, bool& degraded) const {
  std::lock_guard lock(model_mutex_);
  degraded = level == serve::ServiceLevel::kDegraded && degraded_surrogate_;
  return degraded ? degraded_surrogate_ : surrogate_;
}

void SurrogateDispatcher::bank_ground_truth(std::span<const double> input,
                                            const std::vector<double>& truth,
                                            double uncertainty,
                                            double seconds) {
  {
    std::lock_guard lock(buffer_mutex_);
    buffer_.add(input, truth);  // no run is wasted
    buffered_uncertainty_sum_ += uncertainty;
  }
  if (ground_truth_tap_) ground_truth_tap_(input, truth);
  // Fallback and shadow runs alike are N_train units of the speedup model:
  // the sample just joined the training buffer.  Billing a shadow run as
  // lookup time would let monitoring inflate S_eff.
  if (meter_) meter_->record_train(seconds);
}

Answer SurrogateDispatcher::make_shed_answer(serve::ShedReason reason,
                                             double seconds) {
  Answer answer;
  answer.source = AnswerSource::kShed;
  answer.shed_reason = reason;
  answer.seconds = seconds;
  // Deliberately NOT booked into the speedup meter (nothing was looked up,
  // nothing was trained) and never fed to the breaker: a refusal is not a
  // model failure, and letting sheds trip the breaker would turn overload
  // into a simulation stampede.
  std::lock_guard lock(stats_mutex_);
  ++(reason == serve::ShedReason::kDeadline ? stats_.shed_deadline
                                            : stats_.shed_overload);
  return answer;
}

void SurrogateDispatcher::book_surrogate_answers(
    std::span<const Answer> answers) {
  std::size_t booked = 0;
  double seconds = 0.0;
  {
    std::lock_guard lock(stats_mutex_);
    for (const Answer& answer : answers) {
      if (answer.source != AnswerSource::kSurrogate) continue;
      ++booked;
      seconds += answer.seconds;
      stats_.surrogate_seconds += answer.seconds;
      accepted_uncertainty_sum_ += answer.uncertainty;
      stats_.cache_hits += answer.from_cache ? 1 : 0;
      stats_.degraded_answers += answer.degraded ? 1 : 0;
    }
    if (booked == 0) return;
    stats_.surrogate_answers += booked;
    stats_.mean_accepted_uncertainty =
        accepted_uncertainty_sum_ /
        static_cast<double>(stats_.surrogate_answers);
  }
  if (meter_) meter_->record_lookups(booked, seconds);
}

void SurrogateDispatcher::shadow_sample(
    std::span<const double> input, const std::vector<double>& predicted_mean,
    const std::vector<double>& predicted_stddev, double uncertainty) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<double> truth = simulation_(input);
  const double seconds = seconds_since(t0);
  health_->record_shadow(predicted_mean, predicted_stddev, truth);
  bank_ground_truth(input, truth, uncertainty, seconds);
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.shadow_samples;
    stats_.shadow_seconds += seconds;
  }
  if (latency_.shadow_seconds) latency_.shadow_seconds->record(seconds);
  sync_health_breaker();
}

void SurrogateDispatcher::sync_health_breaker() {
  if (!health_ || !breaker_) return;
  if (health_->retrain_requested()) breaker_->trip();
}

void SurrogateDispatcher::enable_health_monitoring(
    const obs::SurrogateHealthConfig& config,
    const tensor::Matrix& reference_inputs) {
  if (reference_inputs.cols() != surrogate_->input_dim()) {
    throw std::invalid_argument(
        "enable_health_monitoring: reference input dim mismatch");
  }
  health_ =
      std::make_unique<obs::SurrogateHealthMonitor>(config, reference_inputs);
}

obs::SurrogateHealthMonitor* SurrogateDispatcher::health_monitor() noexcept {
  return health_.get();
}

const obs::SurrogateHealthMonitor* SurrogateDispatcher::health_monitor()
    const noexcept {
  return health_.get();
}

void SurrogateDispatcher::enable_lookup_cache(
    const serve::LookupCacheConfig& config) {
  cache_ = std::make_unique<serve::LookupCache>(config);
}

DispatcherStats SurrogateDispatcher::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

void SurrogateDispatcher::export_metrics(obs::MetricsSnapshot& out,
                                         const std::string& prefix) const {
  std::lock_guard lock(stats_mutex_);
  const DispatcherStats& s = stats_;
  out.add(prefix,
          {{"surrogate_answers", s.surrogate_answers},
           {"simulation_answers", s.simulation_answers},
           {"invalid_predictions", s.invalid_predictions},
           {"breaker_short_circuits", s.breaker_short_circuits},
           {"cache_hits", s.cache_hits}, {"shadow_samples", s.shadow_samples},
           {"shed_deadline", s.shed_deadline},
           {"shed_overload", s.shed_overload},
           {"degraded_answers", s.degraded_answers}},
          {{"surrogate_fraction", s.surrogate_fraction()},
           {"breaker_state",
            breaker_ ? static_cast<double>(breaker_->state()) : 0.0}});
  if (cache_) cache_->export_metrics(out, prefix + ".cache");
  if (health_) health_->export_metrics(out, prefix + ".health");
}

void SurrogateDispatcher::enable_metrics(obs::MetricsRegistry& registry,
                                         const std::string& prefix) {
  latency_.surrogate_seconds =
      &registry.histogram(prefix + ".surrogate_seconds");
  latency_.simulation_seconds =
      &registry.histogram(prefix + ".simulation_seconds");
  latency_.shadow_seconds = &registry.histogram(prefix + ".shadow_seconds");
  metrics_ = registry.attach(*this, prefix);
}

data::Dataset SurrogateDispatcher::take_retraining() {
  // Dims are invariant across replace_surrogate() (it rejects shape
  // changes), so reading them from the current model needs no extra
  // coordination with the handoff.
  const std::shared_ptr<uq::UqModel> surrogate = current_surrogate();
  std::lock_guard lock(buffer_mutex_);
  data::Dataset drained = std::move(buffer_);
  buffer_ = data::Dataset(surrogate->input_dim(), surrogate->output_dim());
  buffered_uncertainty_sum_ = 0.0;  // per-buffer aggregate follows the buffer
  return drained;
}

double SurrogateDispatcher::mean_buffered_uncertainty() const noexcept {
  std::lock_guard lock(buffer_mutex_);
  return buffer_.size() == 0
             ? 0.0
             : buffered_uncertainty_sum_ / static_cast<double>(buffer_.size());
}

void SurrogateDispatcher::set_threshold(double threshold) {
  if (threshold < 0.0) throw std::invalid_argument("set_threshold: threshold < 0");
  threshold_ = threshold;
}

void SurrogateDispatcher::replace_surrogate(
    std::shared_ptr<uq::UqModel> surrogate) {
  if (!surrogate) throw std::invalid_argument("replace_surrogate: null");
  {
    std::lock_guard lock(model_mutex_);
    if (surrogate->input_dim() != surrogate_->input_dim() ||
        surrogate->output_dim() != surrogate_->output_dim()) {
      throw std::invalid_argument("replace_surrogate: shape mismatch");
    }
    surrogate_ = std::move(surrogate);
    // A promotion (or rollback) supersedes the ladder's degraded tier: a
    // degraded cut of a retired model must not serve the new era.
    degraded_surrogate_.reset();
  }
  // Cached answers came from the old surrogate; a hit must always reflect
  // what the current model would (approximately) say.  Likewise any open
  // breaker recorded the old model's failures (or a health trip): the
  // replacement starts trusted until it earns otherwise.
  if (cache_) cache_->clear();
  if (breaker_) breaker_->reset();
}

void SurrogateDispatcher::attach_degradation(
    std::shared_ptr<serve::DegradationLadder> ladder) {
  ladder_ = std::move(ladder);
}

void SurrogateDispatcher::set_degraded_surrogate(
    std::shared_ptr<uq::UqModel> degraded, double added_error) {
  if (!degraded) {
    std::lock_guard lock(model_mutex_);
    degraded_surrogate_.reset();
    return;
  }
  if (!std::isfinite(added_error) || added_error < 0.0) {
    throw std::invalid_argument("set_degraded_surrogate: bad added_error");
  }
  // A degraded tier whose added error exceeds the UQ gate could never
  // answer a query, so at kDegraded every miss would shed — refuse loudly.
  if (added_error > threshold_) {
    throw std::invalid_argument(
        "set_degraded_surrogate: added error against the full model exceeds "
        "the UQ gate threshold");
  }
  std::lock_guard lock(model_mutex_);
  if (degraded->input_dim() != surrogate_->input_dim() ||
      degraded->output_dim() != surrogate_->output_dim()) {
    throw std::invalid_argument("set_degraded_surrogate: shape mismatch");
  }
  degraded_surrogate_ = std::move(degraded);
}

std::vector<nn::LayerPlanChoice> SurrogateDispatcher::autotune_serving(
    std::size_t batch_hint) {
  // Tune through the snapshot: the plans land on the layers of the live
  // model (shared_ptr), and a model swapped in later is tuned by the next
  // autotune_serving() call (the retraining service re-tunes on promote).
  return current_surrogate()->autotune_inference(batch_hint);
}

void SurrogateDispatcher::enable_circuit_breaker(
    const CircuitBreakerConfig& config) {
  breaker_ = std::make_unique<CircuitBreaker>(config);
}

const CircuitBreaker* SurrogateDispatcher::circuit_breaker() const noexcept {
  return breaker_.get();
}

const serve::LookupCache* SurrogateDispatcher::lookup_cache() const noexcept {
  return cache_.get();
}

}  // namespace le::core
