#include "le/retrain/retraining_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "le/ckpt/campaign_checkpoint.hpp"
#include "le/nn/network.hpp"
#include "le/nn/serialize.hpp"
#include "le/obs/health.hpp"
#include "le/obs/timer.hpp"
#include "le/runtime/fault.hpp"
#include "le/uq/mc_dropout.hpp"

namespace le::retrain {

namespace {

/// CampaignState::kind written by promotion snapshots.
constexpr const char* kCheckpointKind = "retrain_service";

/// Oldest corpus samples are dropped beyond this (the drifted regime is
/// what matters; stale pre-drift rows dilute it).
constexpr std::size_t kMaxCorpusSize = 8192;
/// A candidate whose final training loss is non-finite or above this is a
/// failed attempt (stuck convergence / NaN loss), never a promotion
/// candidate.
constexpr double kMaxFinalLoss = 1e6;
/// Bound on the ground-truth tap queue (oldest dropped) so an idle service
/// never grows without bound.
constexpr std::size_t kMaxEvalQueue = 1024;

[[nodiscard]] bool all_finite(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

}  // namespace

std::string to_string(ServiceState state) {
  switch (state) {
    case ServiceState::kIdle: return "IDLE";
    case ServiceState::kCollecting: return "COLLECTING";
    case ServiceState::kTraining: return "TRAINING";
    case ServiceState::kShadowEval: return "SHADOW-EVAL";
    case ServiceState::kGuard: return "GUARD";
    case ServiceState::kStopped: return "STOPPED";
  }
  return "?";
}

RetrainingService::RetrainingService(core::SurrogateDispatcher& dispatcher,
                                     RetrainingConfig config)
    : dispatcher_(dispatcher),
      config_(std::move(config)),
      rng_(config_.seed),
      corpus_(dispatcher.current_surrogate()->input_dim(),
              dispatcher.current_surrogate()->output_dim()) {
  if (config_.min_corpus_size == 0) {
    throw std::invalid_argument("RetrainingService: min_corpus_size == 0");
  }
  if (config_.max_train_attempts == 0) {
    throw std::invalid_argument("RetrainingService: max_train_attempts == 0");
  }
  corpus_target_ = config_.min_corpus_size;
  // Every ground-truth pair the dispatcher produces lands in the bounded
  // tap queue; shadow evaluation drains it.  Armed for the service's whole
  // lifetime (detached in the destructor) so no pair between the retrain
  // request and the evaluation is missed.
  dispatcher_.set_ground_truth_tap(
      [this](std::span<const double> input, std::span<const double> truth) {
        std::lock_guard lock(tap_mutex_);
        if (tap_queue_.size() >= kMaxEvalQueue) {
          tap_queue_.pop_front();
        }
        tap_queue_.push_back(
            EvalPair{std::vector<double>(input.begin(), input.end()),
                     std::vector<double>(truth.begin(), truth.end())});
      });
  tap_armed_ = true;
}

RetrainingService::~RetrainingService() {
  stop();
  if (tap_armed_) dispatcher_.set_ground_truth_tap(nullptr);
}

void RetrainingService::seed_corpus(const data::Dataset& corpus) {
  std::lock_guard lock(state_mutex_);
  corpus_ = corpus;
  corpus_initialized_ = true;
  incumbent_reference_ = corpus.input_matrix();
}

void RetrainingService::start() {
  if (thread_.joinable()) return;
  {
    std::lock_guard lock(wake_mutex_);
    stop_requested_ = false;
  }
  thread_ = std::thread(&RetrainingService::run_loop, this);
}

void RetrainingService::stop() {
  if (thread_.joinable()) {
    {
      std::lock_guard lock(wake_mutex_);
      stop_requested_ = true;
    }
    wake_cv_.notify_all();
    thread_.join();
  }
  set_state(ServiceState::kStopped);
}

void RetrainingService::run_loop() {
  const auto interval = std::chrono::duration<double>(
      std::max(config_.poll_interval_seconds, 1e-4));
  std::unique_lock lock(wake_mutex_);
  while (!stop_requested_) {
    lock.unlock();
    (void)poll_once();
    lock.lock();
    wake_cv_.wait_for(lock, interval, [this] { return stop_requested_; });
  }
}

ServiceState RetrainingService::poll_once() {
  switch (state()) {
    case ServiceState::kIdle: step_idle(); break;
    case ServiceState::kCollecting: step_collecting(); break;
    case ServiceState::kTraining: step_training(); break;
    case ServiceState::kShadowEval: step_shadow_eval(); break;
    case ServiceState::kGuard: step_guard(); break;
    case ServiceState::kStopped: break;
  }
  return state();
}

// ---------------------------------------------------------------------------
// State handlers (service thread only)

void RetrainingService::step_idle() {
  obs::SurrogateHealthMonitor* monitor = dispatcher_.health_monitor();
  if (!monitor || !monitor->retrain_requested()) return;
  // The incumbent's rolling residual RMSE on the drifted stream is the bar
  // a candidate must beat.  Captured once, here: after on_retrained() the
  // window resets, and re-reading it later would race the serving thread's
  // ongoing shadow samples.
  const obs::HealthReport report = monitor->report();
  {
    std::lock_guard lock(state_mutex_);
    ++stats_.retrain_requests_seen;
    stats_.last_incumbent_rmse = report.residual_rmse;
    attempts_this_request_ = 0;
    corpus_target_ = config_.min_corpus_size;
  }
  set_state(ServiceState::kCollecting);
}

void RetrainingService::step_collecting() {
  absorb_banked();
  std::size_t size = 0;
  {
    std::lock_guard lock(state_mutex_);
    size = corpus_.size();
  }
  if (size >= corpus_target_) set_state(ServiceState::kTraining);
}

void RetrainingService::step_training() {
  absorb_banked();  // late-arriving fallback runs still help this attempt

  ++attempts_this_request_;
  {
    std::lock_guard lock(state_mutex_);
    ++stats_.train_attempts;
  }

  TrainedCandidate candidate;
  bool failed = false;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    candidate = train_candidate_checked();
  } catch (const std::exception&) {
    failed = true;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  {
    std::lock_guard lock(state_mutex_);
    stats_.train_seconds += seconds;
    stats_.train_failures += failed ? 1 : 0;
  }
  if (m_train_seconds_) m_train_seconds_->record(seconds);

  if (failed) {
    if (attempts_this_request_ >= config_.max_train_attempts) {
      // Re-arm: retrying the same corpus a fourth time is not a plan.
      // Go back to collecting with a grown requirement — fresh fallback
      // runs from the drifted regime are what a better attempt needs.
      std::lock_guard lock(state_mutex_);
      corpus_target_ = corpus_.size() + config_.min_corpus_size;
      attempts_this_request_ = 0;
      state_ = ServiceState::kCollecting;
      return;
    }
    return;  // stay in kTraining; the next poll retries
  }

  {
    std::lock_guard lock(state_mutex_);
    ++stats_.candidates_trained;
    candidate_ = std::move(candidate.model);
    eval_sq_err_sum_ = 0.0;
    eval_covered_dims_ = 0.0;
    eval_dims_ = 0.0;
    eval_samples_ = 0;
  }
  {
    // Only ground truth produced from here on scores the candidate:
    // pre-training pairs already shaped its corpus.
    std::lock_guard lock(tap_mutex_);
    tap_queue_.clear();
  }
  set_state(ServiceState::kShadowEval);
}

void RetrainingService::step_shadow_eval() {
  obs::TraceSpan span("retrain.shadow_eval");
  std::deque<EvalPair> pairs;
  {
    std::lock_guard lock(tap_mutex_);
    pairs.swap(tap_queue_);
  }
  // The candidate predicts silently against live ground truth.  It is
  // exclusive to this thread — it has never been handed to the dispatcher,
  // so it cannot answer (or race) a query.
  for (const EvalPair& pair : pairs) {
    if (pair.input.size() != candidate_->input_dim() ||
        pair.truth.size() != candidate_->output_dim()) {
      continue;
    }
    const uq::Prediction prediction = candidate_->predict(pair.input);
    for (std::size_t d = 0; d < pair.truth.size(); ++d) {
      const double err = prediction.mean[d] - pair.truth[d];
      eval_sq_err_sum_ += err * err;
      if (std::abs(err) <= obs::kCoverageZ * prediction.stddev[d]) {
        eval_covered_dims_ += 1.0;
      }
      eval_dims_ += 1.0;
    }
    ++eval_samples_;
  }
  if (eval_samples_ < config_.min_eval_samples) return;  // keep collecting

  const double rmse =
      eval_dims_ == 0.0 ? 0.0 : std::sqrt(eval_sq_err_sum_ / eval_dims_);
  const double coverage =
      eval_dims_ == 0.0 ? 0.0 : eval_covered_dims_ / eval_dims_;
  {
    std::lock_guard lock(state_mutex_);
    stats_.last_eval_rmse = rmse;
    stats_.last_eval_coverage = coverage;
    stats_.last_eval_samples = eval_samples_;
  }

  // Promotion bar: beat the incumbent's drifted-era residual RMSE by the
  // configured margin AND hold UQ coverage.  A zero bar (the monitor
  // tripped on drift alone, before any shadow baseline) degenerates to the
  // coverage + finiteness test.
  // Only this thread writes stats_, so it reads the bar without the lock.
  const double bar = stats_.last_incumbent_rmse;
  const bool beats_rmse = bar > 0.0 ? rmse <= config_.max_rmse_ratio * bar
                                    : std::isfinite(rmse);
  const bool holds_coverage = coverage >= config_.min_coverage;
  if (beats_rmse && holds_coverage) {
    std::shared_ptr<uq::UqModel> candidate;
    {
      std::lock_guard lock(state_mutex_);
      candidate = std::move(candidate_);
      candidate_.reset();
    }
    promote(std::move(candidate), rmse, coverage);
    return;
  }

  // Rejected: the candidate never served a query; it is simply dropped.
  {
    std::lock_guard lock(state_mutex_);
    ++stats_.candidates_rejected;
    candidate_.reset();
    corpus_target_ = corpus_.size() + config_.min_corpus_size;
    attempts_this_request_ = 0;
  }
  set_state(ServiceState::kCollecting);
}

void RetrainingService::step_guard() {
  obs::SurrogateHealthMonitor* monitor = dispatcher_.health_monitor();
  if (!monitor) {  // nothing can re-trip; the guard window is moot
    set_state(ServiceState::kIdle);
    return;
  }
  const obs::HealthReport report = monitor->report();
  const std::uint64_t since =
      report.queries >= promoted_at_queries_
          ? report.queries - promoted_at_queries_
          : 0;
  if (report.retrain_requested && since <= config_.guard_window_queries) {
    (void)rollback("health monitor re-tripped inside the guard window");
    set_state(ServiceState::kIdle);
    return;
  }
  if (since > config_.guard_window_queries) {
    // Guard passed.  The prior model stays retained for manual rollback().
    set_state(ServiceState::kIdle);
  }
}

// ---------------------------------------------------------------------------
// Building blocks

void RetrainingService::absorb_banked() {
  data::Dataset banked = dispatcher_.take_retraining();
  if (banked.size() == 0) return;
  std::lock_guard lock(state_mutex_);
  if (!corpus_initialized_ && corpus_.size() == 0 &&
      (corpus_.input_dim() != banked.input_dim() ||
       corpus_.target_dim() != banked.target_dim())) {
    corpus_ = data::Dataset(banked.input_dim(), banked.target_dim());
  }
  corpus_.append(banked);
  corpus_initialized_ = true;
  trim_corpus();
}

void RetrainingService::trim_corpus() {
  // Caller holds state_mutex_.
  if (corpus_.size() <= kMaxCorpusSize) return;
  std::vector<std::size_t> newest(kMaxCorpusSize);
  std::iota(newest.begin(), newest.end(), corpus_.size() - kMaxCorpusSize);
  corpus_ = corpus_.subset(newest);
}

TrainedCandidate RetrainingService::train_candidate_checked() {
  obs::TraceSpan span("retrain.train");
  data::Dataset corpus;
  {
    std::lock_guard lock(state_mutex_);
    corpus = corpus_;
  }
  if (corpus.size() == 0) {
    throw std::runtime_error("retrain: empty corpus");
  }

  std::size_t attempt_ordinal = 0;
  {
    std::lock_guard lock(state_mutex_);
    attempt_ordinal = stats_.train_attempts;
  }
  stats::Rng attempt_rng = rng_.split(1000 + attempt_ordinal);
  TrainedCandidate candidate;
  if (config_.trainer) {
    candidate = config_.trainer(corpus, attempt_rng);
  } else {
    stats::Rng net_rng = attempt_rng.split(1);
    stats::Rng fit_rng = attempt_rng.split(2);
    uq::McDropoutFit fit = uq::train_mc_dropout(
        corpus, config_.hidden, config_.dropout_rate, config_.mc_passes,
        config_.train, net_rng, fit_rng);
    candidate.model = std::move(fit.model);
    candidate.final_loss = fit.final_loss;
  }

  // Trainer fault injection: the configured injector corrupts the reported
  // loss exactly as it corrupts simulation outputs — a throw is a crashed
  // attempt, NaN/Inf corruption a diverged one, range corruption a stuck
  // one (caught by kMaxFinalLoss below).
  if (config_.trainer_faults) {
    runtime::SimFn identity = [](std::span<const double> values) {
      return std::vector<double>(values.begin(), values.end());
    };
    runtime::SimFn poisoned = config_.trainer_faults->wrap(std::move(identity));
    const std::vector<double> loss_in{candidate.final_loss};
    candidate.final_loss = poisoned(loss_in).at(0);
  }

  // A kill here proves training itself is not a durability hazard: nothing
  // was checkpointed and nothing was swapped, so a resumed campaign keeps
  // the incumbent (tests/test_retrain.cpp kill-and-resume).
  runtime::crash_point("retrain.trained");

  if (!candidate.model) {
    throw std::runtime_error("retrain: trainer returned no model");
  }
  if (!std::isfinite(candidate.final_loss) ||
      candidate.final_loss > kMaxFinalLoss) {
    throw std::runtime_error("retrain: training loss invalid or stuck");
  }
  // One sanity prediction: a candidate that cannot produce finite output
  // on its own training data is never worth shadow-evaluating.
  const uq::Prediction probe =
      candidate.model->predict(corpus.input(corpus.size() - 1));
  if (!all_finite(probe.mean) || !all_finite(probe.stddev)) {
    throw std::runtime_error("retrain: candidate predicts non-finite values");
  }
  return candidate;
}

void RetrainingService::promote(std::shared_ptr<uq::UqModel> candidate,
                                double eval_rmse, double eval_coverage) {
  obs::TraceSpan span("retrain.promote");

  // Crash consistency: persist the validated candidate BEFORE the swap.
  // A kill after the save resumes into this candidate; a kill before it
  // resumes into the incumbent.  Either way the serving model is one that
  // passed validation — never a half-trained artifact.
  if (config_.checkpointer) {
    ckpt::CampaignState snapshot;
    snapshot.kind = kCheckpointKind;
    {
      std::lock_guard lock(state_mutex_);
      snapshot.progress = stats_.promotions + 1;
      snapshot.dataset = corpus_;
    }
    snapshot.rng_state = ckpt::encode_rng(rng_);
    snapshot.scalars = {eval_rmse, eval_coverage,
                        static_cast<double>(config_.mc_passes)};
    if (auto* mc = dynamic_cast<uq::McDropoutEnsemble*>(candidate.get())) {
      std::ostringstream text;
      nn::save_network(text, mc->network());
      snapshot.network_text = text.str();
    }
    (void)config_.checkpointer->save(snapshot);
  }
  runtime::crash_point("retrain.promote_saved");

  // Swap, then heal the monitor.  This order means the monitor can only
  // ever report HEALTHY while the candidate is already serving; the brief
  // window where the candidate serves under a still-UNTRUSTED monitor is
  // harmless (the breaker resets with the swap).
  std::shared_ptr<uq::UqModel> prior = dispatcher_.current_surrogate();
  dispatcher_.replace_surrogate(candidate);
  tensor::Matrix new_reference;
  {
    std::lock_guard lock(state_mutex_);
    new_reference = corpus_.input_matrix();
  }
  obs::SurrogateHealthMonitor* monitor = dispatcher_.health_monitor();
  if (monitor) monitor->on_retrained(new_reference);

  {
    std::lock_guard lock(state_mutex_);
    prior_model_ = std::move(prior);
    prior_reference_ = incumbent_reference_;
    incumbent_reference_ = std::move(new_reference);
    promoted_at_queries_ = monitor ? monitor->report().queries : 0;
    ++stats_.promotions;
  }
  set_state(ServiceState::kGuard);
}

bool RetrainingService::rollback(const std::string& reason) {
  (void)reason;
  std::shared_ptr<uq::UqModel> prior;
  tensor::Matrix prior_reference;
  {
    std::lock_guard lock(state_mutex_);
    if (!prior_model_) return false;
    prior = std::move(prior_model_);
    prior_model_.reset();
    prior_reference = prior_reference_;
  }
  obs::TraceSpan span("retrain.rollback");
  dispatcher_.replace_surrogate(prior);
  obs::SurrogateHealthMonitor* monitor = dispatcher_.health_monitor();
  if (monitor && prior_reference.rows() > 0) {
    monitor->on_rolled_back(prior_reference);
  }
  {
    std::lock_guard lock(state_mutex_);
    incumbent_reference_ = std::move(prior_reference);
    ++stats_.rollbacks;
  }
  return true;
}

bool RetrainingService::resume_from_checkpoint() {
  if (!config_.checkpointer) return false;
  std::optional<ckpt::CampaignState> snapshot =
      config_.checkpointer->load_latest();
  if (!snapshot || snapshot->kind != kCheckpointKind ||
      snapshot->network_text.empty()) {
    return false;
  }
  std::shared_ptr<uq::McDropoutEnsemble> candidate;
  try {
    std::istringstream text(snapshot->network_text);
    stats::Rng net_rng = rng_.split(424242);
    std::size_t passes = config_.mc_passes;
    if (snapshot->scalars.size() >= 3 && snapshot->scalars[2] >= 1.0) {
      passes = static_cast<std::size_t>(snapshot->scalars[2]);
    }
    candidate = std::make_shared<uq::McDropoutEnsemble>(
        nn::load_network(text, net_rng), passes);
  } catch (const std::exception&) {
    return false;  // torn/incompatible snapshot: keep the incumbent
  }

  std::shared_ptr<uq::UqModel> prior = dispatcher_.current_surrogate();
  try {
    dispatcher_.replace_surrogate(candidate);
  } catch (const std::exception&) {
    return false;  // shape mismatch: snapshot belongs to another dispatcher
  }
  const tensor::Matrix reference = snapshot->dataset.input_matrix();
  obs::SurrogateHealthMonitor* monitor = dispatcher_.health_monitor();
  if (monitor && reference.rows() > 0) monitor->on_retrained(reference);

  {
    std::lock_guard lock(state_mutex_);
    prior_model_ = std::move(prior);
    prior_reference_ = incumbent_reference_;
    corpus_ = std::move(snapshot->dataset);
    corpus_initialized_ = corpus_.size() > 0;
    incumbent_reference_ = reference;
    promoted_at_queries_ = monitor ? monitor->report().queries : 0;
    ++stats_.promotions;
    if (snapshot->scalars.size() >= 2) {
      stats_.last_eval_rmse = snapshot->scalars[0];
      stats_.last_eval_coverage = snapshot->scalars[1];
    }
  }
  set_state(ServiceState::kGuard);
  return true;
}

// ---------------------------------------------------------------------------
// Accessors, metrics

ServiceState RetrainingService::state() const {
  std::lock_guard lock(state_mutex_);
  return state_;
}

RetrainingStats RetrainingService::stats() const {
  std::lock_guard lock(state_mutex_);
  return stats_;
}

std::shared_ptr<uq::UqModel> RetrainingService::prior_model() const {
  std::lock_guard lock(state_mutex_);
  return prior_model_;
}

void RetrainingService::set_state(ServiceState next) {
  std::lock_guard lock(state_mutex_);
  state_ = next;
}

void RetrainingService::export_metrics(obs::MetricsSnapshot& out,
                                       const std::string& prefix) const {
  std::lock_guard lock(state_mutex_);
  const RetrainingStats& s = stats_;
  out.add(prefix,
          {{"requests", s.retrain_requests_seen},
           {"train_attempts", s.train_attempts},
           {"train_failures", s.train_failures},
           {"candidates_rejected", s.candidates_rejected},
           {"promotions", s.promotions}, {"rollbacks", s.rollbacks}},
          {{"state", static_cast<double>(state_)},
           {"corpus_size", static_cast<double>(corpus_.size())},
           {"last_eval_rmse", s.last_eval_rmse},
           {"last_eval_coverage", s.last_eval_coverage}});
}

void RetrainingService::enable_metrics(obs::MetricsRegistry& registry,
                                       const std::string& prefix) {
  m_train_seconds_ = &registry.histogram(prefix + ".train_seconds");
  metrics_ = registry.attach(*this, prefix);
}

}  // namespace le::retrain
