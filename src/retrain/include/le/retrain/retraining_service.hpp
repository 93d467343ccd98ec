/// @file
/// Autonomous surrogate retraining (le::retrain): the loop that closes the
/// paper's auto-tunability outcome (Section II-C1, "with new simulation
/// runs the ML layer gets better at making predictions") without a human
/// in it.
///
/// When the health monitor latches UNTRUSTED (obs/health.hpp) the
/// dispatcher's circuit breaker opens and every query falls back to the
/// real simulation — correct, but S_eff collapses to ~1.  Those fallback
/// runs are exactly the labelled samples a replacement model needs
/// ("no run is wasted"), so RetrainingService watches retrain_requested(),
/// banks the fallback/shadow corpus via take_retraining(), trains a
/// candidate network on its own thread while serving continues degraded,
/// shadow-evaluates the candidate against live ground truth (the candidate
/// predicts silently; it never answers a query), and promotes it through
/// replace_surrogate() + on_retrained() only if it beats the incumbent's
/// degraded-era residual RMSE and holds UQ coverage.  A promotion is
/// crash-consistent (the candidate is checkpointed before the swap) and
/// reversible: the prior model is retained, and if the monitor re-trips
/// inside a guard window the service rolls back in one call and re-latches
/// the monitor via on_rolled_back().
///
/// Trainer robustness: training attempts may be wrapped by a
/// runtime::FaultInjector (NaN losses, crashes, stuck convergence).  A
/// failed attempt is retried on the next poll up to a bound; after that the
/// service re-arms — it returns to collecting a larger corpus rather than
/// wedging or promoting a broken candidate.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "le/core/surrogate.hpp"
#include "le/data/dataset.hpp"
#include "le/nn/train.hpp"
#include "le/obs/metrics.hpp"
#include "le/stats/rng.hpp"
#include "le/tensor/matrix.hpp"

namespace le::ckpt {
class CampaignCheckpointer;
}  // namespace le::ckpt

namespace le::runtime {
class FaultInjector;
}  // namespace le::runtime

namespace le::uq {
class UqModel;
}  // namespace le::uq

namespace le::retrain {

/// Where the service is in its detect -> train -> shadow-eval -> promote
/// loop (DESIGN.md section 12 has the full state machine).
enum class ServiceState {
  kIdle = 0,        ///< surrogate trusted; watching for a retrain request
  kCollecting = 1,  ///< request seen; absorbing banked fallback corpus
  kTraining = 2,    ///< candidate training (bounded retries, one per poll)
  kShadowEval = 3,  ///< candidate predicting silently against live truth
  kGuard = 4,       ///< candidate promoted; rollback armed for a window
  kStopped = 5,     ///< stop() called; the loop will not run again
};

[[nodiscard]] std::string to_string(ServiceState state);

/// Trains a candidate model from a corpus.  The default trainer is
/// uq::train_mc_dropout, the adaptive loop's trainer; tests
/// substitute poisoned trainers to prove rejection paths.  Must throw on
/// failure or return a non-null model plus the final training loss.
struct TrainedCandidate {
  std::shared_ptr<uq::UqModel> model;
  double final_loss = 0.0;
};
using TrainerFn = std::function<TrainedCandidate(const data::Dataset& corpus,
                                                 stats::Rng& rng)>;

struct RetrainingConfig {
  // ---- corpus ----------------------------------------------------------
  /// Banked samples required before a training attempt starts.  After a
  /// round of training failures the requirement grows (fresh data beats
  /// retrying on the same corpus).
  std::size_t min_corpus_size = 64;

  // ---- candidate training ---------------------------------------------
  std::vector<std::size_t> hidden = {32, 32};
  double dropout_rate = 0.1;
  std::size_t mc_passes = 24;
  nn::TrainConfig train;
  std::uint64_t seed = 101;
  /// Bounded retries: attempts per retrain request before the service
  /// re-arms (returns to kCollecting with a grown corpus requirement).
  /// A failed attempt below the bound is retried on the next poll.
  std::size_t max_train_attempts = 3;
  /// Optional fault injection over the trainer (see file comment).  The
  /// injector corrupts the reported training loss exactly as it corrupts
  /// simulation outputs: throws are crashed attempts, NaN/Inf and
  /// out-of-range corruptions read as diverged/stuck training.  Must
  /// outlive the service.
  runtime::FaultInjector* trainer_faults = nullptr;
  /// Custom trainer; null uses the default MLP trainer.
  TrainerFn trainer;

  // ---- shadow evaluation ----------------------------------------------
  /// Ground-truth pairs the candidate must be scored on before the
  /// promotion decision.
  std::size_t min_eval_samples = 32;
  /// Promote only if candidate RMSE <= max_rmse_ratio * incumbent RMSE
  /// (the incumbent's rolling residual RMSE on the drifted stream, captured
  /// when the retrain request was seen)...
  double max_rmse_ratio = 0.9;
  /// ...and candidate empirical coverage at obs::kCoverageZ is at least
  /// this.
  double min_coverage = 0.5;

  // ---- promotion guard -------------------------------------------------
  /// If the health monitor re-trips within this many observed queries of a
  /// promotion, the service rolls back to the prior model automatically.
  std::uint64_t guard_window_queries = 512;

  // ---- service ---------------------------------------------------------
  /// Background-thread poll cadence (start()/stop() mode).  poll_once()
  /// ignores it.
  double poll_interval_seconds = 0.01;
  /// Crash-consistent promotion: the candidate snapshot (kind
  /// "retrain_service") is saved here BEFORE the swap, so a kill between
  /// save and swap resumes into the validated candidate, and a kill before
  /// the save resumes into the incumbent — never a half-trained model.
  /// Null disables checkpointing (promotions are then memory-only).
  ckpt::CampaignCheckpointer* checkpointer = nullptr;
};

/// Lifetime totals plus the last shadow-evaluation verdict.
struct RetrainingStats {
  std::size_t retrain_requests_seen = 0;
  std::size_t train_attempts = 0;
  std::size_t train_failures = 0;  ///< threw, NaN/stuck loss, invalid model
  std::size_t candidates_trained = 0;
  std::size_t candidates_rejected = 0;  ///< failed shadow evaluation
  std::size_t promotions = 0;
  std::size_t rollbacks = 0;
  double train_seconds = 0.0;
  // Last completed shadow evaluation:
  double last_eval_rmse = 0.0;
  double last_eval_coverage = 0.0;
  std::size_t last_eval_samples = 0;
  /// Incumbent's rolling residual RMSE on the drifted stream, captured at
  /// the retrain request: the bar a candidate must beat.
  double last_incumbent_rmse = 0.0;
};

/// The autonomous retraining loop.  One service per dispatcher; the
/// dispatcher, its health monitor, and any injector/checkpointer in the
/// config must outlive the service.
///
/// Threading: the service touches the dispatcher only through its
/// thread-safe surface (take_retraining, current_surrogate,
/// replace_surrogate, the internally-locked health monitor) and receives
/// ground truth through the dispatcher's tap into an internally-locked
/// queue, so start() may run concurrently with a serving thread
/// (tests/test_retrain.cpp proves promotion and rollback under TSan).
/// poll_once()/rollback()/resume_from_checkpoint() are for single-threaded
/// deterministic use and must not race start().
class RetrainingService {
 public:
  RetrainingService(core::SurrogateDispatcher& dispatcher,
                    RetrainingConfig config);
  ~RetrainingService();
  RetrainingService(const RetrainingService&) = delete;
  RetrainingService& operator=(const RetrainingService&) = delete;

  /// Seeds the corpus (and the incumbent's drift-reference inputs, used to
  /// re-latch the monitor on rollback) from the incumbent's training set.
  /// Call before serving starts.
  void seed_corpus(const data::Dataset& corpus);

  /// Spawns the background loop: poll_once() every poll_interval_seconds.
  void start();
  /// Stops and joins the background loop (idempotent; also run by the
  /// destructor).  State becomes kStopped.
  void stop();

  /// One synchronous step of the state machine; returns the state after
  /// the step.  Deterministic-test entry point — identical logic to the
  /// background loop.
  ServiceState poll_once();

  /// Restores the prior model (one call): replace_surrogate(prior) +
  /// health_monitor->on_rolled_back(prior reference).  No-op without a
  /// retained prior.  Returns true when a rollback happened.
  bool rollback(const std::string& reason);

  /// Resumes a promotion from the newest valid "retrain_service" snapshot:
  /// rebuilds the saved candidate, installs it, heals the monitor and
  /// enters the guard window.  Returns false (incumbent stays; state
  /// untouched) when no valid snapshot exists — a kill mid-training leaves
  /// nothing to resume, which is the correct outcome: the service never
  /// serves a half-trained model.
  bool resume_from_checkpoint();

  [[nodiscard]] ServiceState state() const;
  [[nodiscard]] RetrainingStats stats() const;
  [[nodiscard]] const RetrainingConfig& config() const noexcept {
    return config_;
  }
  /// The model retained for rollback (null until the first promotion).
  [[nodiscard]] std::shared_ptr<uq::UqModel> prior_model() const;

  /// Writes stats() as "<prefix>.*": counters requests, train_attempts,
  /// train_failures, candidates_rejected, promotions, rollbacks and gauges
  /// state, corpus_size, last_eval_rmse, last_eval_coverage.
  void export_metrics(obs::MetricsSnapshot& out,
                      const std::string& prefix) const;

  /// Attaches export_metrics() to `registry` for the service's lifetime
  /// and records each training attempt's seconds into
  /// "<prefix>.train_seconds".
  void enable_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "retrain");

 private:
  struct EvalPair {
    std::vector<double> input;
    std::vector<double> truth;
  };

  void run_loop();
  // State handlers (hold no lock; stats/state mutated under state_mutex_).
  void step_idle();
  void step_collecting();
  void step_training();
  void step_shadow_eval();
  void step_guard();

  void absorb_banked();
  void trim_corpus();
  [[nodiscard]] TrainedCandidate train_candidate_checked();
  void promote(std::shared_ptr<uq::UqModel> candidate, double eval_rmse,
               double eval_coverage);
  void set_state(ServiceState next);

  core::SurrogateDispatcher& dispatcher_;
  RetrainingConfig config_;
  stats::Rng rng_;

  mutable std::mutex state_mutex_;  ///< guards everything below it
  ServiceState state_ = ServiceState::kIdle;
  RetrainingStats stats_;
  data::Dataset corpus_;
  bool corpus_initialized_ = false;
  /// Drift-reference inputs of the currently serving model (for
  /// on_rolled_back) and of the model before the last promotion.
  tensor::Matrix incumbent_reference_;
  tensor::Matrix prior_reference_;
  std::shared_ptr<uq::UqModel> prior_model_;
  /// Training-attempt bookkeeping for the current request.
  std::size_t attempts_this_request_ = 0;
  std::size_t corpus_target_ = 0;
  std::shared_ptr<uq::UqModel> candidate_;
  /// Shadow-eval accumulators for the current candidate.
  double eval_sq_err_sum_ = 0.0;
  double eval_covered_dims_ = 0.0;
  double eval_dims_ = 0.0;
  std::size_t eval_samples_ = 0;
  /// Guard-window anchor: monitor query count at promotion.
  std::uint64_t promoted_at_queries_ = 0;

  /// Ground-truth tap queue (serving thread pushes, service thread pops).
  std::mutex tap_mutex_;
  std::deque<EvalPair> tap_queue_;
  bool tap_armed_ = false;

  /// Background loop.
  std::thread thread_;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  bool stop_requested_ = false;

  /// Null until enable_metrics().
  obs::Histogram* m_train_seconds_ = nullptr;
  obs::MetricsSource metrics_;  ///< detaches before the state it reads
};

}  // namespace le::retrain
