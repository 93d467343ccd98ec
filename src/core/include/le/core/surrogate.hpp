/// @file
/// The MLaroundHPC runtime: a UQ-gated dispatcher that answers queries from
/// the learned surrogate when the prediction is trustworthy and falls back
/// to the real simulation otherwise.
///
/// This is the paper's "ML wrapper" around an HPC simulation made concrete:
/// "one must learn not just the result of a simulation but also the
/// uncertainty of the prediction e.g. if the learned result is valid enough
/// to be used" (Section III-B).  Fallback runs are fed back into a training
/// buffer ("No run is wasted", Section II-C1), so the wrapper exhibits the
/// auto-tunability outcome 3 of that section: with new simulation runs the
/// ML layer gets better at making predictions.
///
/// Robustness: surrogate outputs are validated (finite, dimension-correct)
/// before they can be accepted, and an optional CircuitBreaker (resilient.hpp)
/// trips the surrogate path to simulation-only mode after a run of invalid
/// predictions, half-opening later to probe for recovery.
///
/// One request path (DESIGN.md section 10): query() is a one-row
/// query_batch(), so a single pipeline decides and books every outcome.
/// Serving throughput (Section III-D: T_lookup is an infrastructure number,
/// not an arithmetic one): an optional serve::LookupCache remembers
/// gate-accepted answers keyed by quantized input so repeated queries are
/// O(1), and a batch's cache misses share one surrogate forward instead of
/// per-query dispatch.  bench_serving (E13) quantifies both levers.
///
/// Health: enable_health_monitoring() attaches an obs::SurrogateHealthMonitor
/// that watches input drift, shadow-sampled residuals and UQ calibration,
/// and trips the circuit breaker when the surrogate becomes untrusted
/// (bench_health, E14).
///
/// Overload (DESIGN.md section 14, bench_overload E17): query()/query_batch()
/// accept per-request deadlines — an expired request is shed before any
/// model work (never inside a GEMM) with AnswerSource::kShed, which is an
/// explicit outcome distinct from model failure: it feeds neither the
/// breaker nor the speedup meter.  attach_degradation() wires a
/// serve::DegradationLadder brownout policy over the serving tiers: under
/// rising pressure the dispatcher serves the registered degraded surrogate
/// (set_degraded_surrogate), then cache hits only, then sheds — and at any
/// degraded level the simulation fallback is disabled, because running the
/// most expensive path under overload is exactly the collapse mode the
/// ladder exists to prevent.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "le/data/dataset.hpp"
#include "le/obs/metrics.hpp"
#include "le/serve/lookup_cache.hpp"
#include "le/serve/overload.hpp"
#include "le/uq/uq_model.hpp"

namespace le::serve {
class DegradationLadder;
enum class ServiceLevel : int;
}  // namespace le::serve

namespace le::obs {
class EffectiveSpeedupMeter;
class SurrogateHealthMonitor;
struct SurrogateHealthConfig;
}  // namespace le::obs

namespace le::core {

class CircuitBreaker;
struct CircuitBreakerConfig;

/// The real simulation: maps an input state point to the output features.
/// Implementations may be arbitrarily expensive — that is the point.
using SimulationFn =
    std::function<std::vector<double>(std::span<const double>)>;

/// Observer of every ground-truth (input, simulation output) pair the
/// dispatcher produces — fallback runs and shadow samples alike.  The
/// retraining service taps this to shadow-evaluate candidate models
/// against live traffic without ever letting them answer queries.  Runs
/// on the serving thread; implementations must be cheap and thread-safe.
using GroundTruthTap =
    std::function<void(std::span<const double> input,
                       std::span<const double> truth)>;

/// How a query was answered — or, for kShed, deliberately refused.  kShed
/// is NOT a model failure: no prediction was attempted, `values` is empty,
/// and `shed_reason` says why (deadline expired, overload brownout).
enum class AnswerSource { kSurrogate, kSimulation, kShed };

struct Answer {
  std::vector<double> values;
  AnswerSource source = AnswerSource::kSurrogate;
  double uncertainty = 0.0;    ///< surrogate uncertainty score at the query
  double seconds = 0.0;        ///< wall time to produce this answer
  /// True when the answer came from the learned-lookup cache (a previously
  /// gate-accepted surrogate answer) rather than a fresh forward pass.
  bool from_cache = false;
  /// True when the answer came from the registered degraded surrogate
  /// because the degradation ladder held kDegraded.
  bool degraded = false;
  /// Why the request was shed; kNone unless source == kShed.
  serve::ShedReason shed_reason = serve::ShedReason::kNone;
};

struct DispatcherStats {
  std::size_t surrogate_answers = 0;
  std::size_t simulation_answers = 0;
  double surrogate_seconds = 0.0;
  double simulation_seconds = 0.0;
  /// Mean surrogate uncertainty over accepted (surrogate) answers; 0 until
  /// the first acceptance.
  double mean_accepted_uncertainty = 0.0;
  /// Surrogate predictions rejected as invalid (NaN/Inf mean, non-finite
  /// score, wrong output length) before the uncertainty gate was consulted.
  std::size_t invalid_predictions = 0;
  /// Queries routed straight to the simulation because the circuit breaker
  /// held the surrogate path open.
  std::size_t breaker_short_circuits = 0;
  /// Surrogate answers served from the learned-lookup cache (a subset of
  /// surrogate_answers); 0 until enable_lookup_cache().
  std::size_t cache_hits = 0;
  /// Accepted surrogate answers re-run through the real simulation for the
  /// health monitor's residual/coverage tracking; 0 until
  /// enable_health_monitoring().
  std::size_t shadow_samples = 0;
  /// Wall time spent inside those shadow simulations.  Billed to the meter
  /// as training-path time (the samples land in the training buffer), NOT
  /// as lookup time — monitoring cost must not inflate S_eff.
  double shadow_seconds = 0.0;
  /// Requests shed because their deadline had expired (before any model
  /// work).  Not counted in total(): nothing was answered.
  std::size_t shed_deadline = 0;
  /// Requests shed by the degradation ladder (kShedAll, a cache miss at
  /// kCacheOnly, or a gate rejection at a degraded level).
  std::size_t shed_overload = 0;
  /// Surrogate answers produced by the registered degraded surrogate
  /// rather than the full model (a subset of surrogate_answers).
  std::size_t degraded_answers = 0;

  [[nodiscard]] std::size_t total() const noexcept {
    return surrogate_answers + simulation_answers;
  }
  [[nodiscard]] std::size_t shed_total() const noexcept {
    return shed_deadline + shed_overload;
  }
  /// Fraction of queries served by the surrogate.
  [[nodiscard]] double surrogate_fraction() const noexcept {
    return total() == 0 ? 0.0
                        : static_cast<double>(surrogate_answers) /
                              static_cast<double>(total());
  }
};

class SurrogateDispatcher {
 public:
  /// `threshold` is the maximum acceptable uncertainty score; queries whose
  /// surrogate spread exceeds it are routed to the simulation.
  SurrogateDispatcher(std::shared_ptr<uq::UqModel> surrogate,
                      SimulationFn simulation, double threshold);
  ~SurrogateDispatcher();
  /// Immovable: serving threads, ground-truth taps and the retraining
  /// service all hold references to a live dispatcher (and the internal
  /// locks pin its address anyway).
  SurrogateDispatcher(SurrogateDispatcher&&) = delete;
  SurrogateDispatcher& operator=(SurrogateDispatcher&&) = delete;

  /// Answers one query through the gate, as a batch of one: the input is
  /// packed as a one-row matrix and answered by query_batch(), so it gets
  /// exactly the batch pipeline's outcome and booking — including its
  /// std::invalid_argument on an input whose width is not the model's.
  [[nodiscard]] Answer query(std::span<const double> input,
                             serve::Deadline deadline = std::nullopt);

  /// The dispatcher's one request pipeline; `deadlines` is empty (no
  /// deadlines) or one entry per row.  The ladder level and the model are
  /// read once per batch; then, in order: (1) rows whose deadline expired,
  /// and every row at kShedAll, are shed (AnswerSource::kShed) before any
  /// model work; (2) live inputs feed the health monitor's drift detector;
  /// (3) cache hits that pass the current threshold answer with no
  /// forward, and at kCacheOnly every miss is shed; (4) the breaker is
  /// consulted once for the misses (open: straight to fallback); (5)
  /// misses that expired meanwhile are shed, the rest share ONE
  /// UqModel::predict_batch whatever their count (a one-row predict_batch
  /// answers exactly as predict(), so query() needs no path of its own);
  /// (6) invalid predictions feed the breaker,
  /// gate-accepted ones are cached and may be shadow sampled; (7) declined
  /// rows run the simulation at kFull unless their deadline has passed,
  /// and are shed at degraded levels.
  /// Answers come back in row order; the cache pass's wall time is split
  /// evenly over the live rows, the forward's over the rows it served.
  /// Throws std::invalid_argument, before booking anything, when `inputs`
  /// is not input_dim() wide or `deadlines` has the wrong length.
  [[nodiscard]] std::vector<Answer> query_batch(
      const tensor::Matrix& inputs,
      std::span<const serve::Deadline> deadlines = {});

  /// Arms the learned-lookup cache (the paper's "learned lookup table"
  /// made literal): every answer the UQ gate accepts is remembered keyed
  /// by quantized input, and a repeated query is answered in O(1) with no
  /// forward pass.  A hit is re-checked against the *current* threshold
  /// (tightening the gate invalidates looser cached answers), and
  /// replace_surrogate() clears the cache, so a hit always reflects an
  /// answer the current surrogate produced and the current gate accepts.
  void enable_lookup_cache(const serve::LookupCacheConfig& config);

  /// The armed cache, or nullptr when none was enabled.
  [[nodiscard]] const serve::LookupCache* lookup_cache() const noexcept;

  /// Fallback runs accumulate here as fresh labelled samples for retraining.
  /// Single-threaded inspection only: the reference is not protected
  /// against a concurrent serving thread appending.  Concurrent consumers
  /// (the retraining service) must use take_retraining() instead.
  [[nodiscard]] const data::Dataset& training_buffer() const noexcept {
    return buffer_;
  }
  /// Takes the banked shadow/fallback corpus, leaving the buffer empty
  /// (retraining consumes it); resets the per-buffer aggregates alongside
  /// it.  Thread-safe against the serving path: the buffer is handed off
  /// under the same lock the fallback/shadow appends take, so a retraining
  /// service may call this from its own thread while queries are in
  /// flight (tests/test_retrain.cpp proves the handoff under TSan).
  [[nodiscard]] data::Dataset take_retraining();

  /// Mean uncertainty score of the fallback runs currently buffered — a
  /// gauge of how far outside the surrogate's competence the buffered
  /// region lies; 0 when the buffer is empty.
  [[nodiscard]] double mean_buffered_uncertainty() const noexcept;

  /// A copy of the counts; safe to call from any thread.
  [[nodiscard]] DispatcherStats stats() const;
  [[nodiscard]] double threshold() const noexcept { return threshold_; }
  void set_threshold(double threshold);

  /// Swaps in a retrained surrogate (auto-tunability outcome 3).
  /// Thread-safe against in-flight queries: the swap happens under the
  /// model lock the query paths copy the surrogate through, so a
  /// retraining service can hot-promote (and roll back) while the
  /// serving thread keeps answering.
  void replace_surrogate(std::shared_ptr<uq::UqModel> surrogate);

  /// The surrogate currently answering queries.  The returned shared_ptr
  /// keeps the model alive across a concurrent replace_surrogate(), so
  /// the retraining service can retain the incumbent for one-call
  /// rollback.
  [[nodiscard]] std::shared_ptr<uq::UqModel> current_surrogate() const;

  /// Attaches the graceful-degradation ladder (serve/degradation.hpp).
  /// The ladder is shared: a serve::BatchQueue in front of this dispatcher
  /// feeds it queue waits (BatchQueue::set_degradation) while the
  /// dispatcher enforces its level; the dispatcher itself records no
  /// pressure.  Wire-up time only; pass nullptr to detach.
  void attach_degradation(std::shared_ptr<serve::DegradationLadder> ladder);

  /// The attached ladder, or nullptr.
  [[nodiscard]] serve::DegradationLadder* degradation_ladder() const noexcept {
    return ladder_.get();
  }

  /// Registers the cheaper surrogate the ladder serves at
  /// ServiceLevel::kDegraded (typically a lower-fidelity cut of the
  /// incumbent, such as an MC-dropout ensemble with fewer passes).
  /// Admission is bounded by the UQ gate: `added_error`, the model's
  /// measured added error against the full model, must fit inside the
  /// current threshold, otherwise the tier could never answer and the call
  /// throws std::invalid_argument.
  /// Degraded answers are flagged (Answer::degraded),
  /// counted in stats().degraded_answers, never inserted into the lookup
  /// cache (the cache stores full-fidelity answers only) and never shadow
  /// sampled.  replace_surrogate() clears the registration — a degraded
  /// cut of a retired model must not serve the new era.  Pass nullptr
  /// to deregister.
  void set_degraded_surrogate(std::shared_ptr<uq::UqModel> degraded,
                              double added_error);

  /// Runs the current surrogate's startup kernel autotuner
  /// (UqModel::autotune_inference) sized for `batch_hint`-row forwards —
  /// the ATLAS-style per-layer (kernel, blocking) search of DESIGN.md
  /// section 13.  Call at serving startup and after every promotion;
  /// returns the per-layer decisions for logging.
  std::vector<nn::LayerPlanChoice> autotune_serving(std::size_t batch_hint);

  /// Registers an observer of every ground-truth pair the dispatcher
  /// produces (fallback simulations and shadow samples).  Must be set
  /// before serving starts; pass nullptr to detach.  The retraining
  /// service uses this to feed its candidate shadow evaluation.
  void set_ground_truth_tap(GroundTruthTap tap);

  /// Arms a circuit breaker over the surrogate path: after
  /// `config.failure_threshold` consecutive invalid predictions the
  /// dispatcher answers from the simulation alone until the breaker
  /// half-opens and a probe prediction validates.
  void enable_circuit_breaker(const CircuitBreakerConfig& config);

  /// The armed breaker, or nullptr when none was enabled.
  [[nodiscard]] const CircuitBreaker* circuit_breaker() const noexcept;

  /// Arms surrogate health monitoring (obs/health.hpp): every query input
  /// feeds the input-drift detector (cache hits included — drift is a
  /// property of the demand stream), and a deterministic
  /// `config.shadow_fraction` of freshly accepted surrogate answers is
  /// re-run through the real simulation as a shadow sample for residual
  /// RMSE and UQ-calibration coverage.  Shadow runs land in the training
  /// buffer and are billed as training-path time.  When the monitor
  /// reaches UNTRUSTED and a circuit breaker is armed, the breaker is
  /// tripped, so queries fall back to the simulation until retraining
  /// (see AdaptiveLoopConfig::health_monitor) restores trust.
  /// `reference_inputs` seeds the drift reference (training-corpus inputs).
  void enable_health_monitoring(const obs::SurrogateHealthConfig& config,
                                const tensor::Matrix& reference_inputs);

  /// The armed health monitor, or nullptr when none was enabled.
  [[nodiscard]] obs::SurrogateHealthMonitor* health_monitor() noexcept;
  [[nodiscard]] const obs::SurrogateHealthMonitor* health_monitor()
      const noexcept;

  /// Writes stats() as "<prefix>.*" (answer, shed and failure counters,
  /// the surrogate fraction and the breaker state gauge, 0 closed / 1 open
  /// / 2 half-open), then the armed cache's and health monitor's metrics
  /// under "<prefix>.cache" and "<prefix>.health".  Safe from any thread
  /// once the cache, breaker and monitor are armed.
  void export_metrics(obs::MetricsSnapshot& out,
                      const std::string& prefix) const;

  /// Attaches export_metrics() to `registry` for the dispatcher's lifetime
  /// and records per-answer latencies into the "<prefix>.surrogate_seconds",
  /// "<prefix>.simulation_seconds" and "<prefix>.shadow_seconds"
  /// histograms.
  void enable_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "dispatcher");

  /// Attaches a live Section III-D meter: surrogate answers are recorded
  /// as lookups, fallback simulations as training runs (they land in the
  /// training buffer — "no run is wasted").  Pass nullptr to detach.
  void set_speedup_meter(obs::EffectiveSpeedupMeter* meter) noexcept {
    meter_ = meter;
  }

 private:
  /// Books a batch's surrogate answers (source kSurrogate, fresh or
  /// cached) into stats and the speedup meter under one lock.  The
  /// per-answer sums (seconds, accepted uncertainty) are added row by row,
  /// so they equal booking each answer alone.
  void book_surrogate_answers(std::span<const Answer> answers);

  /// Builds and books one shed outcome.  Shed answers are excluded from
  /// the speedup meter (nothing was looked up, nothing was trained) and
  /// never feed the breaker — being refused is not a model failure.
  [[nodiscard]] Answer make_shed_answer(serve::ShedReason reason,
                                        double seconds);

  /// The model serving at `level`, copied under model_mutex_: the
  /// registered degraded surrogate at kDegraded (sets `degraded`), the
  /// incumbent otherwise.  A concurrent replace_surrogate() affects the
  /// next batch, never a half-answered one.
  [[nodiscard]] std::shared_ptr<uq::UqModel> serving_surrogate(
      serve::ServiceLevel level, bool& degraded) const;

  /// Banks one ground-truth pair, a fallback answer or a shadow sample:
  /// training buffer, ground-truth tap and the meter's train side.  The
  /// caller books the stats and metrics of its kind.
  void bank_ground_truth(std::span<const double> input,
                         const std::vector<double>& truth, double uncertainty,
                         double seconds);

  /// Re-runs one accepted answer through the real simulation and feeds the
  /// health monitor's residual/coverage tracker; the sample joins the
  /// training buffer and its wall time is billed as training-path time.
  void shadow_sample(std::span<const double> input,
                     const std::vector<double>& predicted_mean,
                     const std::vector<double>& predicted_stddev,
                     double uncertainty);

  /// Trips the armed breaker while the health monitor holds UNTRUSTED.
  void sync_health_breaker();

  /// Guards surrogate_ only: the request pipeline copies the shared_ptr
  /// once per batch; replace_surrogate() swaps under the same lock.
  /// Everything else the service thread touches (breaker, cache, health
  /// monitor) is internally synchronized.
  mutable std::mutex model_mutex_;
  std::shared_ptr<uq::UqModel> surrogate_;
  SimulationFn simulation_;
  double threshold_;
  /// Guards buffer_ and buffered_uncertainty_sum_: the serving path
  /// appends (fallback + shadow runs) while take_retraining() hands the
  /// corpus to the retraining service's thread.
  mutable std::mutex buffer_mutex_;
  data::Dataset buffer_;
  double buffered_uncertainty_sum_ = 0.0;  ///< per-buffer; reset on drain
  /// Guards stats_ and accepted_uncertainty_sum_: the serving path books
  /// while stats() and a metrics scrape read.
  mutable std::mutex stats_mutex_;
  DispatcherStats stats_;
  double accepted_uncertainty_sum_ = 0.0;
  GroundTruthTap ground_truth_tap_;
  std::unique_ptr<CircuitBreaker> breaker_;
  std::unique_ptr<serve::LookupCache> cache_;
  /// query_batch's cache probe of the current batch; serving-thread scratch.
  serve::LookupCache::Batch cache_batch_;
  std::unique_ptr<obs::SurrogateHealthMonitor> health_;
  /// Brownout policy (shared with the queue edge); null when detached.
  std::shared_ptr<serve::DegradationLadder> ladder_;
  /// The ladder's kDegraded tier; guarded by model_mutex_.
  std::shared_ptr<uq::UqModel> degraded_surrogate_;

  /// Latency histograms; all null until enable_metrics().
  struct LatencyHistograms {
    obs::Histogram* surrogate_seconds = nullptr;
    obs::Histogram* simulation_seconds = nullptr;
    obs::Histogram* shadow_seconds = nullptr;
  };
  LatencyHistograms latency_;
  obs::EffectiveSpeedupMeter* meter_ = nullptr;
  obs::MetricsSource metrics_;  ///< last member: detaches first
};

}  // namespace le::core
