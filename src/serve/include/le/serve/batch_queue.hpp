/// @file
/// Request coalescing for the surrogate hot path.
///
/// Worker threads of a serving campaign ask for one prediction at a time,
/// but a neural forward pass costs nearly the same for one row as for
/// thirty: layer dispatch, buffer setup and cache traffic amortize over the
/// batch while the GEMMs grow only linearly.  BatchQueue turns concurrent
/// single-sample submissions into one (batch x D) matrix-matrix forward:
/// requests queue up, a dedicated serving thread waits a bounded interval
/// for the batch to fill (or dispatches immediately when it does), runs the
/// batched forward, and resolves every submitter's future from its row of
/// the result.  bench_serving (E13) measures the throughput gain.
///
/// Overload robustness (DESIGN.md section 14, bench_overload E17): the
/// queue is the admission edge of the serving tier.
///   - submit() after stop() fails fast with QueueStoppedError — the
///     documented contract; a stopped queue never blocks and never hands
///     out a future it will not resolve.
///   - An attached AdmissionController bounds queue depth and concurrency
///     and sheds arrivals when the measured queue wait stands above target
///     (submit() throws OverloadShedError); the queue feeds it every
///     request's sojourn.
///   - Per-request deadlines: submit(input, deadline) sheds on arrival if
///     already expired, and expired requests are shed *before* the batched
///     forward — their futures fail with DeadlineExceededError and no GEMM
///     is ever burned on a dead request (stats().dead_request_forwards
///     counts violations; it must stay 0).
///   - A shed-aware forward (ShedAwareForwardFn) can refuse individual
///     rows — the dispatcher's degradation ladder shedding cache misses —
///     and those futures fail with the row's ShedError while the rest of
///     the batch resolves normally.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "le/obs/metrics.hpp"
#include "le/serve/overload.hpp"
#include "le/tensor/matrix.hpp"

namespace le::serve {

class AdmissionController;
class DegradationLadder;

/// The batched model: rows in, rows out (same row count, any output
/// width).  Called from the serving thread only, so a non-thread-safe
/// nn::Network::predict_batch bound here needs no external locking.
using BatchForwardFn =
    std::function<tensor::Matrix(const tensor::Matrix&)>;

/// Shed-aware batched model: receives each live row's deadline and may
/// mark individual rows as shed (writing a non-kNone reason into `shed`)
/// instead of answering them — the degradation ladder's cache-miss shed
/// and the dispatcher's own deadline enforcement surface here.  Marked
/// rows' output values are ignored; their futures fail with the matching
/// ShedError.  Row count of the returned matrix must equal inputs.rows().
using ShedAwareForwardFn = std::function<tensor::Matrix(
    const tensor::Matrix& inputs, std::span<const Deadline> deadlines,
    std::span<ShedReason> shed)>;

struct BatchQueueConfig {
  /// Rows per dispatched forward; a full batch dispatches immediately.
  std::size_t max_batch = 64;
  /// How long a partially filled batch waits for more arrivals before it
  /// is dispatched anyway — the tail-latency bound of coalescing.
  std::chrono::microseconds max_wait{200};
  /// Input width every submission must match.
  std::size_t input_dim = 1;
};

struct BatchQueueStats {
  std::uint64_t queries = 0;
  std::uint64_t batches = 0;
  std::size_t max_batch_observed = 0;
  std::size_t last_batch = 0;  ///< rows in the latest batched forward
  /// Requests shed because their deadline expired — on arrival (submit
  /// threw DeadlineExceededError) or while queued (the future failed with
  /// it before the forward).
  std::uint64_t expired = 0;
  /// Requests shed by admission control at submit or by the shed-aware
  /// forward's per-row marks (deadline expiries are counted in `expired`,
  /// not here).
  std::uint64_t shed = 0;
  /// Rows whose deadline had already passed when the batched forward
  /// started, yet were answered by it.  Rows a shed-aware forward shed are
  /// not counted: they never reached its model.  The pre-forward shed pass
  /// keeps this at 0 (a request can only land here by expiring in the
  /// microseconds between that pass and the forward call, and then only
  /// through a forward that does not check deadlines itself);
  /// bench_overload (E17) asserts it.
  std::uint64_t dead_request_forwards = 0;
  /// Queue-wait (submit to dispatch) distribution in seconds — the latency
  /// cost of coalescing, per request.
  obs::Histogram::Summary wait;

  [[nodiscard]] double mean_batch() const noexcept {
    return batches == 0 ? 0.0
                        : static_cast<double>(queries) /
                              static_cast<double>(batches);
  }
};

class BatchQueue {
 public:
  BatchQueue(BatchForwardFn forward, const BatchQueueConfig& config);
  /// Shed-aware variant: the forward sees deadlines and may shed rows.
  BatchQueue(ShedAwareForwardFn forward, const BatchQueueConfig& config);

  /// Drains every pending request through the model, then joins the
  /// serving thread.
  ~BatchQueue();

  BatchQueue(const BatchQueue&) = delete;
  BatchQueue& operator=(const BatchQueue&) = delete;

  /// Enqueues one query; the future resolves with the model's output row
  /// for it (or the exception the batched forward threw, or a ShedError
  /// when the request was shed while queued).  Thread-safe.
  ///
  /// Fail-fast contract — submit() throws instead of enqueueing when the
  /// request cannot possibly be served:
  ///   - QueueStoppedError after stop() (documented; previously this was
  ///     an unspecified std::runtime_error);
  ///   - DeadlineExceededError when `deadline` has already passed;
  ///   - OverloadShedError when the attached AdmissionController refuses
  ///     the arrival (queue full / concurrency limit / sojourn shedding).
  [[nodiscard]] std::future<std::vector<double>> submit(
      std::span<const double> input, Deadline deadline = std::nullopt);

  /// Synchronous convenience: submit and wait.
  [[nodiscard]] std::vector<double> query(std::span<const double> input,
                                          Deadline deadline = std::nullopt);

  /// Stops accepting new submissions, serves what is queued, and joins.
  /// Idempotent AND safe to call from multiple threads concurrently (the
  /// join is serialized internally); the destructor calls it.  Every
  /// future handed out before stop() is resolved — with its row, the
  /// exception its batch's forward threw, or its ShedError — before
  /// stop() returns.  After stop(), submit() throws QueueStoppedError.
  void stop();

  /// Attaches admission control: submit() consults it per arrival and the
  /// serving thread feeds it every request's measured queue wait.  Wire-up
  /// time only — set before traffic starts, not concurrently with
  /// submit().  The controller may be shared with other edges.
  void set_admission(std::shared_ptr<AdmissionController> admission);

  /// Attaches a degradation ladder as a pressure listener: every
  /// request's queue wait is recorded into it, so standing queue delay
  /// walks the ladder down.  Wire-up time only.
  void set_degradation(std::shared_ptr<DegradationLadder> ladder);

  [[nodiscard]] BatchQueueStats stats() const;
  [[nodiscard]] const BatchQueueConfig& config() const noexcept {
    return config_;
  }
  /// Requests currently waiting (diagnostic; racy by nature).
  [[nodiscard]] std::size_t depth() const;

  /// Writes stats() as "<prefix>.*": queries/batches/shed/expired/
  /// dead_request_forwards counters and a batch-fill gauge (last_batch).
  void export_metrics(obs::MetricsSnapshot& out,
                      const std::string& prefix) const;

  /// Attaches export_metrics() to `registry` for the queue's lifetime and
  /// records each batched forward's seconds into "<prefix>.batch_seconds".
  void enable_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "serve.batch_queue");

 private:
  struct Pending {
    std::vector<double> input;
    std::promise<std::vector<double>> promise;
    /// When submit() enqueued the request; dispatch() turns it into the
    /// per-request queue wait.
    std::chrono::steady_clock::time_point enqueued;
    Deadline deadline;
  };

  void serve_loop();
  void dispatch(std::vector<Pending> batch);
  /// Books one request's queue wait into the wait histogram, the admission
  /// controller and the degradation ladder.
  void record_wait(double seconds);

  ShedAwareForwardFn forward_;
  BatchQueueConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> pending_;
  bool stopping_ = false;
  /// Serializes the join in stop(): joinable()+join() on one std::thread
  /// from two racing stop() calls is undefined behavior (both can observe
  /// joinable() before either joins).  Never held while requests are
  /// served, so it cannot stall the serving path.
  std::mutex stop_mutex_;

  std::shared_ptr<AdmissionController> admission_;
  std::shared_ptr<DegradationLadder> ladder_;

  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::size_t> max_batch_observed_{0};
  std::atomic<std::size_t> last_batch_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> dead_request_forwards_{0};
  obs::Histogram wait_;

  /// Null until enable_metrics().
  obs::Histogram* metric_batch_seconds_ = nullptr;
  obs::MetricsSource metrics_;

  std::thread server_;  // last member: starts after everything else is built
};

}  // namespace le::serve
