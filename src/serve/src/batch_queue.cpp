#include "le/serve/batch_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "le/serve/admission.hpp"
#include "le/serve/degradation.hpp"

namespace le::serve {

namespace {

/// Wraps a plain forward so the serving loop only ever deals with the
/// shed-aware signature; a plain forward never sheds rows.
ShedAwareForwardFn adapt_plain_forward(BatchForwardFn forward) {
  return [fn = std::move(forward)](const tensor::Matrix& inputs,
                                   std::span<const Deadline> /*deadlines*/,
                                   std::span<ShedReason> /*shed*/) {
    return fn(inputs);
  };
}

[[noreturn]] void throw_shed(ShedReason reason, const std::string& where) {
  if (reason == ShedReason::kDeadline) {
    throw DeadlineExceededError(where + ": deadline exceeded");
  }
  throw OverloadShedError(reason, where + ": shed (" +
                                      shed_reason_name(reason) + ")");
}

std::exception_ptr make_shed_exception(ShedReason reason,
                                       const std::string& where) {
  try {
    throw_shed(reason, where);
  } catch (...) {
    return std::current_exception();
  }
}

}  // namespace

BatchQueue::BatchQueue(BatchForwardFn forward, const BatchQueueConfig& config)
    : BatchQueue(forward ? adapt_plain_forward(std::move(forward))
                         : ShedAwareForwardFn(),
                 config) {}

BatchQueue::BatchQueue(ShedAwareForwardFn forward,
                       const BatchQueueConfig& config)
    : forward_(std::move(forward)), config_(config) {
  if (!forward_) throw std::invalid_argument("BatchQueue: null forward fn");
  if (config_.max_batch == 0) {
    throw std::invalid_argument("BatchQueue: max_batch must be positive");
  }
  if (config_.input_dim == 0) {
    throw std::invalid_argument("BatchQueue: input_dim must be positive");
  }
  if (config_.max_wait.count() < 0) {
    throw std::invalid_argument("BatchQueue: max_wait must be non-negative");
  }
  server_ = std::thread([this] { serve_loop(); });
}

BatchQueue::~BatchQueue() { stop(); }

void BatchQueue::stop() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  // The old fast-path ("stopping_ && !joinable() -> return") read the
  // thread object while another stop() could be inside join() — a data
  // race, and both callers could pass the joinable() check and double-
  // join.  stop_mutex_ serializes the join; losers wait until the drain
  // completes, preserving stop()'s "all futures resolved" postcondition
  // for every caller.
  std::lock_guard join_lock(stop_mutex_);
  if (server_.joinable()) server_.join();
}

void BatchQueue::set_admission(std::shared_ptr<AdmissionController> admission) {
  admission_ = std::move(admission);
}

void BatchQueue::set_degradation(std::shared_ptr<DegradationLadder> ladder) {
  ladder_ = std::move(ladder);
}

std::size_t BatchQueue::depth() const {
  std::lock_guard lock(mutex_);
  return pending_.size();
}

std::future<std::vector<double>> BatchQueue::submit(
    std::span<const double> input, Deadline deadline) {
  if (input.size() != config_.input_dim) {
    throw std::invalid_argument("BatchQueue::submit: input dim mismatch");
  }
  const auto now = std::chrono::steady_clock::now();
  // Shed-on-arrival: a request that is already dead costs one clock read,
  // no queue slot and no admission token.
  if (deadline && *deadline <= now) {
    expired_.fetch_add(1, std::memory_order_relaxed);
    throw DeadlineExceededError(
        "BatchQueue::submit: deadline already expired on arrival");
  }
  Pending request;
  request.input.assign(input.begin(), input.end());
  request.enqueued = now;
  request.deadline = deadline;
  std::future<std::vector<double>> fut = request.promise.get_future();
  {
    std::lock_guard lock(mutex_);
    if (stopping_) {
      throw QueueStoppedError("BatchQueue::submit: queue is stopped");
    }
    if (admission_) {
      // Consulted under the queue lock so the depth it sees is exact.
      // AdmissionController's own mutex is a leaf (it never calls out),
      // so the nesting cannot deadlock.
      const ShedReason verdict = admission_->try_admit(pending_.size(), now);
      if (verdict != ShedReason::kNone) {
        shed_.fetch_add(1, std::memory_order_relaxed);
        throw_shed(verdict, "BatchQueue::submit");
      }
    }
    pending_.push_back(std::move(request));
  }
  cv_.notify_all();
  return fut;
}

std::vector<double> BatchQueue::query(std::span<const double> input,
                                      Deadline deadline) {
  return submit(input, deadline).get();
}

void BatchQueue::serve_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
    if (pending_.empty()) return;  // stopping and fully drained

    // Bounded coalescing: hold a partial batch open until either it fills
    // or max_wait elapses; stop requests flush immediately.
    const auto deadline = std::chrono::steady_clock::now() + config_.max_wait;
    while (!stopping_ && pending_.size() < config_.max_batch) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
    }

    const std::size_t take = std::min(pending_.size(), config_.max_batch);
    std::vector<Pending> batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    lock.unlock();
    dispatch(std::move(batch));
    lock.lock();
  }
}

void BatchQueue::record_wait(double seconds) {
  wait_.record(seconds);
  if (admission_) admission_->record_sojourn(seconds);
  if (ladder_) ladder_->record(seconds);
}

void BatchQueue::dispatch(std::vector<Pending> batch) {
  const auto dispatched = std::chrono::steady_clock::now();

  // Pre-forward shed pass: a request whose deadline expired while queued
  // is resolved (exceptionally) right here, so the batched forward below
  // never spends a GEMM row on a request nobody is waiting for.  Expired
  // requests still contribute their queue wait to the pressure signals —
  // they are the strongest evidence of a standing queue there is.
  std::vector<Pending> live;
  live.reserve(batch.size());
  std::vector<char> is_expired(batch.size(), 0);
  std::size_t n_expired = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const double wait =
        std::chrono::duration<double>(dispatched - batch[i].enqueued).count();
    record_wait(wait);
    if (batch[i].deadline && *batch[i].deadline <= dispatched) {
      is_expired[i] = 1;
      ++n_expired;
    }
  }
  // Counters are published before any promise resolves: a caller whose
  // .get() just returned must already see its request in stats().
  if (n_expired > 0) {
    expired_.fetch_add(n_expired, std::memory_order_relaxed);
    if (admission_) admission_->release(n_expired);
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (is_expired[i]) {
      batch[i].promise.set_exception(make_shed_exception(
          ShedReason::kDeadline, "BatchQueue: expired while queued"));
      continue;
    }
    live.push_back(std::move(batch[i]));
  }
  if (live.empty()) return;  // whole batch was dead — no forward at all

  const std::size_t rows = live.size();
  tensor::Matrix inputs(rows, config_.input_dim);
  std::vector<Deadline> deadlines(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    auto row = inputs.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) row[c] = live[r].input[c];
    deadlines[r] = live[r].deadline;
  }

  queries_.fetch_add(rows, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  std::size_t prev = max_batch_observed_.load(std::memory_order_relaxed);
  while (rows > prev &&
         !max_batch_observed_.compare_exchange_weak(
             prev, rows, std::memory_order_relaxed)) {
  }
  last_batch_.store(rows, std::memory_order_relaxed);

  const auto forward_start = std::chrono::steady_clock::now();
  std::vector<ShedReason> row_shed(rows, ShedReason::kNone);
  tensor::Matrix outputs;
  try {
    outputs = forward_(inputs, deadlines, row_shed);
    if (outputs.rows() != rows) {
      throw std::runtime_error("BatchQueue: forward returned " +
                               std::to_string(outputs.rows()) +
                               " rows for a batch of " + std::to_string(rows));
    }
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    for (auto& request : live) request.promise.set_exception(error);
    if (admission_) admission_->release(rows);
    return;
  }
  if (metric_batch_seconds_) {
    const auto t1 = std::chrono::steady_clock::now();
    metric_batch_seconds_->record(
        std::chrono::duration<double>(t1 - forward_start).count());
  }

  // The zero-dead-forwards instrument: a row the forward answered although
  // its deadline had passed when the forward started slipped through the
  // gap between the shed pass and the forward.  Rows the forward shed
  // itself (the dispatcher's own deadline check) never reached a GEMM and
  // are not counted.  E17 asserts this stays 0.
  std::size_t n_row_shed = 0;
  std::size_t dead = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    if (row_shed[r] != ShedReason::kNone) {
      ++n_row_shed;
    } else if (deadlines[r] && *deadlines[r] <= forward_start) {
      ++dead;
    }
  }
  // Same ordering rule as the expiry pass: stats first, promises second.
  if (n_row_shed > 0) {
    shed_.fetch_add(n_row_shed, std::memory_order_relaxed);
  }
  if (dead > 0) {
    dead_request_forwards_.fetch_add(dead, std::memory_order_relaxed);
  }
  if (admission_) admission_->release(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    if (row_shed[r] != ShedReason::kNone) {
      live[r].promise.set_exception(
          make_shed_exception(row_shed[r], "BatchQueue: row shed by forward"));
      continue;
    }
    auto row = outputs.row(r);
    live[r].promise.set_value(std::vector<double>(row.begin(), row.end()));
  }
}

BatchQueueStats BatchQueue::stats() const {
  BatchQueueStats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.max_batch_observed = max_batch_observed_.load(std::memory_order_relaxed);
  s.last_batch = last_batch_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.dead_request_forwards =
      dead_request_forwards_.load(std::memory_order_relaxed);
  s.wait = wait_.summary();
  return s;
}

void BatchQueue::export_metrics(obs::MetricsSnapshot& out,
                                const std::string& prefix) const {
  const BatchQueueStats s = stats();
  out.add(prefix,
          {{"queries", s.queries}, {"batches", s.batches},
           {"expired", s.expired}, {"shed", s.shed},
           {"dead_request_forwards", s.dead_request_forwards}},
          {{"batch_fill", static_cast<double>(s.last_batch)}});
}

void BatchQueue::enable_metrics(obs::MetricsRegistry& registry,
                                const std::string& prefix) {
  metric_batch_seconds_ = &registry.histogram(prefix + ".batch_seconds");
  metrics_ = registry.attach(*this, prefix);
}

}  // namespace le::serve
