// lookup_cold: one client, closed loop, 64-row query_batch calls over a key
// pool far larger than the armed lookup cache, so every lookup misses,
// every answer inserts and every insert evicts.  Nearly all time goes to
// the uq/nn/tensor forward and the cache's write path; md and net are
// absent.  A forward-kernel gain shows here; a cache-read gain must not.
#include <cstdio>
#include <stdexcept>

#include "common.hpp"
#include "le/obs/metrics.hpp"
#include "le/obs/speedup_meter.hpp"
#include "le/serve/lookup_cache.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kBatch = 64;  // the E16 batch size
// The pool is 8x the cache and cycled in order, so LRU never hits; both are
// small enough that the working set stays near the core's own caches.
constexpr std::size_t kPoolKeys = 2048;
constexpr std::size_t kCacheCapacity = 256;
// A window holds ~1700 calls, so its p99 has over ten calls beyond it.
constexpr double kWindowSeconds = 0.25;
// One direct MD run per this many pool passes times T_seq for the meter.
constexpr std::size_t kPassesPerSeqSample = 8;

class LookupCold final : public Workload {
 public:
  explicit LookupCold(std::uint64_t seed)
      : model_(build_serving_model()),
        pool_(make_key_pool(model_, kPoolKeys, seed)),
        timed_(std::make_shared<TimedUqModel>(model_.ensemble, &recorder_)),
        dispatcher_(timed_, timed_simulation(md_clock_, &recorder_),
                    model_.threshold) {
    serve::LookupCacheConfig cache;
    cache.capacity = kCacheCapacity;
    cache.resolution = 1e-9;
    dispatcher_.enable_lookup_cache(cache);
    dispatcher_.enable_metrics(obs::MetricsRegistry::global());
    dispatcher_.set_speedup_meter(&meter_);
    print_plans(dispatcher_.autotune_serving(kBatch));
  }

  Measurement measure(double seconds, bool traced) override {
    recorder_ = SpanRecorder(false);
    const std::size_t calls_per_pass = pool_.size() / kBatch;
    std::vector<tensor::Matrix> batches(calls_per_pass);
    for (std::size_t b = 0; b < calls_per_pass; ++b) {
      batches[b] = tensor::Matrix(kBatch, 5);
      for (std::size_t r = 0; r < kBatch; ++r) {
        const auto src = pool_.inputs.row(b * kBatch + r);
        std::copy(src.begin(), src.end(), batches[b].row(r).begin());
      }
    }

    // Warm-up pass: page-in and branch history, checked but not counted.
    Oracle warm(pool_.refs, pool_.size());
    for (std::size_t b = 0; b < calls_per_pass; ++b) {
      const auto answers = dispatcher_.query_batch(batches[b]);
      for (std::size_t r = 0; r < kBatch; ++r) {
        (void)warm.record(b * kBatch + r, b * kBatch + r,
                          outcome_of(answers[r]), answers[r].values);
      }
    }
    if (const OracleReport w = warm.finish(); !w.correct()) {
      throw std::runtime_error("lookup_cold warm-up answered wrongly: " +
                               w.summary());
    }

    recorder_ = SpanRecorder(traced);
    const auto cache0 = dispatcher_.lookup_cache()->stats();
    const auto meter0 = meter_.snapshot();
    const LayerClock uq0 = timed_->clock();
    const LayerClock md0 = md_clock_;

    // Figures are taken per window of kWindowSeconds.  Throughput, pass
    // time and the typical (p50) call time measure compute speed and are
    // reported from the best windows (see best_windows).  The p99 is the
    // median over all windows, so a stall that hits some windows moves it.
    // The oracle checks one pass at a time, so memory stays flat however
    // many calls a run makes.
    std::vector<double> window_rate, window_p50, window_p99, window_pass;
    std::vector<double> calls;     // this window's call latencies
    std::vector<double> passes;    // this window's pass times
    double window_busy = 0.0;
    double busy = 0.0;
    double pass_acc = 0.0;
    std::uint64_t n_calls = 0;
    std::uint64_t n_passes = 0;
    std::uint64_t calls_in_slo = 0;
    OracleReport report;
    Oracle pass_oracle(pool_.refs, pool_.size());
    const auto start = Clock::now();
    auto window_start = start;
    const auto close_window = [&] {
      window_rate.push_back(static_cast<double>(calls.size() * kBatch) /
                            window_busy);
      window_p50.push_back(quantile(calls, 0.50));
      window_p99.push_back(quantile(calls, 0.99));
      window_pass.push_back(median(passes));
      calls.clear();
      passes.clear();
      window_busy = 0.0;
      window_start = Clock::now();
    };
    for (std::size_t call = 0;; ++call) {
      const std::size_t b = call % calls_per_pass;
      if (b == 0 && seconds_between(start, Clock::now()) >= seconds) break;
      const std::uint32_t root = recorder_.begin("bench.call", call);
      const std::uint32_t core = recorder_.begin("core.query_batch", call);
      const auto t0 = Clock::now();
      const auto answers = dispatcher_.query_batch(batches[b]);
      const double dt = seconds_between(t0, Clock::now());
      recorder_.end(core);
      bool all_right = true;
      for (std::size_t r = 0; r < kBatch; ++r) {
        all_right &= pass_oracle.record(b * kBatch + r, b * kBatch + r,
                                        outcome_of(answers[r]),
                                        answers[r].values);
      }
      recorder_.end(root);
      ++n_calls;
      calls.push_back(dt);
      calls_in_slo += all_right && dt <= kLatencyLimitSeconds ? 1 : 0;
      window_busy += dt;
      busy += dt;
      pass_acc += dt;
      if (b + 1 < calls_per_pass) continue;

      report += pass_oracle.finish();
      pass_oracle = Oracle(pool_.refs, pool_.size());
      passes.push_back(pass_acc);
      pass_acc = 0.0;
      // T_seq for the meter: a direct MD run outside the dispatcher, so
      // the baseline shares the lookups' time window.
      if (++n_passes % kPassesPerSeqSample == 0) {
        const auto s0 = Clock::now();
        (void)run_md(pool_.inputs.row(n_passes % pool_.size()));
        meter_.record_seq_baseline(seconds_between(s0, Clock::now()));
      }

      if (seconds_between(window_start, Clock::now()) >= kWindowSeconds) {
        close_window();
      }
    }
    if (window_rate.empty()) close_window();  // runs shorter than a window

    Measurement m;
    m.report = report;
    const auto rows = static_cast<double>(m.report.answered());

    obs::EffectiveSpeedupMeter::Snapshot meter = meter_.snapshot();
    meter.n_lookup -= meter0.n_lookup;
    meter.lookup_seconds -= meter0.lookup_seconds;
    meter.seq_samples -= meter0.seq_samples;
    meter.seq_seconds -= meter0.seq_seconds;

    std::printf("lookup_cold: %llu calls in %zu windows; all-window medians: "
                "%.0f rows/s, pass %.4f ms, p50 %.4f ms\n",
                static_cast<unsigned long long>(n_calls), window_rate.size(),
                median(window_rate), 1e3 * median(window_pass),
                1e3 * median(window_p50));
    EndToEnd& e = m.end_to_end;
    e.answers_per_s = best_windows(window_rate, true);
    e.latency_p50_ms = 1e3 * best_windows(window_p50, false);
    e.latency_p99_ms = 1e3 * median(window_p99);
    e.slo_attainment =
        static_cast<double>(calls_in_slo) / static_cast<double>(n_calls);
    e.s_eff = meter.speedup();
    e.campaign_s = best_windows(window_pass, false);
    e.surrogate_rmse = model_.rmse;
    e.peak_rss_mb = peak_rss_mb();
    m.overhead_basis = e.latency_p50_ms;

    const auto cache = dispatcher_.lookup_cache()->stats();
    const LayerClock& uq = timed_->clock();
    const double uq_s = uq.seconds - uq0.seconds;
    const double uq_rows = static_cast<double>(uq.rows - uq0.rows);
    const double md_s = md_clock_.seconds - md0.seconds;
    PerLayer& p = m.per_layer;
    p.core_self_us_per_row = 1e6 * (busy - uq_s - md_s) / rows;
    p.core_fallback_share = static_cast<double>(m.report.simulation) / rows;
    p.cache_hit_ratio =
        static_cast<double>(cache.hits - cache0.hits) /
        static_cast<double>(cache.hits - cache0.hits + cache.misses -
                            cache0.misses);
    p.cache_evictions_per_row =
        static_cast<double>(cache.evictions - cache0.evictions) / rows;
    p.uq_forward_us_per_row = 1e6 * uq_s / uq_rows;
    p.uq_rows_per_call = uq_rows / static_cast<double>(uq.calls - uq0.calls);
    p.tensor_flops_per_row = ensemble_flops_per_row();
    p.tensor_gflops = p.tensor_flops_per_row * uq_rows / uq_s * 1e-9;
    p.md_calls = static_cast<double>(md_clock_.calls - md0.calls);
    p.md_ms_per_call = p.md_calls > 0 ? 1e3 * md_s / p.md_calls : 0.0;
    p.md_busy_share = md_s / busy;
    p.unattributed_share = recorder_.root_uncovered_share();
    return m;
  }

  const SpanRecorder& recorder() const override { return recorder_; }

 private:
  // Declared before the wrappers that hold pointers to them.
  SpanRecorder recorder_;
  LayerClock md_clock_;
  obs::EffectiveSpeedupMeter meter_;
  ServingModel model_;
  KeyPool pool_;
  std::shared_ptr<TimedUqModel> timed_;
  core::SurrogateDispatcher dispatcher_;
};

}  // namespace

std::unique_ptr<Workload> make_lookup_cold(std::uint64_t seed) {
  return std::make_unique<LookupCold>(seed);
}

}  // namespace perfbench
