// E17 — Overload robustness: admission control, deadline propagation and
// the graceful-degradation ladder under an open-loop 10x overload
// (DESIGN.md section 14).
//
// A serving tier for "millions of users" (the paper's Section III-D
// framing) must degrade deliberately when demand exceeds capacity: an
// unbounded FIFO turns a 10x burst into unbounded latency for *every*
// request, not just the excess.  This bench drives the same open-loop
// schedule — Poisson arrivals with flash-crowd bursts and hot-key skew,
// plus FaultInjector latency spikes inside the model — through two
// serving stacks built on the D = 5 nanoconfinement surrogate:
//
//   baseline   BatchQueue + dispatcher + lookup cache, no admission
//              control, no deadlines, no ladder — the pre-E17 stack;
//   protected  the same, plus AdmissionController (bounded depth +
//              CoDel sojourn controller), per-request deadlines shed
//              before any model work, and the DegradationLadder
//              (full -> degraded -> cache-only -> shed).
//
// The full tier is an MC-dropout ensemble of the surrogate (the paper's
// Section III-B UQ model) whose pass count T is calibrated so one batch
// costs ~6 ms, which makes a 10x overload a real regime; every control
// threshold scales with the measured batch time (the median of seven
// calibration rounds that also time both tiers' forwards) so the bench
// holds on slow and fast hosts alike.  The degraded tier is the same network at T/4
// passes: a fidelity cut along the UQ axis, registered with its measured
// added error against the full tier.  Acceptance:
//
//   - the degraded tier really is cheaper: its batch forward costs at
//     most half of the full tier's;
//   - the baseline collapses: its p99 completion latency blows through
//     the deadline budget and almost nothing finishes in time;
//   - the protected stack retains >= 70% of measured full-fidelity
//     capacity as goodput (answers delivered within their deadline): the
//     median of five consecutive blocks of the run, each against the
//     capacity probed just before and just after it;
//   - protected p99 completion latency stays bounded (<= 2x budget);
//   - zero dead-request forwards: no GEMM row is ever burned on a
//     request whose deadline had already expired;
//   - honest attribution: shed answers never reach the effective-
//     speedup meter, degraded answers do (a cheaper model really
//     answered), and the ladder demonstrably engaged AND released.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "le/core/surrogate.hpp"
#include "le/md/nanoconfinement.hpp"
#include "le/nn/loss.hpp"
#include "le/nn/network.hpp"
#include "le/nn/optimizer.hpp"
#include "le/nn/train.hpp"
#include "le/obs/metrics.hpp"
#include "le/obs/speedup_meter.hpp"
#include "le/runtime/fault.hpp"
#include "le/serve/admission.hpp"
#include "le/serve/batch_queue.hpp"
#include "le/serve/degradation.hpp"
#include "le/serve/load_gen.hpp"
#include "le/serve/lookup_cache.hpp"
#include "le/serve/overload.hpp"
#include "le/stats/rng.hpp"
#include "le/uq/acquisition.hpp"
#include "le/uq/mc_dropout.hpp"
#include "report.hpp"

namespace {
using namespace le;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The lower order statistic at q of `v`.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

// A tiny nanoconfinement campaign: enough real MD to train the D = 5
// surrogate shape and to price a simulation, small enough for a bench.
struct Setup {
  data::Dataset runs{5, 3};
  double mean_sim_seconds = 0.0;
};

Setup run_tiny_campaign() {
  Setup setup;
  std::uint64_t seed = 1;
  double total = 0.0;
  for (double h : {2.4, 3.2}) {
    for (double c : {0.3, 0.9}) {
      for (int zp : {1, 2}) {
        md::NanoconfinementParams p;
        p.h = h;
        p.c = c;
        p.d = 0.5;
        p.z_p = zp;
        p.z_n = -1;
        p.equilibration_steps = 300;
        p.production_steps = 1500;
        p.sample_interval = 15;
        p.bins = 32;
        p.seed = seed++;
        const md::NanoconfinementResult r = md::run_nanoconfinement(p);
        setup.runs.add(p.features(), r.targets());
        total += r.wall_seconds;
      }
    }
  }
  setup.mean_sim_seconds = total / static_cast<double>(setup.runs.size());
  return setup;
}

nn::Network train_surrogate(const data::Dataset& runs, stats::Rng& rng) {
  nn::MlpConfig mlp;
  mlp.input_dim = 5;
  mlp.hidden = {32, 32};
  mlp.output_dim = 3;
  mlp.activation = nn::Activation::kTanh;
  mlp.dropout_rate = 0.05;
  nn::Network net = nn::make_mlp(mlp, rng);
  nn::AdamOptimizer opt(1e-2);
  const nn::MseLoss loss;
  nn::TrainConfig tc;
  tc.epochs = 120;
  tc.batch_size = 4;
  nn::fit(net, runs, loss, opt, tc, rng);
  net.set_training(false);
  return net;
}

tensor::Matrix make_query_pool(std::size_t n, stats::Rng& rng) {
  tensor::Matrix pool(n, 5);
  for (std::size_t r = 0; r < n; ++r) {
    pool(r, 0) = rng.uniform(2.4, 3.6);   // h
    pool(r, 1) = 1.0;                     // z_p
    pool(r, 2) = -1.0;                    // z_n
    pool(r, 3) = rng.uniform(0.3, 0.9);   // c
    pool(r, 4) = rng.uniform(0.45, 0.6);  // d
  }
  return pool;
}

// Completion accounting, filled by the serving thread only (the forward
// wrapper runs there), read after BatchQueue::stop() joins it.
struct ServeTally {
  std::size_t served = 0;
  std::size_t served_in_time = 0;
  obs::Histogram latency;  ///< completion latency, seconds

  void book(double latency_seconds, double budget_seconds) {
    ++served;
    if (latency_seconds <= budget_seconds) ++served_in_time;
    latency.record(latency_seconds);
  }
};

// Client-side outcome tallies from one open-loop replay.
struct ReplayResult {
  std::size_t offered = 0;
  std::size_t door_shed = 0;   ///< submit() threw a typed ShedError
  std::size_t resolved = 0;    ///< future delivered a value
  std::size_t future_shed = 0; ///< future delivered a typed ShedError
  std::size_t failed = 0;      ///< anything else (must stay 0)
  double elapsed = 0.0;        ///< first submit -> last future resolved
};

// Replays the schedule open-loop: each arrival is submitted at its
// scheduled time regardless of how earlier requests fared (no coordinated
// omission).  `budget_seconds` sets each request's deadline relative to
// its *scheduled* arrival; the baseline passes a huge budget so nothing
// is ever shed but completion latency is still measurable server-side.
ReplayResult replay_schedule(serve::BatchQueue& queue,
                             const std::vector<serve::Arrival>& schedule,
                             const tensor::Matrix& hot,
                             const tensor::Matrix& cold,
                             std::size_t hot_keys, double budget_seconds) {
  constexpr std::size_t kThreads = 4;
  struct ThreadOut {
    std::vector<std::future<std::vector<double>>> futures;
    std::size_t door_shed = 0;
    std::size_t failed = 0;
  };
  std::vector<ThreadOut> outs(kThreads);
  // Epoch-anchored replay: submit targets AND deadlines derive from the
  // scheduled arrival against one epoch, so a lagging submitter spends
  // budget rather than silently extending it (serve::ReplayClock).
  const serve::ReplayClock clock(Clock::now() + std::chrono::milliseconds(5));
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (std::size_t tid = 0; tid < kThreads; ++tid) {
    submitters.emplace_back([&, tid] {
      ThreadOut& out = outs[tid];
      out.futures.reserve(schedule.size() / kThreads + 1);
      for (std::size_t i = tid; i < schedule.size(); i += kThreads) {
        const auto target = clock.submit_time(schedule[i]);
        // Hybrid sleep/spin: sleep while far out, spin the last stretch —
        // 25 us inter-arrival gaps are below sleep_for resolution.
        for (;;) {
          const auto now = Clock::now();
          if (now >= target) break;
          if (target - now > std::chrono::microseconds(300)) {
            std::this_thread::sleep_for(target - now -
                                        std::chrono::microseconds(200));
          } else {
            std::this_thread::yield();
          }
        }
        const std::size_t key = schedule[i].key;
        const auto input = key < hot_keys
                               ? hot.row(key)
                               : cold.row(key % cold.rows());
        const auto deadline = clock.deadline(schedule[i], budget_seconds);
        try {
          out.futures.push_back(queue.submit(input, deadline));
        } catch (const serve::ShedError&) {
          ++out.door_shed;
        } catch (...) {
          ++out.failed;
        }
      }
    });
  }
  for (auto& t : submitters) t.join();

  ReplayResult result;
  result.offered = schedule.size();
  for (auto& out : outs) {
    result.door_shed += out.door_shed;
    result.failed += out.failed;
    for (auto& fut : out.futures) {
      try {
        (void)fut.get();
        ++result.resolved;
      } catch (const serve::ShedError&) {
        ++result.future_shed;
      } catch (...) {
        ++result.failed;
      }
    }
  }
  result.elapsed =
      std::chrono::duration<double>(Clock::now() - clock.epoch()).count();
  return result;
}

// The shed-aware forward both stacks share: FaultInjector latency spikes,
// then the dispatcher's batched path (which enforces deadlines and the
// ladder), then server-side completion accounting.  `marker_seconds` is
// the budget the deadlines were built with, so scheduled arrival time can
// be reconstructed as deadline - marker.
serve::ShedAwareForwardFn make_forward(core::SurrogateDispatcher& dispatcher,
                                       std::function<void()> spike,
                                       ServeTally& tally,
                                       double marker_seconds,
                                       double check_seconds) {
  return [&dispatcher, spike = std::move(spike), &tally, marker_seconds,
          check_seconds](const tensor::Matrix& inputs,
                         std::span<const serve::Deadline> deadlines,
                         std::span<serve::ShedReason> shed) {
    spike();
    const std::vector<core::Answer> answers =
        dispatcher.query_batch(inputs, deadlines);
    const auto done = Clock::now();
    tensor::Matrix out(inputs.rows(), 3);
    for (std::size_t r = 0; r < inputs.rows(); ++r) {
      if (answers[r].source == core::AnswerSource::kShed) {
        shed[r] = answers[r].shed_reason;
        continue;
      }
      auto row = out.row(r);
      for (std::size_t c = 0; c < row.size(); ++c) {
        row[c] = answers[r].values[c];
      }
      if (deadlines[r]) {
        const double latency =
            marker_seconds -
            std::chrono::duration<double>(*deadlines[r] - done).count();
        tally.book(latency, check_seconds);
      }
    }
    return out;
  };
}

}  // namespace

int main() {
  const bool metrics_on = bench::enable_metrics_from_env();
  bench::print_heading(
      "E17", "Overload robustness: admission, deadlines, degradation (S14)");

  std::printf("\nTraining the D=5 nanoconfinement surrogate on a tiny "
              "campaign...\n");
  Setup setup = run_tiny_campaign();
  stats::Rng rng(7);
  nn::Network net = train_surrogate(setup.runs, rng);
  std::printf("Campaign: %zu MD runs, %.3f s per simulation\n",
              setup.runs.size(), setup.mean_sim_seconds);

  // ---- calibration: size the ensemble, price both tiers ---------------
  bench::print_subheading("calibration: tier cost, added error, capacity");
  constexpr std::size_t kMaxBatch = 32;
  stats::Rng pool_rng(11);
  tensor::Matrix hot = make_query_pool(32, pool_rng);
  tensor::Matrix cold = make_query_pool(2048, pool_rng);
  const tensor::Matrix calibration = make_query_pool(256, pool_rng);

  tensor::Matrix probe(kMaxBatch, 5);
  for (std::size_t r = 0; r < kMaxBatch; ++r) {
    const auto src = cold.row(r);
    auto dst = probe.row(r);
    for (std::size_t c = 0; c < 5; ++c) dst[c] = src[c];
  }
  const auto forward_seconds = [&probe](uq::UqModel& model) {
    const auto t0 = Clock::now();
    (void)model.predict_batch(probe);
    return seconds_since(t0);
  };

  // Every calibration figure is a median over kCalibrationRounds rounds,
  // as E14 and E18 read theirs, so one slow stretch of the shared host
  // moves a round, not the whole regime.
  constexpr int kCalibrationRounds = 7;

  // Passes so one full-fidelity batch costs ~6 ms: every control threshold
  // below scales from the measured batch time, so the regime (10x
  // overload, ~5-batch deadline budget) is host-independent.
  std::size_t passes = 0;
  {
    constexpr std::size_t kSizingPasses = 32;
    uq::McDropoutEnsemble sizing(net.clone(), kSizingPasses);
    (void)forward_seconds(sizing);  // warm the kernels
    std::vector<double> sizing_times;
    for (int i = 0; i < kCalibrationRounds; ++i) {
      sizing_times.push_back(forward_seconds(sizing));
    }
    const double per_pass =
        quantile(sizing_times, 0.5) / static_cast<double>(kSizingPasses);
    passes = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::llround(6e-3 / std::max(per_pass, 1e-9))),
        8, 50000);
  }

  // The brownout tier: the same network at a quarter of the passes.  Its
  // price is measured, not assumed, and its added error is the worst mean
  // gap against the full tier over the calibration pool.  The dispatcher's
  // batch time sizes every threshold below and, probed again (best of 5)
  // around each block of the protected run, prices the capacity that
  // block's goodput is held against.  The three are timed in the same
  // rounds, one of each per round in an order that rotates from round to
  // round, so the dispatcher figure and the forward it wraps see the same
  // stretch of the host.
  auto full = std::make_shared<uq::McDropoutEnsemble>(net.clone(), passes);
  auto degraded =
      std::make_shared<uq::McDropoutEnsemble>(net.clone(), passes / 4);
  core::SurrogateDispatcher probe_dispatcher(
      full,
      [](std::span<const double>) { return std::vector<double>(3, 0.0); },
      0.5);
  const auto dispatcher_seconds = [&] {
    const auto t0 = Clock::now();
    (void)probe_dispatcher.query_batch(probe);
    return seconds_since(t0);
  };
  (void)forward_seconds(*full);  // warm
  (void)forward_seconds(*degraded);
  (void)dispatcher_seconds();
  std::vector<double> full_times, degraded_times, dispatcher_times;
  for (int round = 0; round < kCalibrationRounds; ++round) {
    for (int step = 0; step < 3; ++step) {
      switch ((round + step) % 3) {
        case 0: full_times.push_back(forward_seconds(*full)); break;
        case 1: degraded_times.push_back(forward_seconds(*degraded)); break;
        default: dispatcher_times.push_back(dispatcher_seconds()); break;
      }
    }
  }
  const double full_cost = quantile(full_times, 0.5);
  const double degraded_cost = quantile(degraded_times, 0.5);
  const double cost_ratio = degraded_cost / full_cost;
  double added_error = 0.0;
  {
    const auto reference = full->predict_batch(calibration);
    const auto cut = degraded->predict_batch(calibration);
    for (std::size_t r = 0; r < reference.size(); ++r) {
      for (std::size_t k = 0; k < reference[r].mean.size(); ++k) {
        added_error = std::max(
            added_error, std::abs(reference[r].mean[k] - cut[r].mean[k]));
      }
    }
  }
  // The full tier's spread over the rows the replay serves: well under the
  // 0.5 gate, so the bench exercises the overload machinery, not the gate.
  double max_score = 0.0;
  for (const tensor::Matrix* pool : {&hot, &cold}) {
    for (const uq::Prediction& p : full->predict_batch(*pool)) {
      max_score = std::max(max_score, uq::uncertainty_score(p));
    }
  }

  // The capacity probe around each block of the protected run.
  const auto probe_batch_seconds = [&] {
    double best = 1e300;
    for (int i = 0; i < 5; ++i) best = std::min(best, dispatcher_seconds());
    return best;
  };
  const double t_batch = quantile(dispatcher_times, 0.5);
  const double capacity_qps = static_cast<double>(kMaxBatch) / t_batch;
  const double budget = 5.0 * t_batch;  // per-request deadline budget
  std::printf("calibration: medians of %d rotating rounds [quartiles]\n",
              kCalibrationRounds);
  std::printf("full tier: MC dropout, %zu passes, batch-%zu forward %.2f ms "
              "[%.2f, %.2f]; max gate score %.3f (gate 0.5)\n",
              passes, kMaxBatch, full_cost * 1e3,
              quantile(full_times, 0.25) * 1e3,
              quantile(full_times, 0.75) * 1e3, max_score);
  std::printf("degraded tier: %zu passes, batch-%zu forward %.2f ms "
              "[%.2f, %.2f] (%.2fx the full tier), added error %.3f\n",
              degraded->forward_passes(), kMaxBatch, degraded_cost * 1e3,
              quantile(degraded_times, 0.25) * 1e3,
              quantile(degraded_times, 0.75) * 1e3, cost_ratio, added_error);
  std::printf("dispatcher: batch-%zu in %.2f ms [%.2f, %.2f] -> capacity "
              "%.0f q/s\n",
              kMaxBatch, t_batch * 1e3, quantile(dispatcher_times, 0.25) * 1e3,
              quantile(dispatcher_times, 0.75) * 1e3, capacity_qps);
  std::printf("deadline budget: %.1f ms (5 batch times)\n", budget * 1e3);

  // The shared open-loop schedule family: 10x capacity, flash-crowd
  // bursts to 20x, 80% of traffic on 32 hot keys.
  const auto make_schedule = [&](double duration, std::uint64_t seed) {
    serve::LoadGenConfig lg;
    lg.rate_qps = 10.0 * capacity_qps;
    lg.duration_seconds = duration;
    lg.burst_factor = 2.0;
    lg.burst_period = 0.4;
    lg.burst_length = 0.1;
    lg.key_pool = 2048;
    lg.hot_keys = hot.rows();
    lg.hot_fraction = 0.8;
    lg.seed = seed;
    return serve::LoadGenerator(lg).schedule();
  };

  // Chaos: latency spikes of 4 batch times inside the model, injected by
  // the same FaultInjector stream in both stacks (fair chaos).
  runtime::FaultSpec chaos;
  chaos.latency_probability = 0.12;
  chaos.latency_seconds = 3.0 * t_batch;
  chaos.seed = 99;

  serve::LookupCacheConfig cache_config;
  cache_config.capacity = 4096;
  cache_config.resolution = 1e-9;

  // ---- baseline: the unprotected stack at 10x -------------------------
  bench::print_subheading("baseline: no admission, no deadlines, no ladder");
  ReplayResult base_result;
  ServeTally base_tally;
  serve::BatchQueueStats base_qstats;
  {
    core::SurrogateDispatcher dispatcher(
        full,
        [](std::span<const double>) { return std::vector<double>(3, 0.0); },
        0.5);
    dispatcher.enable_lookup_cache(cache_config);
    runtime::FaultInjector injector(chaos);

    serve::BatchQueueConfig qc;
    qc.max_batch = kMaxBatch;
    qc.max_wait = std::chrono::microseconds(500);
    qc.input_dim = 5;
    // The huge marker budget means no baseline request is ever shed —
    // deadlines here only carry the scheduled arrival time so completion
    // latency is measured server-side against the real budget.
    constexpr double kMarker = 1000.0;
    serve::BatchQueue queue(
        make_forward(dispatcher, injector.latency_hook(), base_tally,
                     kMarker, budget),
        qc);
    base_result = replay_schedule(queue, make_schedule(0.8, 42), hot, cold,
                                  hot.rows(), kMarker);
    queue.stop();
    base_qstats = queue.stats();
  }
  const double base_p99 = base_tally.latency.quantile(0.99);
  const double base_in_time_fraction =
      base_result.offered == 0
          ? 0.0
          : static_cast<double>(base_tally.served_in_time) /
                static_cast<double>(base_result.offered);
  std::printf("offered %zu at 10x for 0.8 s: all %zu served, but...\n",
              base_result.offered, base_tally.served);
  std::printf("completion latency: p50 %.0f  p99 %.0f ms (budget %.0f ms); "
              "%.1f%% in time\n",
              base_tally.latency.quantile(0.5) * 1e3, base_p99 * 1e3,
              budget * 1e3, 100.0 * base_in_time_fraction);
  std::printf("drain took %.1f s beyond the 0.8 s window — the backlog IS "
              "the collapse\n",
              base_result.elapsed - 0.8);

  // ---- protected: admission + deadlines + ladder ----------------------
  bench::print_subheading("protected: admission + deadlines + ladder at 10x");
  constexpr int kBlocks = 5;
  ReplayResult prot_result;
  ServeTally prot_tally;
  std::vector<double> block_retained;  ///< goodput / adjacent capacity
  serve::BatchQueueStats prot_qstats;
  serve::AdmissionStats admission_stats;
  serve::DegradationStats ladder_stats;
  core::DispatcherStats dispatcher_stats;
  obs::EffectiveSpeedupMeter::Snapshot meter_snap;
  double cache_hit_rate = 0.0;
  {
    core::SurrogateDispatcher dispatcher(
        full,
        [](std::span<const double>) { return std::vector<double>(3, 0.0); },
        0.5);
    dispatcher.enable_lookup_cache(cache_config);
    dispatcher.set_degraded_surrogate(degraded, added_error);

    auto ladder = std::make_shared<serve::DegradationLadder>([&] {
      serve::DegradationConfig dc;
      dc.window = 256;
      dc.quantile = 0.95;
      // Steady-state queue wait under the depth bound is ~2 batch times;
      // the engage thresholds sit above it so the ladder responds to the
      // injected latency spikes (which push waits past the deadline), not
      // to healthy saturation — and releases once the spike drains.
      dc.engage = {3.5 * t_batch, 5.5 * t_batch, 9.0 * t_batch};
      dc.release_fraction = 0.5;
      dc.release_windows = 2;
      return dc;
    }());
    dispatcher.attach_degradation(ladder);

    auto admission = std::make_shared<serve::AdmissionController>([&] {
      serve::AdmissionConfig ac;
      // Two batches of headroom: standing wait ~2 batch times + service
      // leaves most of the 5-batch deadline budget unspent, so admitted
      // requests survive a latency spike instead of expiring in queue.
      ac.max_queue_depth = 2 * kMaxBatch;
      ac.max_concurrent = 0;
      ac.target_sojourn = std::chrono::microseconds(
          static_cast<long long>(3.5 * t_batch * 1e6));
      ac.interval = std::chrono::microseconds(
          static_cast<long long>(10.0 * t_batch * 1e6));
      return ac;
    }());

    obs::EffectiveSpeedupMeter meter;
    meter.record_seq_baseline(setup.mean_sim_seconds);
    dispatcher.set_speedup_meter(&meter);

    runtime::FaultInjector injector(chaos);
    serve::BatchQueueConfig qc;
    qc.max_batch = kMaxBatch;
    qc.max_wait = std::chrono::microseconds(500);
    qc.input_dim = 5;
    serve::BatchQueue queue(
        make_forward(dispatcher, injector.latency_hook(), prot_tally,
                     budget, budget),
        qc);
    queue.set_admission(admission);
    queue.set_degradation(ladder);

    // The 1.5-s schedule is replayed as kBlocks consecutive windows with a
    // capacity probe before each and after the last, so each window's
    // goodput is held against the capacity measured on either side of it.
    // One capacity taken before the baseline ran let a slow stretch of a
    // shared host, landing on the protected run alone, fail the check.
    const std::vector<serve::Arrival> schedule = make_schedule(1.5, 42);
    const double block_seconds = 1.5 / kBlocks;
    double probe_before = probe_batch_seconds();
    std::size_t next = 0;
    for (int b = 0; b < kBlocks; ++b) {
      const double start = b * block_seconds;
      std::vector<serve::Arrival> block;
      for (; next < schedule.size() &&
             (b == kBlocks - 1 || schedule[next].t < start + block_seconds);
           ++next) {
        block.push_back({schedule[next].t - start, schedule[next].key});
      }
      const std::size_t in_time_before = prot_tally.served_in_time;
      const ReplayResult r =
          replay_schedule(queue, block, hot, cold, hot.rows(), budget);
      prot_result.offered += r.offered;
      prot_result.door_shed += r.door_shed;
      prot_result.resolved += r.resolved;
      prot_result.future_shed += r.future_shed;
      prot_result.failed += r.failed;
      prot_result.elapsed += r.elapsed;
      // Every future of the block has resolved, so the serving thread has
      // booked all of its answers.
      const double probe_after = probe_batch_seconds();
      const double block_capacity = static_cast<double>(kMaxBatch) /
                                    std::min(probe_before, probe_after);
      block_retained.push_back(
          static_cast<double>(prot_tally.served_in_time - in_time_before) /
          r.elapsed / block_capacity);
      probe_before = probe_after;
    }
    queue.stop();
    prot_qstats = queue.stats();
    admission_stats = admission->stats();
    ladder_stats = ladder->stats();
    dispatcher_stats = dispatcher.stats();
    meter_snap = meter.snapshot();
    if (const auto* cache = dispatcher.lookup_cache()) {
      cache_hit_rate = cache->stats().hit_rate();
    }
  }

  const double goodput_qps =
      static_cast<double>(prot_tally.served_in_time) / prot_result.elapsed;
  const double prot_p99 = prot_tally.latency.quantile(0.99);
  const std::size_t total_shed = prot_result.door_shed +
                                 prot_result.future_shed + prot_qstats.shed +
                                 prot_qstats.expired;
  const double shed_fraction =
      static_cast<double>(prot_result.door_shed + prot_result.future_shed) /
      static_cast<double>(prot_result.offered);
  (void)total_shed;

  std::printf("offered %zu at 10x for 1.5 s (bursts to 20x, 80%% hot keys)\n",
              prot_result.offered);
  bench::Table table({"outcome", "count", "fraction"});
  table.header();
  const auto frac = [&](std::size_t n) {
    return bench::fmt(static_cast<double>(n) /
                          static_cast<double>(prot_result.offered),
                      "%.3f");
  };
  table.row({"served in time", bench::fmt_int(prot_tally.served_in_time),
             frac(prot_tally.served_in_time)});
  table.row({"served late",
             bench::fmt_int(prot_tally.served - prot_tally.served_in_time),
             frac(prot_tally.served - prot_tally.served_in_time)});
  table.row({"shed at door", bench::fmt_int(prot_result.door_shed),
             frac(prot_result.door_shed)});
  table.row({"shed resolved", bench::fmt_int(prot_result.future_shed),
             frac(prot_result.future_shed)});
  std::vector<double> retained_sorted = block_retained;
  std::sort(retained_sorted.begin(), retained_sorted.end());
  const double retained_median = retained_sorted[kBlocks / 2];
  std::printf("goodput: %.0f q/s; per block, %% of the capacity probed "
              "around it:",
              goodput_qps);
  for (const double r : block_retained) std::printf(" %.0f%%", 100.0 * r);
  std::printf(" (median %.0f%%)\n", 100.0 * retained_median);
  std::printf("completion latency: p50 %.1f  p99 %.1f ms (budget %.1f ms)\n",
              prot_tally.latency.quantile(0.5) * 1e3, prot_p99 * 1e3,
              budget * 1e3);
  std::printf("admission: %llu admitted, %llu depth-shed, %llu sojourn-shed, "
              "%llu probes\n",
              static_cast<unsigned long long>(admission_stats.admitted),
              static_cast<unsigned long long>(admission_stats.shed_queue_full),
              static_cast<unsigned long long>(admission_stats.shed_overload),
              static_cast<unsigned long long>(admission_stats.probes));
  std::printf("ladder: %llu engages, %llu releases, level now %s\n",
              static_cast<unsigned long long>(ladder_stats.engages),
              static_cast<unsigned long long>(ladder_stats.releases),
              serve::service_level_name(ladder_stats.level));
  std::printf("dispatcher: %zu surrogate answers (%zu degraded, %zu cache "
              "hits %.0f%%), %zu shed\n",
              dispatcher_stats.surrogate_answers,
              dispatcher_stats.degraded_answers, dispatcher_stats.cache_hits,
              100.0 * cache_hit_rate, dispatcher_stats.shed_total());

  // ---- acceptance ------------------------------------------------------
  bench::print_subheading("acceptance");
  const bool baseline_collapsed =
      base_p99 >= 3.0 * budget && base_in_time_fraction < 0.3;
  const bool goodput_ok = retained_median >= 0.7;
  const bool p99_ok = prot_p99 <= 2.0 * budget;
  const std::size_t dead_forwards =
      base_qstats.dead_request_forwards + prot_qstats.dead_request_forwards;
  const bool dead_ok = dead_forwards == 0;
  // Honest S_eff attribution: every metered lookup is a real surrogate
  // answer (cached and degraded included), simulations are the only
  // training-path entries, and the sheds — which ARE present — never
  // reached the meter.
  const bool attribution_ok =
      meter_snap.n_lookup == dispatcher_stats.surrogate_answers &&
      meter_snap.n_train == dispatcher_stats.simulation_answers &&
      dispatcher_stats.shed_total() > 0;
  const bool ladder_ok = ladder_stats.engages >= 1 &&
                         ladder_stats.releases >= 1 &&
                         dispatcher_stats.degraded_answers >= 1;
  const bool clean_ok = base_result.failed == 0 && prot_result.failed == 0;
  const bool cost_ok = cost_ratio <= 0.5;

  std::printf("check: baseline collapses at 10x (p99 %.0f ms >= 3x budget, "
              "%.1f%% in time < 30%%) ... %s\n",
              base_p99 * 1e3, 100.0 * base_in_time_fraction,
              baseline_collapsed ? "PASS" : "FAIL");
  std::printf("check: protected goodput >= 70%% of capacity (median block "
              "%.0f%%) ... %s\n",
              100.0 * retained_median, goodput_ok ? "PASS" : "FAIL");
  std::printf("check: protected p99 %.1f ms <= 2x budget (%.1f ms) ... %s\n",
              prot_p99 * 1e3, 2.0 * budget * 1e3, p99_ok ? "PASS" : "FAIL");
  std::printf("check: zero dead-request forwards (got %zu) ... %s\n",
              dead_forwards, dead_ok ? "PASS" : "FAIL");
  std::printf("check: S_eff attribution (lookups == surrogate answers, "
              "sheds unmetered) ... %s\n",
              attribution_ok ? "PASS" : "FAIL");
  std::printf("check: ladder engaged AND released, degraded tier served "
              "... %s\n",
              ladder_ok ? "PASS" : "FAIL");
  std::printf("check: no untyped failures in either run ... %s\n",
              clean_ok ? "PASS" : "FAIL");
  std::printf("check: degraded tier forward cost <= 1/2 of full tier "
              "(%.2fx) ... %s\n",
              cost_ratio, cost_ok ? "PASS" : "FAIL");

  if (metrics_on) {
    auto& reg = obs::MetricsRegistry::global();
    reg.gauge("e17.capacity_qps").set(capacity_qps);
    reg.gauge("e17.goodput_qps").set(goodput_qps);
    reg.gauge("e17.goodput_retained_fraction").set(retained_median);
    reg.gauge("e17.p99_over_budget").set(prot_p99 / budget);
    reg.gauge("e17.baseline_p99_over_budget").set(base_p99 / budget);
    reg.gauge("e17.baseline_collapsed").set(baseline_collapsed ? 1.0 : 0.0);
    reg.gauge("e17.shed_fraction").set(shed_fraction);
    reg.gauge("e17.dead_request_forwards")
        .set(static_cast<double>(dead_forwards));
    reg.gauge("e17.attribution_ok").set(attribution_ok ? 1.0 : 0.0);
    reg.gauge("e17.ladder_engages")
        .set(static_cast<double>(ladder_stats.engages));
    reg.gauge("e17.ladder_releases")
        .set(static_cast<double>(ladder_stats.releases));
    reg.gauge("e17.degraded_answers")
        .set(static_cast<double>(dispatcher_stats.degraded_answers));
    reg.gauge("e17.cache_hit_rate").set(cache_hit_rate);
    reg.gauge("e17.degraded_cost_ratio").set(cost_ratio);
    bench::emit_metrics("E17");
  }
  return baseline_collapsed && goodput_ok && p99_ok && dead_ok &&
                 attribution_ok && ladder_ok && clean_ok && cost_ok
             ? 0
             : 1;
}
