// E18 — Sharded serving: q/s scaling across worker processes, per-shard
// SLO attainment under an open-loop replay with SIGKILL chaos, and the
// router-merged live S_eff (DESIGN.md section 15).
//
// The ShardedService is the repo's first real process topology: N fork'd
// workers, each owning one shard of the quantized-key space plus a
// surrogate replica, behind a router speaking le-net-v1 frames over
// AF_UNIX socketpairs.  This bench measures the claims that topology
// exists to make:
//
//   1. capacity scales with shard count (1 -> 2 -> 4 workers);
//   2. at nominal load the fleet holds its latency SLO per shard, and a
//      SIGKILLed worker costs a typed blip (kWorkerDown sheds), not a
//      hang — the shard respawns and recovers its state from its
//      le::ckpt checkpoint mid-run;
//   3. the router's merged S_eff is exactly the component-wise sum of
//      the per-shard meters (ratio of sums, never mean of ratios);
//   4. one Section III-A sync round (Allreduce, then Rotation)
//      re-converges deliberately perturbed replicas.
//
// HONESTY NOTE (single-core hosts): each worker's "simulation" models a
// remote HPC job — the worker BLOCKS for sim_ms (a sleep), exactly as it
// would await a batch job on a cluster, while its "surrogate lookup" is
// microseconds of arithmetic.  Shard scaling therefore measures what
// sharding actually buys on one core: overlap of the blocking waits plus
// amortized protocol overhead — NOT fake CPU parallelism.  On multi-core
// hosts the same harness additionally overlaps compute.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <stdlib.h>

#include "le/net/shard_router.hpp"
#include "le/net/sharded_service.hpp"
#include "le/obs/speedup_meter.hpp"
#include "le/runtime/sync_engine.hpp"
#include "le/serve/load_gen.hpp"
#include "le/serve/overload.hpp"
#include "le/tensor/matrix.hpp"

#include "report.hpp"

namespace {

using namespace le;
using Clock = std::chrono::steady_clock;

constexpr double kKeyResolution = 0.1;
constexpr double kSimSeconds = 1e-3;   // one "remote HPC job" per gated row
constexpr unsigned kSimPercent = 25;   // fraction of key space gated to sim
constexpr double kBudgetSeconds = 0.025;

// ---------------------------------------------------------------------------
// The per-shard backend: a stand-in surrogate + gated "remote simulation"
// ---------------------------------------------------------------------------

double splitmix_avalanche(std::uint64_t u) {
  u ^= u >> 30;
  u *= 0xbf58476d1ce4e5b9ULL;
  u ^= u >> 27;
  u *= 0x94d049bb133111ebULL;
  u ^= u >> 31;
  return static_cast<double>(u % 100);
}

/// Deterministic pseudo-uncertainty of a quantized key: the same key is
/// ALWAYS gated the same way, so the sim fraction is a property of the
/// key population, not of replay timing.
bool gate_to_simulation(std::span<const double> row) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const double v : row) {
    h = h * 1099511628211ULL +
        static_cast<std::uint64_t>(std::llround(v / kKeyResolution));
  }
  return splitmix_avalanche(h) < static_cast<double>(kSimPercent);
}

void target_fn(std::span<const double> x, double scale, double* out2) {
  out2[0] = scale * (std::sin(x[0]) * std::cos(x[1]) + 0.1 * x[0]);
  out2[1] = scale * 0.5 * std::sin(x[0] + x[1]);
}

class HpcBackend : public net::ShardBackend {
 public:
  HpcBackend() : params_{1.0, 0.0, 0.0} {
    // Amortized stand-in for the shard replica's training investment, so
    // the Section III-D formula has a real T_learn term.
    meter_.record_learn(0.05);
  }

  std::vector<net::NetAnswer> query_batch(
      const tensor::Matrix& inputs,
      std::span<const serve::Deadline> deadlines) override {
    std::vector<net::NetAnswer> out(inputs.rows());
    for (std::size_t r = 0; r < inputs.rows(); ++r) {
      const auto row_start = Clock::now();
      if (!deadlines.empty() && deadlines[r].has_value() &&
          *deadlines[r] < row_start) {
        out[r].source = net::NetAnswerSource::kShed;
        out[r].shed_reason = serve::ShedReason::kDeadline;
        continue;
      }
      const auto row = inputs.row(r);
      double values[2];
      if (gate_to_simulation(row)) {
        // "Remote HPC job": the worker blocks awaiting the result.
        std::this_thread::sleep_for(
            std::chrono::duration<double>(kSimSeconds));
        target_fn(row, params_[0], values);
        const double secs =
            std::chrono::duration<double>(Clock::now() - row_start).count();
        out[r].source = net::NetAnswerSource::kSimulation;
        out[r].seconds = secs;
        meter_.record_train(secs);
      } else {
        target_fn(row, params_[0], values);
        values[0] += params_[1];  // replica-local bias (sync demo knob)
        const double secs =
            std::chrono::duration<double>(Clock::now() - row_start).count();
        out[r].source = net::NetAnswerSource::kSurrogate;
        out[r].seconds = secs;
        meter_.record_lookup(secs);
      }
      out[r].values.assign(values, values + 2);
    }
    return out;
  }

  obs::EffectiveSpeedupMeter& meter() override { return meter_; }
  std::vector<double> export_params() override { return params_; }
  void import_params(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
  }

 private:
  obs::EffectiveSpeedupMeter meter_;
  std::vector<double> params_;
};

// ---------------------------------------------------------------------------
// Driver helpers
// ---------------------------------------------------------------------------

void key_to_input(std::size_t key, std::span<double> out) {
  out[0] = std::fmod(0.37 * static_cast<double>(key), 8.0);
  out[1] = std::fmod(0.51 * static_cast<double>(key) + 1.3, 8.0);
}

double percentile(std::vector<double>& sorted_in_place, double p) {
  if (sorted_in_place.empty()) return 0.0;
  std::sort(sorted_in_place.begin(), sorted_in_place.end());
  const double idx = p * static_cast<double>(sorted_in_place.size() - 1);
  return sorted_in_place[static_cast<std::size_t>(std::llround(idx))];
}

net::ShardedServiceConfig make_config(std::size_t shards,
                                      std::string ckpt_dir = "") {
  net::ShardedServiceConfig config;
  config.shards = shards;
  config.key_resolution = kKeyResolution;
  config.checkpoint_dir = std::move(ckpt_dir);
  config.recv_timeout_seconds = 30.0;
  return config;
}

net::BackendFactory hpc_factory() {
  return [](std::size_t) { return std::make_unique<HpcBackend>(); };
}

/// Measured capacity at one shard count: closed-loop 64-row batches over a
/// fixed key pool, q/s = rows / wall.
double measure_capacity_qps(std::size_t shards) {
  net::ShardedService service(make_config(shards), hpc_factory());
  service.start();
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kBatches = 15;
  constexpr std::size_t kPool = 256;
  tensor::Matrix inputs(kBatch, 2);
  // Warm-up batch: spawn/page-in costs stay out of the measurement.
  for (std::size_t r = 0; r < kBatch; ++r) key_to_input(r, inputs.row(r));
  (void)service.query_batch(inputs);

  const auto t0 = Clock::now();
  std::size_t served = 0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    for (std::size_t r = 0; r < kBatch; ++r) {
      key_to_input((b * kBatch + r) % kPool, inputs.row(r));
    }
    const auto answers = service.query_batch(inputs);
    for (const auto& a : answers) {
      if (!a.shed()) ++served;
    }
  }
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  service.stop();
  if (served != kBatch * kBatches) {
    throw std::runtime_error("capacity run shed rows unexpectedly");
  }
  return static_cast<double>(served) / wall;
}

struct ReplayResult {
  std::size_t total = 0;
  std::size_t in_time = 0;
  std::size_t shed_worker_down = 0;
  std::size_t shed_deadline = 0;
  std::size_t shed_untyped = 0;
  std::vector<std::vector<double>> shard_latencies;  // seconds, per shard
  net::ShardedServiceStats stats;
};

/// Open-loop replay at `rate_qps` against a 4-shard fleet with mid-run
/// checkpoint and SIGKILL chaos.  Latency is measured from each arrival's
/// SCHEDULED submit time (ReplayClock), so a driver that falls behind is
/// charged for it — no coordinated omission, no coordinated deadline
/// shift.
ReplayResult run_slo_replay(net::ShardedService& service, double rate_qps,
                            double duration_seconds) {
  serve::LoadGenConfig gen_config;
  gen_config.rate_qps = rate_qps;
  gen_config.duration_seconds = duration_seconds;
  gen_config.key_pool = 256;
  gen_config.seed = 20260808;
  const auto schedule = serve::LoadGenerator(gen_config).schedule();

  ReplayResult result;
  result.total = schedule.size();
  result.shard_latencies.resize(service.config().shards);

  const std::size_t ckpt_at = schedule.size() * 30 / 100;
  const std::size_t kill_at = schedule.size() * 45 / 100;
  bool ckpt_done = false;
  bool kill_done = false;

  const serve::ReplayClock clock(Clock::now() + std::chrono::milliseconds(5));
  std::size_t next = 0;
  while (next < schedule.size()) {
    if (!ckpt_done && next >= ckpt_at) {
      service.checkpoint_all();
      ckpt_done = true;
    }
    if (!kill_done && next >= kill_at) {
      service.kill_shard(1);  // chaos: the router is NOT told
      kill_done = true;
    }

    // Open-loop coalescing driver: sleep until the next arrival is due,
    // then batch every arrival that has become due in the meantime.
    std::this_thread::sleep_until(clock.submit_time(schedule[next]));
    std::size_t end = next;
    const auto now = Clock::now();
    while (end < schedule.size() && clock.submit_time(schedule[end]) <= now) {
      ++end;
    }
    const std::size_t n = end - next;
    tensor::Matrix inputs(n, 2);
    std::vector<serve::Deadline> deadlines(n);
    for (std::size_t i = 0; i < n; ++i) {
      key_to_input(schedule[next + i].key, inputs.row(i));
      deadlines[i] = clock.deadline(schedule[next + i], kBudgetSeconds);
    }
    const auto answers = service.query_batch(inputs, deadlines);
    const auto done = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const auto& a = answers[i];
      if (a.shed()) {
        if (a.shed_reason == serve::ShedReason::kWorkerDown) {
          ++result.shed_worker_down;
        } else if (a.shed_reason == serve::ShedReason::kDeadline) {
          ++result.shed_deadline;
        } else {
          ++result.shed_untyped;
        }
        continue;
      }
      const double latency = std::chrono::duration<double>(
                                 done - clock.submit_time(schedule[next + i]))
                                 .count();
      const std::size_t shard = service.router().shard_for(inputs.row(i));
      result.shard_latencies[shard].push_back(latency);
      if (done <= *deadlines[i]) ++result.in_time;
    }
    next = end;
  }
  result.stats = service.stats();
  return result;
}

bool nearly_equal(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol * std::max(1.0, std::max(std::fabs(a),
                                                          std::fabs(b)));
}

}  // namespace

int main() {
  const bool metrics_on = bench::enable_metrics_from_env();
  bench::print_heading("E18", "sharded serving: scaling, per-shard SLO, "
                              "merged live S_eff");

  // ---- capacity vs shard count ----------------------------------------
  bench::print_subheading(
      "capacity scaling (sims are blocking 1 ms remote-job waits)");
  // One probe per shard count lands each count on a different moment of
  // host noise.  So every count is probed in each of kCapacityRounds
  // rounds, the order rotating (1,2,4 / 2,4,1 / 4,1,2 / ...); the gate and
  // the replay rate read each count's median, and the quartiles are its
  // measured spread.
  constexpr std::size_t kShardCounts[] = {1, 2, 4};
  constexpr std::size_t kCounts = std::size(kShardCounts);
  constexpr std::size_t kCapacityRounds = 5;
  std::vector<double> capacity[kCounts];
  for (std::size_t round = 0; round < kCapacityRounds; ++round) {
    for (std::size_t k = 0; k < kCounts; ++k) {
      const std::size_t i = (round + k) % kCounts;
      capacity[i].push_back(measure_capacity_qps(kShardCounts[i]));
    }
  }
  const auto quantile = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
  };
  const double qps1 = quantile(capacity[0], 0.5);
  const double qps2 = quantile(capacity[1], 0.5);
  const double qps4 = quantile(capacity[2], 0.5);
  {
    bench::Table table({"shards", "median q/s", "q1 q/s", "q3 q/s",
                        "speedup vs 1"});
    table.header();
    for (std::size_t i = 0; i < kCounts; ++i) {
      const double median = quantile(capacity[i], 0.5);
      table.row({bench::fmt_int(kShardCounts[i]), bench::fmt(median, "%.0f"),
                 bench::fmt(quantile(capacity[i], 0.25), "%.0f"),
                 bench::fmt(quantile(capacity[i], 0.75), "%.0f"),
                 bench::fmt(median / qps1, "%.2f")});
    }
  }
  const bool scaling_monotonic = qps2 > 1.1 * qps1 && qps4 > 1.1 * qps2;

  // ---- SLO replay with checkpoint + SIGKILL chaos ---------------------
  const double rate_qps = std::clamp(0.5 * qps4, 500.0, 2500.0);
  bench::print_subheading("open-loop SLO replay at nominal load (" +
                          bench::fmt(rate_qps, "%.0f") + " q/s, budget " +
                          bench::fmt(kBudgetSeconds * 1e3, "%.0f") +
                          " ms, ckpt at 30%, SIGKILL shard 1 at 45%)");
  std::string ckpt_dir = std::filesystem::temp_directory_path().string() +
                         "/le_bench_sharded_XXXXXX";
  if (::mkdtemp(ckpt_dir.data()) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  net::ShardedService service(make_config(4, ckpt_dir), hpc_factory());
  service.start();
  ReplayResult replay = run_slo_replay(service, rate_qps, 3.0);

  {
    bench::Table table({"shard", "served", "p50 ms", "p95 ms", "p99 ms"});
    table.header();
    for (std::size_t s = 0; s < replay.shard_latencies.size(); ++s) {
      auto& lat = replay.shard_latencies[s];
      table.row({bench::fmt_int(s), bench::fmt_int(lat.size()),
                 bench::fmt(percentile(lat, 0.50) * 1e3, "%.2f"),
                 bench::fmt(percentile(lat, 0.95) * 1e3, "%.2f"),
                 bench::fmt(percentile(lat, 0.99) * 1e3, "%.2f")});
    }
  }
  std::vector<double> all_latencies;
  for (const auto& lat : replay.shard_latencies) {
    all_latencies.insert(all_latencies.end(), lat.begin(), lat.end());
  }
  const double p99 = percentile(all_latencies, 0.99);
  const double attainment =
      100.0 * static_cast<double>(replay.in_time) /
      static_cast<double>(replay.total);
  std::printf("arrivals %zu | in time %zu (%.2f%%) | shed: worker_down %zu, "
              "deadline %zu, untyped %zu\n",
              replay.total, replay.in_time, attainment,
              replay.shed_worker_down, replay.shed_deadline,
              replay.shed_untyped);
  std::printf("worker deaths %llu | restarts %llu | recovered restarts "
              "%llu\n",
              static_cast<unsigned long long>(replay.stats.worker_deaths),
              static_cast<unsigned long long>(replay.stats.restarts),
              static_cast<unsigned long long>(
                  replay.stats.recovered_restarts));

  // ---- merged S_eff exactness -----------------------------------------
  bench::print_subheading("per-shard and merged live S_eff");
  std::vector<obs::EffectiveSpeedupMeter::Snapshot> shard_snaps;
  obs::EffectiveSpeedupMeter::Snapshot manual_sum;
  for (std::size_t s = 0; s < 4; ++s) {
    shard_snaps.push_back(service.shard_meter(s));
    manual_sum.merge(shard_snaps.back());
  }
  const auto merged = service.merged_meter();
  {
    bench::Table table({"shard", "n_lookup", "n_train", "S_eff"});
    table.header();
    for (std::size_t s = 0; s < shard_snaps.size(); ++s) {
      table.row({bench::fmt_int(s), bench::fmt_int(shard_snaps[s].n_lookup),
                 bench::fmt_int(shard_snaps[s].n_train),
                 bench::fmt(shard_snaps[s].speedup(), "%.2f")});
    }
    table.row({"merged", bench::fmt_int(merged.n_lookup),
               bench::fmt_int(merged.n_train),
               bench::fmt(merged.speedup(), "%.2f")});
  }
  const bool counters_exact =
      merged.n_lookup == manual_sum.n_lookup &&
      merged.n_train == manual_sum.n_train &&
      nearly_equal(merged.lookup_seconds, manual_sum.lookup_seconds) &&
      nearly_equal(merged.train_seconds, manual_sum.train_seconds) &&
      nearly_equal(merged.learn_seconds, manual_sum.learn_seconds);
  const double seff_rel_diff =
      manual_sum.speedup() > 0.0
          ? std::fabs(merged.speedup() - manual_sum.speedup()) /
                manual_sum.speedup()
          : 1.0;
  const bool seff_merge_ok = counters_exact && seff_rel_diff <= 0.10;

  // ---- Section III-A replica sync -------------------------------------
  bench::print_subheading("replica sync: Allreduce then Rotation");
  std::vector<double> perturbed = service.pull_params(0);
  perturbed[0] = 2.2;
  perturbed[1] = 0.4;
  service.push_params(0, perturbed);
  service.sync_replicas(runtime::SyncModel::kAllreduce);
  bool sync_ok = true;
  const std::vector<double> after0 = service.pull_params(0);
  // Mean of {2.2, 1, 1, 1} in component 0 = 1.3; every replica must agree.
  sync_ok = sync_ok && nearly_equal(after0[0], 1.3);
  for (std::size_t s = 1; s < 4; ++s) {
    const std::vector<double> ps = service.pull_params(s);
    for (std::size_t i = 0; i < ps.size(); ++i) {
      sync_ok = sync_ok && nearly_equal(ps[i], after0[i]);
    }
  }
  std::printf("allreduce: perturbed replica 0 to 2.2, fleet converged to "
              "%.4f ... %s\n",
              after0[0], sync_ok ? "ok" : "DIVERGED");
  std::vector<double> diverged = service.pull_params(2);
  diverged[0] = 9.0;
  service.push_params(2, diverged);
  service.sync_replicas(runtime::SyncModel::kRotation);
  const std::vector<double> rot0 = service.pull_params(0);
  for (std::size_t s = 1; s < 4; ++s) {
    const std::vector<double> ps = service.pull_params(s);
    for (std::size_t i = 0; i < ps.size(); ++i) {
      sync_ok = sync_ok && nearly_equal(ps[i], rot0[i]);
    }
  }
  std::printf("rotation: diverged replica 2, one round re-equalized the "
              "fleet ... %s\n",
              sync_ok ? "ok" : "DIVERGED");

  service.stop();
  std::filesystem::remove_all(ckpt_dir);

  // ---- acceptance ------------------------------------------------------
  bench::print_subheading("acceptance");
  const bool slo_ok = attainment >= 95.0;
  const bool chaos_ok = replay.stats.worker_deaths == 1 &&
                        replay.stats.restarts == 1 &&
                        replay.stats.recovered_restarts == 1;
  const bool shed_typed_ok =
      replay.shed_untyped == 0 && replay.shed_worker_down >= 1;
  std::printf("check: q/s scales monotonically 1 -> 2 -> 4 shards "
              "(medians %.0f -> %.0f -> %.0f) ... %s\n",
              qps1, qps2, qps4, scaling_monotonic ? "PASS" : "FAIL");
  std::printf("check: SLO attainment %.2f%% >= 95%% at nominal load "
              "(kill included) ... %s\n",
              attainment, slo_ok ? "PASS" : "FAIL");
  std::printf("check: SIGKILL -> 1 death, 1 restart, recovered from ckpt "
              "... %s\n",
              chaos_ok ? "PASS" : "FAIL");
  std::printf("check: every shed typed, >= 1 worker_down shed, zero "
              "untyped ... %s\n",
              shed_typed_ok ? "PASS" : "FAIL");
  std::printf("check: merged meter == component-wise shard sum, S_eff "
              "within 10%% ... %s\n",
              seff_merge_ok ? "PASS" : "FAIL");
  std::printf("check: Allreduce and Rotation rounds re-converge replicas "
              "... %s\n",
              sync_ok ? "PASS" : "FAIL");

  if (metrics_on) {
    auto& reg = obs::MetricsRegistry::global();
    reg.gauge("e18.qps_1shard").set(qps1);
    reg.gauge("e18.qps_2shards").set(qps2);
    reg.gauge("e18.qps_4shards").set(qps4);
    reg.gauge("e18.scaling_monotonic").set(scaling_monotonic ? 1.0 : 0.0);
    reg.gauge("e18.slo_attainment_pct").set(attainment);
    reg.gauge("e18.p99_ms").set(p99 * 1e3);
    reg.gauge("e18.seff_merge_ok").set(seff_merge_ok ? 1.0 : 0.0);
    reg.gauge("e18.seff_aggregate").set(merged.speedup());
    reg.gauge("e18.worker_restarts")
        .set(static_cast<double>(replay.stats.restarts));
    reg.gauge("e18.recovered_ok").set(chaos_ok ? 1.0 : 0.0);
    reg.gauge("e18.shed_typed_ok").set(shed_typed_ok ? 1.0 : 0.0);
    reg.gauge("e18.sync_ok").set(sync_ok ? 1.0 : 0.0);
    bench::emit_metrics("E18");
  }
  return scaling_monotonic && slo_ok && chaos_ok && shed_typed_ok &&
                 seff_merge_ok && sync_ok
             ? 0
             : 1;
}
