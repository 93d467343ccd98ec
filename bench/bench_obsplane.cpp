// E19 — Distributed observability plane: one merged router+worker Chrome
// trace, live per-shard telemetry with the S_eff merge identity, a
// multi-window burn-rate alert that fires BEFORE the SLO error budget is
// exhausted, and a flight-recorder dump recovered after a mid-replay
// SIGKILL (DESIGN.md section 16).
//
// PR 9 made serving multi-process; this bench gates the claim that the
// observability stayed honest across the process boundary:
//
//   1. trace coherence — every worker-side `net.worker_query` span
//      harvested over the telemetry channel parents under the router-side
//      `net.query_batch` span whose TraceContext rode the kQuery frame
//      (machine-checked on ids, not eyeballed), across distinct pids;
//   2. live per-shard S_eff — the router's `net.shard<k>.s_eff` gauges and
//      merged meter equal the component-wise Snapshot::merge of the
//      per-shard telemetry meters (ratio of sums, never mean of ratios);
//   3. burn-rate alerting — a latency fault injected into one shard drives
//      deadline attainment through the fast+slow burn windows; the alert
//      must fire while most of the error budget is still unspent, brown
//      the degradation ladder out via engage_at_least, and resolve after
//      the fault clears;
//   4. postmortem — a SIGKILLed worker leaves a `le-frec-v2` flight dump
//      no staler than its last telemetry cadence; the router harvests it
//      before respawning the shard.
//
// HONESTY NOTE (single-core hosts): as in E18, each worker's "simulation"
// models a remote HPC job by BLOCKING for 1 ms; the injected latency fault
// is an extra blocking sleep on one shard.  The driver is open-loop
// (scheduled arrival times), so queue buildup during the fault is charged
// to the service — no coordinated omission.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <stdlib.h>

#include "le/net/shard_router.hpp"
#include "le/net/sharded_service.hpp"
#include "le/obs/flight_recorder.hpp"
#include "le/obs/metrics.hpp"
#include "le/obs/slo.hpp"
#include "le/obs/speedup_meter.hpp"
#include "le/obs/timer.hpp"
#include "le/obs/trace_export.hpp"
#include "le/serve/degradation.hpp"
#include "le/serve/load_gen.hpp"
#include "le/serve/overload.hpp"
#include "le/tensor/matrix.hpp"

#include "report.hpp"

namespace {

using namespace le;
using Clock = std::chrono::steady_clock;

constexpr double kKeyResolution = 0.1;
constexpr double kSimSeconds = 1e-3;  // one "remote HPC job" per gated row
constexpr unsigned kSimPercent = 25;  // fraction of key space gated to sim
constexpr double kBudgetSeconds = 0.025;
constexpr std::size_t kShards = 4;
constexpr std::size_t kFaultShard = 2;  // latency fault target
constexpr std::size_t kKillShard = 1;   // SIGKILL target
constexpr double kFaultExtraSeconds = 0.030;  // per-row stall during fault
constexpr double kFaultDuration = 1.0;
constexpr double kRateQps = 800.0;
constexpr double kReplaySeconds = 4.0;

// ---------------------------------------------------------------------------
// The per-shard backend: surrogate + gated "remote sim" + injectable fault
// ---------------------------------------------------------------------------

double splitmix_avalanche(std::uint64_t u) {
  u ^= u >> 30;
  u *= 0xbf58476d1ce4e5b9ULL;
  u ^= u >> 27;
  u *= 0x94d049bb133111ebULL;
  u ^= u >> 31;
  return static_cast<double>(u % 100);
}

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

/// Replica params double as the chaos-control channel: {scale,
/// fault_until, fault_extra_seconds}.  The router pushes a fault window
/// (absolute seconds on the shared process clock — the epoch is pinned
/// before fork) to ONE shard via push_params; rows served by that shard
/// stall for fault_extra_seconds until the window passes.  No side channel,
/// no extra protocol — the fault travels the same path replica repair does.
class FaultableBackend : public net::ShardBackend {
 public:
  FaultableBackend() : params_{1.0, 0.0, 0.0} { meter_.record_learn(0.05); }

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
      if (obs::process_clock_seconds() < params_[1]) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(params_[2]));
      }
      const auto row = inputs.row(r);
      double values[2];
      if (gate_to_simulation(row)) {
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

bool nearly_equal(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <=
         tol * std::max(1.0, std::max(std::fabs(a), std::fabs(b)));
}

/// One observed alert transition, captured by the SLO callback.
struct AlertEvent {
  bool firing = false;
  std::uint64_t bad_events = 0;
  std::uint64_t events = 0;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
};

struct ReplayResult {
  std::size_t total = 0;
  std::size_t in_time = 0;
  std::size_t shed_worker_down = 0;
  std::size_t shed_deadline = 0;
  std::vector<std::vector<double>> shard_latencies;
  std::vector<obs::SpanRecord> router_spans;  ///< drained, never dropped
  net::ShardedServiceStats stats;
};

/// Open-loop replay: latency fault pushed to kFaultShard at 25%, SIGKILL
/// of kKillShard at 65% (after the fault clears, so alert resolution and
/// crash recovery are attributable separately).  Every arrival feeds the
/// SLO tracker in order: good = answered within its deadline.
ReplayResult run_chaos_replay(net::ShardedService& service,
                              obs::SloTracker& slo) {
  serve::LoadGenConfig gen_config;
  gen_config.rate_qps = kRateQps;
  gen_config.duration_seconds = kReplaySeconds;
  gen_config.key_pool = 256;
  gen_config.seed = 20260808;
  const auto schedule = serve::LoadGenerator(gen_config).schedule();

  ReplayResult result;
  result.total = schedule.size();
  result.shard_latencies.resize(service.config().shards);

  const std::size_t ckpt_at = schedule.size() * 15 / 100;
  const std::size_t fault_at = schedule.size() * 25 / 100;
  const std::size_t kill_at = schedule.size() * 65 / 100;
  bool ckpt_done = false;
  bool fault_done = false;
  bool kill_done = false;

  const serve::ReplayClock clock(Clock::now() + std::chrono::milliseconds(5));
  std::size_t next = 0;
  while (next < schedule.size()) {
    if (!ckpt_done && next >= ckpt_at) {
      service.checkpoint_all();
      ckpt_done = true;
    }
    if (!fault_done && next >= fault_at) {
      // Brown one shard out: every row it serves stalls 30 ms until the
      // window (on the fork-shared process clock) passes.
      service.push_params(
          kFaultShard,
          std::vector<double>{1.0, obs::process_clock_seconds() + kFaultDuration,
                              kFaultExtraSeconds});
      fault_done = true;
    }
    if (!kill_done && next >= kill_at) {
      service.kill_shard(kKillShard);  // chaos: the router is NOT told
      kill_done = true;
    }

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
      bool good = false;
      if (a.shed()) {
        if (a.shed_reason == serve::ShedReason::kWorkerDown) {
          ++result.shed_worker_down;
        } else {
          ++result.shed_deadline;
        }
      } else {
        const double latency =
            std::chrono::duration<double>(
                done - clock.submit_time(schedule[next + i]))
                .count();
        const std::size_t shard = service.router().shard_for(inputs.row(i));
        result.shard_latencies[shard].push_back(latency);
        good = done <= *deadlines[i];
        if (good) ++result.in_time;
      }
      slo.record(good);
    }
    // Drain the router's own span log every iteration so the bounded
    // TraceLog ring never drops a `net.query_batch` parent span.
    auto drained = obs::TraceLog::global().drain();
    result.router_spans.insert(result.router_spans.end(),
                               std::make_move_iterator(drained.begin()),
                               std::make_move_iterator(drained.end()));
    next = end;
  }
  result.stats = service.stats();
  return result;
}

}  // namespace

int main() {
  // This bench gates the observability plane itself, so the plane is
  // unconditionally ON: metrics, tracing, and the span->flight hook.
  obs::set_metrics_enabled(true);
  obs::set_tracing_enabled(true);
  obs::set_process_name("router");
  bench::print_heading("E19",
                       "observability plane: merged trace, live telemetry, "
                       "burn-rate alert, flight recorder");

  std::string work_dir = std::filesystem::temp_directory_path().string() +
                         "/le_bench_obsplane_XXXXXX";
  if (::mkdtemp(work_dir.data()) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }

  net::ShardedServiceConfig config;
  config.shards = kShards;
  config.key_resolution = kKeyResolution;
  config.checkpoint_dir = work_dir + "/ckpt";
  config.flight_dir = work_dir + "/flight";
  config.telemetry_every = 16;
  config.recv_timeout_seconds = 30.0;
  std::filesystem::create_directories(config.checkpoint_dir);
  std::filesystem::create_directories(config.flight_dir);

  // SLO: 95% of arrivals answered within their deadline.  Windows are
  // event-count sliding windows; the classic {14.4, 6} page rule is scaled
  // to {10, 4} for the shorter replay.
  obs::SloConfig slo_config;
  slo_config.objective = 0.95;
  slo_config.fast_window = 32;
  slo_config.slow_window = 256;
  slo_config.fast_burn = 10.0;
  slo_config.slow_burn = 4.0;
  slo_config.resolve_burn = 1.0;
  obs::SloTracker slo(slo_config);
  slo.enable_metrics(obs::MetricsRegistry::global());

  serve::DegradationLadder ladder((serve::DegradationConfig()));
  std::mutex alert_mutex;
  std::vector<AlertEvent> alert_log;
  slo.set_alert_callback([&](const obs::SloAlert& alert) {
    // The plane's feedback edge: budget-exhaustion risk browns the
    // service out deliberately instead of waiting for latency thresholds.
    if (alert.firing) ladder.engage_at_least(serve::ServiceLevel::kCacheOnly);
    const std::lock_guard<std::mutex> lock(alert_mutex);
    alert_log.push_back({alert.firing, alert.bad_events, alert.events,
                         alert.fast_burn_rate, alert.slow_burn_rate});
  });

  net::ShardedService service(
      config, [](std::size_t) { return std::make_unique<FaultableBackend>(); });
  service.start();

  bench::print_subheading(
      "open-loop chaos replay (" + bench::fmt(kRateQps, "%.0f") + " q/s, " +
      bench::fmt(kReplaySeconds, "%.0f") + " s, budget " +
      bench::fmt(kBudgetSeconds * 1e3, "%.0f") + " ms; 30 ms latency fault "
      "on shard " + bench::fmt_int(kFaultShard) + " at 25%, SIGKILL shard " +
      bench::fmt_int(kKillShard) + " at 65%)");
  ReplayResult replay = run_chaos_replay(service, slo);

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
  const double attainment = 100.0 *
                            static_cast<double>(replay.in_time) /
                            static_cast<double>(replay.total);
  std::printf("arrivals %zu | in time %zu (%.2f%%) | shed: worker_down %zu, "
              "deadline/late %zu\n",
              replay.total, replay.in_time, attainment,
              replay.shed_worker_down, replay.shed_deadline);

  // ---- final telemetry pull + harvested state --------------------------
  const std::size_t polled = service.poll_telemetry();
  std::vector<obs::EffectiveSpeedupMeter::Snapshot> shard_snaps;
  for (std::size_t s = 0; s < kShards; ++s) {
    shard_snaps.push_back(service.shard_telemetry(s).meter);
  }
  const auto merged = service.merged_meter();
  const obs::MetricsSnapshot fleet = service.fleet_metrics();
  const auto process_names = service.process_names();
  std::vector<std::vector<obs::SpanRecord>> per_process;
  {
    auto tail = obs::TraceLog::global().drain();
    replay.router_spans.insert(replay.router_spans.end(),
                               std::make_move_iterator(tail.begin()),
                               std::make_move_iterator(tail.end()));
  }
  per_process.push_back(replay.router_spans);
  for (std::size_t s = 0; s < kShards; ++s) {
    per_process.push_back(service.harvested_spans(s));
  }
  service.stop();
  std::vector<std::vector<obs::FlightEvent>> flight;
  for (std::size_t s = 0; s < kShards; ++s) {
    flight.push_back(service.flight_events(s));
  }
  const auto stats = service.stats();
  std::filesystem::remove_all(work_dir);

  // ---- 1. merged trace coherence ---------------------------------------
  bench::print_subheading("merged trace coherence (ids, not eyeballs)");
  const auto fleet_spans = obs::merge_process_spans(per_process);
  const bool trace_written =
      obs::write_chrome_trace("obsplane_trace.json", fleet_spans,
                              process_names);
  std::map<std::uint64_t, const obs::SpanRecord*> router_by_span;
  for (const auto& s : replay.router_spans) router_by_span[s.span_id] = &s;
  std::size_t worker_spans = 0;
  std::size_t stitched = 0;
  std::size_t orphaned = 0;
  std::map<std::uint32_t, std::size_t> spans_by_pid;
  for (const auto& span : fleet_spans) ++spans_by_pid[span.pid];
  for (std::size_t p = 1; p < per_process.size(); ++p) {
    for (const auto& span : per_process[p]) {
      if (std::string_view(span.name) != "net.worker_query") continue;
      ++worker_spans;
      if (span.parent_span_id == 0) {
        ++orphaned;
        continue;
      }
      const auto it = router_by_span.find(span.parent_span_id);
      if (it != router_by_span.end() && it->second->trace_id == span.trace_id) {
        ++stitched;
      } else {
        ++orphaned;
      }
    }
  }
  std::printf("router spans %zu | worker spans %zu | stitched %zu | "
              "orphaned %zu | pids in trace %zu | telemetry frames %llu "
              "(final poll answered by %zu shards)\n",
              replay.router_spans.size(), worker_spans, stitched, orphaned,
              spans_by_pid.size(),
              static_cast<unsigned long long>(stats.telemetry_frames), polled);
  // Killed-worker spans that never made a telemetry push die with the
  // worker (the flight recorder is the tail for those); every span that
  // WAS harvested must stitch.  >= 5 pids = router + 4 first-generation
  // workers; the respawned shard adds a sixth.
  const bool trace_coherent_ok = trace_written && worker_spans > 100 &&
                                 orphaned == 0 && stitched == worker_spans &&
                                 spans_by_pid.size() >= kShards + 1;

  // ---- 2. live per-shard S_eff and the merge identity ------------------
  bench::print_subheading("live per-shard S_eff vs component-wise merge");
  obs::EffectiveSpeedupMeter::Snapshot manual_sum;
  for (const auto& snap : shard_snaps) manual_sum.merge(snap);
  bool gauges_match = true;
  {
    bench::Table table({"shard", "n_lookup", "n_train", "S_eff", "gauge"});
    table.header();
    for (std::size_t s = 0; s < shard_snaps.size(); ++s) {
      const std::string gauge_name =
          "net.shard" + std::to_string(s) + ".s_eff";
      double gauge = 0.0;
      for (const auto& g : fleet.gauges) {
        if (g.name == gauge_name) gauge = g.value;
      }
      gauges_match =
          gauges_match && nearly_equal(gauge, shard_snaps[s].speedup(), 1e-6);
      table.row({bench::fmt_int(s), bench::fmt_int(shard_snaps[s].n_lookup),
                 bench::fmt_int(shard_snaps[s].n_train),
                 bench::fmt(shard_snaps[s].speedup(), "%.2f"),
                 bench::fmt(gauge, "%.2f")});
    }
    table.row({"merged", bench::fmt_int(merged.n_lookup),
               bench::fmt_int(merged.n_train),
               bench::fmt(merged.speedup(), "%.2f"), "-"});
  }
  const bool counters_exact =
      merged.n_lookup == manual_sum.n_lookup &&
      merged.n_train == manual_sum.n_train &&
      nearly_equal(merged.lookup_seconds, manual_sum.lookup_seconds) &&
      nearly_equal(merged.train_seconds, manual_sum.train_seconds) &&
      nearly_equal(merged.learn_seconds, manual_sum.learn_seconds);
  const bool seff_merge_ok = counters_exact && gauges_match &&
                             nearly_equal(merged.speedup(),
                                          manual_sum.speedup(), 1e-6);
  std::printf("merged meter %s component-wise telemetry sum; gauges %s "
              "telemetry meters\n",
              counters_exact ? "==" : "!=", gauges_match ? "match" : "DIVERGE");

  // ---- 3. burn-rate alert before budget exhaustion ---------------------
  bench::print_subheading("SLO burn-rate alerting");
  const auto slo_stats = slo.stats();
  const double budget_total =
      (1.0 - slo_config.objective) * static_cast<double>(replay.total);
  const AlertEvent* first_fire = nullptr;
  const AlertEvent* first_resolve = nullptr;
  for (const auto& a : alert_log) {
    if (a.firing && first_fire == nullptr) first_fire = &a;
    if (!a.firing && first_resolve == nullptr) first_resolve = &a;
  }
  {
    bench::Table table(
        {"transition", "at event", "budget spent", "fast burn", "slow burn"});
    table.header();
    for (const auto& a : alert_log) {
      table.row({a.firing ? "FIRE" : "resolve", bench::fmt_int(a.events),
                 bench::fmt(100.0 * static_cast<double>(a.bad_events) /
                                budget_total,
                            "%.0f%%"),
                 bench::fmt(a.fast_burn, "%.1f"),
                 bench::fmt(a.slow_burn, "%.1f")});
    }
  }
  std::printf("alerts fired %llu, resolved %llu | total bad %llu of budget "
              "%.0f\n",
              static_cast<unsigned long long>(slo_stats.alerts_fired),
              static_cast<unsigned long long>(slo_stats.alerts_resolved),
              static_cast<unsigned long long>(slo_stats.bad_events),
              budget_total);
  const bool alert_fired_ok = slo_stats.alerts_fired >= 1 &&
                              first_fire != nullptr;
  const bool alert_before_exhaustion_ok =
      first_fire != nullptr &&
      static_cast<double>(first_fire->bad_events) < 0.5 * budget_total;
  const bool alert_resolved_ok = slo_stats.alerts_resolved >= 1;
  const auto ladder_stats = ladder.stats();
  const bool ladder_engaged_ok = ladder_stats.engages >= 1;
  std::printf("ladder level after alert: %s (engages %llu)\n",
              serve::service_level_name(ladder_stats.level),
              static_cast<unsigned long long>(ladder_stats.engages));

  // ---- 4. flight-recorder postmortem -----------------------------------
  bench::print_subheading("flight-recorder harvest");
  bool killed_shard_has_events = false;
  for (std::size_t s = 0; s < kShards; ++s) {
    std::size_t starts = 0;
    std::size_t queries = 0;
    for (const auto& e : flight[s]) {
      const std::string_view name(e.name);
      if (name == "worker_start") ++starts;
      if (name == "query") ++queries;
    }
    std::printf("shard %zu: %zu flight events (%zu worker_start, %zu "
                "query)\n",
                s, flight[s].size(), starts, queries);
    if (s == kKillShard && starts >= 1 && queries >= 1) {
      killed_shard_has_events = true;
    }
  }
  const bool flight_recovered_ok = stats.flight_dumps_recovered >= 1 &&
                                   stats.flight_dumps_corrupt == 0 &&
                                   killed_shard_has_events;
  std::printf("dumps recovered %llu, corrupt %llu | worker deaths %llu, "
              "restarts %llu (recovered %llu)\n",
              static_cast<unsigned long long>(stats.flight_dumps_recovered),
              static_cast<unsigned long long>(stats.flight_dumps_corrupt),
              static_cast<unsigned long long>(stats.worker_deaths),
              static_cast<unsigned long long>(stats.restarts),
              static_cast<unsigned long long>(stats.recovered_restarts));
  const bool chaos_ok = stats.worker_deaths == 1 && stats.restarts == 1;

  // ---- acceptance ------------------------------------------------------
  bench::print_subheading("acceptance");
  std::printf("check: merged trace coherent — every harvested worker span "
              "stitches under its router span, >= %zu pids ... %s\n",
              kShards + 1, trace_coherent_ok ? "PASS" : "FAIL");
  std::printf("check: per-shard S_eff gauges == telemetry meters, merged "
              "== component-wise sum ... %s\n",
              seff_merge_ok ? "PASS" : "FAIL");
  std::printf("check: burn-rate alert fired ... %s\n",
              alert_fired_ok ? "PASS" : "FAIL");
  std::printf("check: first alert spent < 50%% of the error budget ... "
              "%s\n",
              alert_before_exhaustion_ok ? "PASS" : "FAIL");
  std::printf("check: alert resolved after the fault cleared ... %s\n",
              alert_resolved_ok ? "PASS" : "FAIL");
  std::printf("check: alert engaged the degradation ladder ... %s\n",
              ladder_engaged_ok ? "PASS" : "FAIL");
  std::printf("check: SIGKILL -> flight dump harvested (0 corrupt), shard "
              "respawned ... %s\n",
              (flight_recovered_ok && chaos_ok) ? "PASS" : "FAIL");

  auto& reg = obs::MetricsRegistry::global();
  reg.gauge("e19.trace_coherent_ok").set(trace_coherent_ok ? 1.0 : 0.0);
  reg.gauge("e19.worker_spans_stitched").set(static_cast<double>(stitched));
  reg.gauge("e19.trace_pids").set(static_cast<double>(spans_by_pid.size()));
  reg.gauge("e19.seff_merge_ok").set(seff_merge_ok ? 1.0 : 0.0);
  reg.gauge("e19.seff_fleet").set(merged.speedup());
  reg.gauge("e19.alert_fired_ok").set(alert_fired_ok ? 1.0 : 0.0);
  reg.gauge("e19.alert_before_exhaustion_ok")
      .set(alert_before_exhaustion_ok ? 1.0 : 0.0);
  reg.gauge("e19.alert_resolved_ok").set(alert_resolved_ok ? 1.0 : 0.0);
  reg.gauge("e19.ladder_engaged_ok").set(ladder_engaged_ok ? 1.0 : 0.0);
  reg.gauge("e19.flight_recovered_ok").set(flight_recovered_ok ? 1.0 : 0.0);
  reg.gauge("e19.flight_dumps_recovered")
      .set(static_cast<double>(stats.flight_dumps_recovered));
  reg.gauge("e19.slo_attainment_pct").set(attainment);
  bench::emit_metrics("E19");

  return trace_coherent_ok && seff_merge_ok && alert_fired_ok &&
                 alert_before_exhaustion_ok && alert_resolved_ok &&
                 ladder_engaged_ok && flight_recovered_ok && chaos_ok
             ? 0
             : 1;
}
