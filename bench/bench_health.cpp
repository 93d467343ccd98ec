// E14 — Surrogate health monitoring: drift detection, shadow-sampled
// residuals, breaker trip and retraining recovery.
//
// The effective-speedup equation (Section III-D) prices surrogate answers
// at T_lookup, but it assumes they stay *valid*.  This bench drifts the
// query stream off the training distribution mid-campaign and checks that
// the le::obs health stack catches the rot and that retraining restores
// the speedup:
//
//   (1) in-distribution serving latches a residual baseline and stays
//       HEALTHY; the pre-drift live S_eff is recorded;
//   (2) an abrupt off-support shift raises PSI into the warning band ->
//       DRIFTING, and the drift flag must land BEFORE the rolling
//       shadow-sample RMSE exceeds 2x its in-distribution baseline (the
//       detector is an early warning, not a post-mortem); the shadow
//       residuals then confirm real error -> UNTRUSTED;
//   (3) UNTRUSTED trips the dispatcher's circuit breaker (queries fall
//       back to the real simulation) and requests retraining;
//   (4) run_adaptive_loop over the drifted region retrains the surrogate,
//       rebases the monitor and restores HEALTHY; post-retrain S_eff on
//       the drifted stream must reach >= 80% of the pre-drift S_eff;
//   (5) steady-state dispatch overhead of monitoring + 1% shadow sampling
//       (shadow simulations excluded — they are billed training-path
//       work, not dispatch cost), the median over rounds of block-interleaved
//       plain/monitored serving, must stay <= 5%.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "le/core/adaptive_loop.hpp"
#include "le/core/resilient.hpp"
#include "le/core/surrogate.hpp"
#include "le/obs/health.hpp"
#include "le/obs/speedup_meter.hpp"
#include "le/stats/rng.hpp"
#include "report.hpp"

namespace {
using namespace le;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Spin work so the "simulation" costs ~1 ms: the meter needs a real cost
/// asymmetry between simulation and lookup for S_eff to mean anything.
void spin(std::size_t units) {
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  for (std::size_t i = 0; i < units; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sink = sink + x;
  }
}

std::vector<double> simulation(std::span<const double> p) {
  spin(400000);
  return {std::sin(2.0 * p[0]) * std::cos(p[1]) + 0.3 * p[0], p[0] * p[1]};
}

core::AdaptiveLoopConfig loop_config(obs::EffectiveSpeedupMeter* meter,
                                     obs::SurrogateHealthMonitor* monitor) {
  core::AdaptiveLoopConfig loop;
  // Mostly-uniform corpus: acquisition concentrates samples in high-
  // uncertainty pockets, and a heavily biased reference histogram would
  // give the drift detector a false PSI floor against uniform demand.
  loop.initial_samples = 96;
  loop.samples_per_round = 8;
  loop.max_rounds = 2;
  loop.uncertainty_threshold = 0.03;
  loop.hidden = {24, 24};
  loop.train.epochs = 250;
  loop.train.batch_size = 16;
  loop.speedup_meter = meter;
  loop.health_monitor = monitor;
  return loop;
}

obs::SurrogateHealthConfig health_config(double shadow_fraction) {
  obs::SurrogateHealthConfig hc;
  // PSI's sampling-noise floor is ~(bins-1)/window + (bins-1)/corpus, so
  // coarse bins keep the in-distribution floor (~0.17 mean) below the
  // warning band.  The bands encode a monitoring philosophy: distribution
  // shift alone only *warns* (DRIFTING — the model may still extrapolate
  // fine), while the alarm that condemns the surrogate must come from
  // ground truth, i.e. shadow-sampled residuals.  Hence the un-reachable
  // psi/ks alarm levels (a total off-support shift scores PSI ~ 8.5 =
  // end-bin mass + 7 depleted bins, KS ~ 0.875) and the active 2x-RMSE
  // alarm.  Coverage bands are loose: MC-dropout coverage is only
  // statistically calibrated and its wobble should not condemn a model
  // whose point error is fine.
  hc.drift.bins = 8;
  hc.drift.window = 64;
  hc.psi_drifting = 0.6;
  hc.psi_untrusted = 1e9;
  hc.ks_drifting = 0.4;
  hc.ks_untrusted = 1e9;
  hc.coverage_shortfall_drifting = 0.30;
  hc.coverage_shortfall_untrusted = 0.60;
  hc.shadow_fraction = shadow_fraction;
  hc.residual_window = 64;
  hc.min_shadow_samples = 10;
  return hc;
}

std::vector<double> draw(stats::Rng& rng, double lo, double hi) {
  return {rng.uniform(lo, hi), rng.uniform(lo, hi)};
}

}  // namespace

int main() {
  const bool metrics_on = bench::enable_metrics_from_env();
  bench::print_heading(
      "E14", "Surrogate health: drift -> breaker trip -> retrain recovery");

  // ---- train on the in-distribution box [0,1]^2 ----------------------
  const data::ParamSpace in_dist({{"x", 0.0, 1.0, false},
                                  {"y", 0.0, 1.0, false}});
  obs::EffectiveSpeedupMeter train_meter;
  std::printf("\nTraining the surrogate on [0,1]^2...\n");
  core::AdaptiveLoopResult trained = core::run_adaptive_loop(
      in_dist, simulation, 2, loop_config(&train_meter, nullptr));
  std::printf("corpus: %zu samples, converged: %s\n", trained.corpus.size(),
              trained.converged ? "yes" : "no");

  // Loose UQ gate: monitoring — not per-query gating — is the protection
  // under test, so the gate accepts everything the surrogate emits.
  core::SurrogateDispatcher dispatcher(trained.surrogate, simulation,
                                       /*threshold=*/1e9);
  dispatcher.enable_circuit_breaker({});
  dispatcher.enable_health_monitoring(health_config(0.01),
                                      trained.corpus.input_matrix());
  obs::SurrogateHealthMonitor& monitor = *dispatcher.health_monitor();

  // ---- (1) in-distribution serving: baseline S_eff, HEALTHY ----------
  bench::print_subheading("phase 1: in-distribution serving");
  stats::Rng rng(11);
  obs::EffectiveSpeedupMeter pre_meter;
  {
    const auto sim_t0 = std::chrono::steady_clock::now();
    (void)simulation(std::vector<double>{0.5, 0.5});
    pre_meter.record_seq_baseline(seconds_since(sim_t0));
  }
  dispatcher.set_speedup_meter(&pre_meter);
  constexpr int kPhase1 = 1200;
  for (int q = 0; q < kPhase1; ++q) {
    (void)dispatcher.query(draw(rng, 0.02, 0.98));
  }
  const obs::HealthReport pre_report = monitor.report();
  const double pre_speedup = pre_meter.snapshot().speedup();
  std::printf("state %s after %d queries, %zu shadow samples\n",
              obs::to_string(pre_report.state).c_str(), kPhase1,
              pre_report.shadow_samples);
  std::printf("residual baseline rmse %.4g, coverage %.3f, sharpness %.4g\n",
              pre_report.baseline_rmse, pre_report.coverage,
              pre_report.sharpness);
  std::printf("pre-drift live S_eff = %.3g\n", pre_speedup);
  const bool healthy_ok = pre_report.state == obs::HealthState::kHealthy &&
                          pre_report.baseline_rmse > 0.0;

  // ---- (2) drift injection: abrupt shift off the training support ----
  bench::print_subheading("phase 2: drift injection");
  // Every query now comes from [1.6, 2.4]^2, entirely off the [0,1]^2
  // training support.  The acceptance race: the drift detector (scored at
  // every full window) must flag the shift BEFORE the rolling shadow RMSE
  // crosses 2x its in-distribution baseline (shadow samples land only
  // every 1/shadow_fraction accepted answers, so the detector is the
  // early-warning signal by construction, not by luck).
  long first_drift_flag = -1; // injected query of first drift warning
  long first_breach = -1;     // injected query when RMSE crosses 2x base
  const double rmse_limit = 2.0 * pre_report.baseline_rmse;
  long injected = 0;
  for (int q = 0; q < 2048 && monitor.state() != obs::HealthState::kUntrusted;
       ++q) {
    (void)dispatcher.query(draw(rng, 1.6, 2.4));
    ++injected;
    const obs::HealthReport r = monitor.report();
    if (first_drift_flag < 0 &&
        (r.drift.max_psi >= monitor.config().psi_drifting ||
         r.drift.max_ks >= monitor.config().ks_drifting)) {
      first_drift_flag = injected;
    }
    if (first_breach < 0 && r.residual_rmse > rmse_limit) {
      first_breach = injected;
    }
  }
  for (const obs::HealthTransition& t : monitor.transitions()) {
    std::printf("  transition @ query %llu: %s -> %s (%s)\n",
                static_cast<unsigned long long>(t.at_query),
                obs::to_string(t.from).c_str(), obs::to_string(t.to).c_str(),
                t.reason.c_str());
  }
  const bool untrusted_ok = monitor.state() == obs::HealthState::kUntrusted;
  const bool early_ok = first_drift_flag > 0 &&
                        (first_breach < 0 || first_drift_flag < first_breach);
  std::printf("drift flagged at injected query %ld; rmse crossed 2x baseline "
              "at %ld %s\n",
              first_drift_flag, first_breach,
              early_ok ? "(detector first: PASS)" : "(FAIL)");

  // ---- (3) breaker trip + retrain request ----------------------------
  bench::print_subheading("phase 3: breaker trip and retrain request");
  const bool breaker_ok = dispatcher.circuit_breaker()->state() ==
                          core::BreakerState::kOpen;
  const bool request_ok = monitor.retrain_requested();
  std::printf("breaker state: %s, retrain requested: %s\n",
              breaker_ok ? "open" : "NOT open", request_ok ? "yes" : "no");
  {
    // While untrusted, queries must fall back to the simulation.
    const auto before = dispatcher.stats().simulation_answers;
    (void)dispatcher.query(draw(rng, 1.6, 2.4));
    std::printf("untrusted query went to: %s\n",
                dispatcher.stats().simulation_answers > before ? "simulation"
                                                               : "surrogate");
  }

  // ---- (4) retrain on the drifted region and recover -----------------
  bench::print_subheading("phase 4: retrain and recovery");
  const data::ParamSpace drifted({{"x", 1.4, 2.6, false},
                                  {"y", 1.4, 2.6, false}});
  core::AdaptiveLoopResult retrained = core::run_adaptive_loop(
      drifted, simulation, 2, loop_config(&train_meter, &monitor));
  dispatcher.replace_surrogate(retrained.surrogate);
  const bool recovered_ok = monitor.state() == obs::HealthState::kHealthy;
  std::printf("after retraining: state %s, corpus %zu samples\n",
              obs::to_string(monitor.state()).c_str(),
              retrained.corpus.size());

  obs::EffectiveSpeedupMeter post_meter;
  {
    const auto sim_t0 = std::chrono::steady_clock::now();
    (void)simulation(std::vector<double>{2.0, 2.0});
    post_meter.record_seq_baseline(seconds_since(sim_t0));
  }
  dispatcher.set_speedup_meter(&post_meter);
  for (int q = 0; q < kPhase1; ++q) {
    (void)dispatcher.query(draw(rng, 1.45, 2.55));
  }
  const double post_speedup = post_meter.snapshot().speedup();
  const obs::HealthReport post_report = monitor.report();
  const bool speedup_ok = post_speedup >= 0.8 * pre_speedup;
  std::printf("post-retrain live S_eff = %.3g (pre-drift %.3g, target >= "
              "80%%) ... %s\n",
              post_speedup, pre_speedup, speedup_ok ? "PASS" : "FAIL");
  std::printf("post-retrain state %s, residual rmse %.4g, coverage %.3f\n",
              obs::to_string(post_report.state).c_str(),
              post_report.residual_rmse, post_report.coverage);

  // ---- (5) steady-state monitoring overhead --------------------------
  bench::print_subheading("phase 5: dispatch overhead of monitoring");
  // Same surrogate, same in-distribution stream, monitoring off vs on
  // (drift detector + 1% shadow sampling).  Shadow simulations are
  // subtracted: they are honest training-path work billed to the meter,
  // not dispatch overhead.  A query costs ~15-35 us and monitoring a few
  // tenths of a microsecond, while host noise moves whole runs by several
  // percent.  So the two dispatchers serve the stream interleaved, block
  // by block (the order alternating between blocks), and a burst of noise
  // lands on both; each round yields one overhead ratio, the gate reads
  // the median round, and the rounds' quartiles are its measured spread.
  constexpr int kOverheadQueries = 4000;
  constexpr int kBlockQueries = 100;
  constexpr int kOverheadRounds = 7;
  core::SurrogateDispatcher plain(retrained.surrogate, simulation, 1e9);
  core::SurrogateDispatcher monitored(retrained.surrogate, simulation, 1e9);
  monitored.enable_health_monitoring(health_config(0.01),
                                     retrained.corpus.input_matrix());
  const auto serve_block = [&](core::SurrogateDispatcher& d,
                               stats::Rng& stream_rng) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int q = 0; q < kBlockQueries; ++q) {
      (void)d.query(draw(stream_rng, 1.45, 2.55));
    }
    return seconds_since(t0);
  };
  std::vector<double> overheads, walls_off, walls_on;
  for (int round = 0; round < kOverheadRounds; ++round) {
    stats::Rng plain_rng(23), monitored_rng(23);
    const double shadow_before = monitored.stats().shadow_seconds;
    double wall_off = 0.0, wall_on = 0.0;
    for (int block = 0; block < kOverheadQueries / kBlockQueries; ++block) {
      if (block % 2 == 0) {
        wall_off += serve_block(plain, plain_rng);
        wall_on += serve_block(monitored, monitored_rng);
      } else {
        wall_on += serve_block(monitored, monitored_rng);
        wall_off += serve_block(plain, plain_rng);
      }
    }
    const double wall_on_net =
        wall_on - (monitored.stats().shadow_seconds - shadow_before);
    walls_off.push_back(wall_off);
    walls_on.push_back(wall_on_net);
    overheads.push_back(wall_on_net / wall_off - 1.0);
  }
  const auto quantile = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
  };
  const double overhead = quantile(overheads, 0.5);
  const bool overhead_ok = overhead <= 0.05;
  std::printf("%d rounds of %d queries, median plain %.4f s, monitored "
              "%.4f s (net of shadow sims)\n",
              kOverheadRounds, kOverheadQueries, quantile(walls_off, 0.5),
              quantile(walls_on, 0.5));
  std::printf("overhead median %+.2f%% [quartiles %+.2f%%, %+.2f%%] "
              "(target <= 5%%) ... %s\n",
              100.0 * overhead, 100.0 * quantile(overheads, 0.25),
              100.0 * quantile(overheads, 0.75), overhead_ok ? "PASS" : "FAIL");

  // ---- verdict -------------------------------------------------------
  bench::print_subheading("verdict");
  const struct {
    const char* name;
    bool ok;
  } checks[] = {
      {"healthy in-distribution baseline", healthy_ok},
      {"drift escalates to UNTRUSTED", untrusted_ok},
      {"drift flagged before 2x residual breach", early_ok},
      {"breaker tripped by health monitor", breaker_ok},
      {"retraining requested", request_ok},
      {"retraining restores HEALTHY", recovered_ok},
      {"post-retrain S_eff >= 80% of pre-drift", speedup_ok},
      {"monitoring overhead <= 5%", overhead_ok},
  };
  bool all_ok = true;
  for (const auto& check : checks) {
    std::printf("  %-45s %s\n", check.name, check.ok ? "PASS" : "FAIL");
    all_ok = all_ok && check.ok;
  }

  if (metrics_on) bench::emit_metrics("E14");
  return all_ok ? 0 : 1;
}
