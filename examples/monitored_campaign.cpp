// Monitored campaign: serve an MLaroundHPC campaign with the le::obs
// surrogate health stack watching for silent model rot, and export the
// whole run as a Chrome trace for Perfetto/chrome://tracing.
//
// The recipe:
//   1. enable tracing and train a surrogate with run_adaptive_loop;
//   2. wire a SurrogateDispatcher with enable_health_monitoring(): an
//      input-drift detector (PSI/KS against the training corpus), a
//      shadow-sampled residual tracker (a small fraction of accepted
//      lookups re-run through the real simulation, billed as training
//      work), and a UQ coverage monitor;
//   3. drift the query stream off the training support halfway through the
//      campaign and watch the HEALTHY -> DRIFTING -> UNTRUSTED transitions
//      trip the circuit breaker and request retraining;
//   4. retrain over the drifted region (run_adaptive_loop rebases the
//      monitor via config.health_monitor) and finish the campaign HEALTHY;
//   5. write the collected TraceSpans to monitored_campaign_trace.json —
//      open it in ui.perfetto.dev to see training, serving, and the
//      retraining pause on one timeline.
#include <cmath>
#include <cstdio>

#include "le/core/adaptive_loop.hpp"
#include "le/core/resilient.hpp"
#include "le/core/surrogate.hpp"
#include "le/obs/health.hpp"
#include "le/obs/timer.hpp"
#include "le/obs/trace_export.hpp"
#include "le/stats/rng.hpp"

using namespace le;

namespace {

/// Spin work making the "simulation" measurably expensive (~1 ms), so
/// shadow sampling and breaker fallback have a visible cost to trace.
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

std::vector<double> expensive_sim(std::span<const double> p) {
  spin(400000);
  return {std::sin(2.0 * p[0]) * std::cos(p[1]) + 0.3 * p[0], p[0] * p[1]};
}

core::AdaptiveLoopConfig loop_config(obs::SurrogateHealthMonitor* monitor) {
  core::AdaptiveLoopConfig loop;
  loop.initial_samples = 96;
  loop.samples_per_round = 8;
  loop.max_rounds = 2;
  loop.uncertainty_threshold = 0.03;
  loop.hidden = {24, 24};
  loop.train.epochs = 250;
  loop.train.batch_size = 16;
  loop.health_monitor = monitor;
  return loop;
}

obs::SurrogateHealthConfig health_config() {
  obs::SurrogateHealthConfig hc;
  // Distribution shift warns (DRIFTING); only ground truth — the rolling
  // RMSE of shadow-sampled residuals — condemns the surrogate (UNTRUSTED).
  // See bench/bench_health.cpp for how these bands are sized against the
  // PSI sampling-noise floor.
  hc.drift.bins = 8;
  hc.drift.window = 64;
  hc.psi_drifting = 0.6;
  hc.psi_untrusted = 1e9;
  hc.ks_drifting = 0.4;
  hc.ks_untrusted = 1e9;
  hc.coverage_shortfall_drifting = 0.30;
  hc.coverage_shortfall_untrusted = 0.60;
  hc.shadow_fraction = 0.02;  // 1 accepted lookup in 50 is ground-truthed
  hc.residual_window = 64;
  hc.min_shadow_samples = 10;
  return hc;
}

void print_transitions(const obs::SurrogateHealthMonitor& monitor,
                       std::size_t from_index) {
  const auto transitions = monitor.transitions();
  for (std::size_t i = from_index; i < transitions.size(); ++i) {
    const obs::HealthTransition& t = transitions[i];
    std::printf("    @ query %llu: %s -> %s (%s)\n",
                static_cast<unsigned long long>(t.at_query),
                obs::to_string(t.from).c_str(), obs::to_string(t.to).c_str(),
                t.reason.c_str());
  }
}

std::vector<double> draw(stats::Rng& rng, double lo, double hi) {
  return {rng.uniform(lo, hi), rng.uniform(lo, hi)};
}

}  // namespace

int main() {
  // ---- 1. Tracing on before any spans open -----------------------------
  obs::set_tracing_enabled(true);

  const data::ParamSpace in_dist({{"x", 0.0, 1.0, false},
                                  {"y", 0.0, 1.0, false}});
  std::printf("Training a surrogate on [0,1]^2...\n");
  core::AdaptiveLoopResult trained;
  {
    obs::TraceSpan span("train_initial");
    trained = core::run_adaptive_loop(in_dist, expensive_sim, 2,
                                      loop_config(nullptr));
  }
  std::printf("  corpus: %zu samples\n", trained.corpus.size());

  // ---- 2. Dispatcher with health monitoring ----------------------------
  core::SurrogateDispatcher dispatcher(trained.surrogate, expensive_sim,
                                       /*threshold=*/1e9);
  dispatcher.enable_circuit_breaker({});
  dispatcher.enable_health_monitoring(health_config(),
                                      trained.corpus.input_matrix());
  obs::SurrogateHealthMonitor& monitor = *dispatcher.health_monitor();

  // ---- 3. Campaign: drift the stream halfway ---------------------------
  std::printf("\nServing 2000 queries; the stream shifts from [0,1]^2 to\n"
              "[1.6,2.4]^2 (off the training support) after query 1000:\n");
  stats::Rng rng(7);
  std::size_t printed = 0;
  int retrain_detected_at = -1;
  for (int q = 1; q <= 2000; ++q) {
    obs::TraceSpan span(q <= 1000 ? "serve_in_dist" : "serve_drifted");
    const bool drifted = q > 1000;
    (void)dispatcher.query(draw(rng, drifted ? 1.6 : 0.0,
                                drifted ? 2.4 : 1.0));
    if (monitor.transitions().size() > printed) {
      print_transitions(monitor, printed);
      printed = monitor.transitions().size();
    }
    if (monitor.retrain_requested() && retrain_detected_at < 0) {
      retrain_detected_at = q;
      break;  // hand the campaign over to retraining
    }
  }

  const obs::HealthReport mid = monitor.report();
  std::printf("\n  health at retrain request (query %d):\n",
              retrain_detected_at);
  std::printf("    state %s, max PSI %.3g, rolling rmse %.4g "
              "(baseline %.4g)\n",
              obs::to_string(mid.state).c_str(), mid.drift.max_psi,
              mid.residual_rmse, mid.baseline_rmse);
  std::printf("    UQ coverage %.3f (nominal %.3f), sharpness %.4g, "
              "%zu shadow samples\n",
              mid.coverage, obs::kNominalCoverage, mid.sharpness,
              mid.shadow_samples);
  std::printf("    breaker: %s (queries fall back to the simulation)\n",
              core::to_string(dispatcher.circuit_breaker()->state()).c_str());

  // ---- 4. Retrain over the drifted region and finish --------------------
  std::printf("\nRetraining over [1.4,2.6]^2...\n");
  const data::ParamSpace drifted_space({{"x", 1.4, 2.6, false},
                                        {"y", 1.4, 2.6, false}});
  core::AdaptiveLoopResult retrained;
  {
    obs::TraceSpan span("retrain");
    retrained = core::run_adaptive_loop(drifted_space, expensive_sim, 2,
                                        loop_config(&monitor));
  }
  dispatcher.replace_surrogate(retrained.surrogate);
  print_transitions(monitor, printed);
  printed = monitor.transitions().size();

  for (int q = 1; q <= 1000; ++q) {
    obs::TraceSpan span("serve_recovered");
    (void)dispatcher.query(draw(rng, 1.45, 2.55));
  }
  print_transitions(monitor, printed);
  const obs::HealthReport final_report = monitor.report();
  const core::DispatcherStats stats = dispatcher.stats();
  const double hit_rate =
      static_cast<double>(stats.surrogate_answers) /
      static_cast<double>(stats.surrogate_answers + stats.simulation_answers);
  std::printf("  finished the campaign: state %s, coverage %.3f, "
              "surrogate hit rate %.2f\n",
              obs::to_string(final_report.state).c_str(),
              final_report.coverage, hit_rate);
  std::printf("  shadow samples overall: %zu (billed as training-path "
              "time, %.3f s)\n",
              stats.shadow_samples, stats.shadow_seconds);

  // ---- 5. Export the timeline as a Chrome trace -------------------------
  const char* trace_path = "monitored_campaign_trace.json";
  if (obs::write_chrome_trace(trace_path)) {
    std::printf("\nChrome trace written to ./%s\n"
                "  -> open it at ui.perfetto.dev or chrome://tracing\n",
                trace_path);
  } else {
    std::printf("\nFAIL: could not write %s\n", trace_path);
    return 1;
  }

  return final_report.state == obs::HealthState::kHealthy ? 0 : 1;
}
