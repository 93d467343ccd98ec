// E1 — The effective-speedup equation of Section III-D.
//
// Measures the four times of the model from a real miniature
// nanoconfinement campaign (T_seq, T_train from MD wall time; T_learn from
// the training loop; T_lookup from surrogate inference), then prints the
// S(N_lookup) sweep, its two analytic limits, and the N_lookup/N_train
// ratios needed to reach given fractions of the lookup-bound limit.
//
// Paper claims reproduced:
//   - S -> T_seq/T_train when N_lookup = 0 (no ML);
//   - S -> T_seq/T_lookup for N_lookup >> N_train, "which can be huge";
//   - with learnt-lookup costs ~1e5 below simulation, exa-scale-equivalent
//     effective performance on fixed hardware.
#include <chrono>

#include "le/core/effective_speedup.hpp"
#include "le/data/normalizer.hpp"
#include "le/md/nanoconfinement.hpp"
#include "le/nn/loss.hpp"
#include "le/nn/network.hpp"
#include "le/nn/optimizer.hpp"
#include "le/nn/train.hpp"
#include "le/obs/metrics.hpp"
#include "report.hpp"

namespace {

using namespace le;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  bench::print_heading("E1", "Effective speedup S (Section III-D equation)");
  bench::enable_metrics_from_env();

  // ---- Measure T_seq: one full-fidelity simulation ---------------------
  md::NanoconfinementParams full;
  full.equilibration_steps = 2000;
  full.production_steps = 6000;
  full.seed = 4242;
  const md::NanoconfinementResult full_run = md::run_nanoconfinement(full);
  const double t_seq = full_run.wall_seconds;

  // ---- Measure T_train: the (shorter) training-fidelity runs ----------
  // In the paper's setting training simulations run on parallel resources;
  // here both are single-core so T_train ~= T_seq.  We run a small grid to
  // also produce the training set.
  data::Dataset runs(5, 3);
  double train_seconds = 0.0;
  std::size_t n_train = 0;
  for (double h : {2.4, 3.0, 3.6}) {
    for (double c : {0.3, 0.5, 0.8}) {
      md::NanoconfinementParams p = full;
      p.h = h;
      p.c = c;
      p.seed = static_cast<std::uint64_t>(1000 * h + 100 * c);
      const md::NanoconfinementResult r = md::run_nanoconfinement(p);
      runs.add(p.features(), r.targets());
      train_seconds += r.wall_seconds;
      ++n_train;
    }
  }
  const double t_train = train_seconds / static_cast<double>(n_train);

  // ---- Measure T_learn: network training time per sample --------------
  data::MinMaxNormalizer in_scaler, out_scaler;
  in_scaler.fit(runs.input_matrix());
  out_scaler.fit(runs.target_matrix());
  data::Dataset scaled(5, 3);
  {
    std::vector<double> in(5), tg(3);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      auto is = runs.input(i);
      auto ts = runs.target(i);
      in.assign(is.begin(), is.end());
      tg.assign(ts.begin(), ts.end());
      in_scaler.transform(in);
      out_scaler.transform(tg);
      scaled.add(in, tg);
    }
  }
  stats::Rng rng(7);
  nn::MlpConfig mlp;
  mlp.input_dim = 5;
  mlp.hidden = {24, 24};
  mlp.output_dim = 3;
  mlp.activation = nn::Activation::kTanh;
  nn::Network net = nn::make_mlp(mlp, rng);
  nn::AdamOptimizer opt(1e-2);
  const nn::MseLoss loss;
  nn::TrainConfig tc;
  tc.epochs = 400;
  tc.batch_size = 4;
  const auto t_learn_start = std::chrono::steady_clock::now();
  nn::fit(net, scaled, loss, opt, tc, rng);
  const double t_learn =
      seconds_since(t_learn_start) / static_cast<double>(runs.size());

  // ---- Measure T_lookup: surrogate inference per query -----------------
  net.set_training(false);
  std::vector<double> probe{3.0, 1.0, -1.0, 0.5, 0.5};
  in_scaler.transform(probe);
  const std::size_t lookups = 20000;
  // Per-predict latencies feed a histogram: the formula uses the mean, but
  // the tail is what serving SLOs see, so both are reported.
  obs::Histogram lookup_hist;
  const auto t_lookup_start = std::chrono::steady_clock::now();
  double sink = 0.0;
  for (std::size_t i = 0; i < lookups; ++i) {
    const auto q0 = std::chrono::steady_clock::now();
    sink += net.predict(probe)[0];
    lookup_hist.record(seconds_since(q0));
  }
  const double t_lookup =
      seconds_since(t_lookup_start) / static_cast<double>(lookups);
  if (sink == -1.0) return 1;  // defeat dead-code elimination
  const auto lookup_q = lookup_hist.summary();

  core::SpeedupTimes times{t_seq, t_train, t_learn, t_lookup};
  std::printf("\nMeasured times (seconds):\n");
  std::printf("  T_seq    = %.5f  (one full simulation)\n", times.t_seq);
  std::printf("  T_train  = %.5f  (per training simulation, N_train = %zu)\n",
              times.t_train, n_train);
  std::printf("  T_learn  = %.6f  (network training per sample)\n",
              times.t_learn);
  std::printf("  T_lookup = %.2e  (surrogate inference per query)\n",
              times.t_lookup);
  std::printf("  T_lookup quantiles: p50 %.2f  p95 %.2f  p99 %.2f us\n",
              lookup_q.p50 * 1e6, lookup_q.p95 * 1e6, lookup_q.p99 * 1e6);

  bench::print_subheading("Limits of the formula");
  std::printf("  no-ML limit        T_seq/T_train  = %10.4g\n",
              core::no_ml_limit(times));
  std::printf("  lookup-bound limit T_seq/T_lookup = %10.4g  <- 'can be huge'\n",
              core::lookup_limit(times));

  bench::print_subheading("S vs N_lookup at fixed N_train");
  bench::Table table({"N_lookup", "N_train", "S", "S/limit"});
  table.header();
  const std::vector<std::size_t> sweep{0,      10,      100,      1000,
                                       10000,  100000,  1000000,  10000000,
                                       100000000};
  for (const auto& row : core::sweep_lookups(times, n_train, sweep)) {
    table.row({bench::fmt_int(row.n_lookup), bench::fmt_int(row.n_train),
               bench::fmt(row.speedup), bench::fmt(row.fraction_of_limit)});
  }

  bench::print_subheading("Lookup/train ratio needed to reach a fraction of the limit");
  bench::Table ratios({"fraction", "N_lookup/N_train"});
  ratios.header();
  for (double f : {0.1, 0.5, 0.9, 0.99}) {
    ratios.row({bench::fmt(f), bench::fmt(core::ratio_to_reach_fraction(times, f))});
  }

  std::printf("\nInterpretation: the measured cost asymmetry reproduces the\n"
              "paper's claim that MLaroundHPC turns %g-second simulations into\n"
              "%.1e-second lookups, an effective speedup bounded by %.3g.\n",
              times.t_seq, times.t_lookup, core::lookup_limit(times));
  bench::emit_metrics("E1");
  return 0;
}
