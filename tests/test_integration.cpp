// Cross-module integration tests: the full MLaroundHPC pipelines the
// benches exercise, at miniature scale.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>

#include "le/autotune/md_autotune.hpp"
#include "le/core/adaptive_loop.hpp"
#include "le/core/effective_speedup.hpp"
#include "le/core/surrogate.hpp"
#include "le/data/normalizer.hpp"
#include "le/epi/baselines.hpp"
#include "le/epi/defsi.hpp"
#include "le/md/nanoconfinement.hpp"
#include "le/nn/loss.hpp"
#include "le/nn/optimizer.hpp"
#include "le/stats/metrics.hpp"
#include "le/tissue/surrogate.hpp"
#include "le/uq/acquisition.hpp"
#include "le/uq/deep_ensemble.hpp"
#include "le/uq/mc_dropout.hpp"

namespace le {
namespace {

using stats::Rng;

/// Miniature nanoconfinement campaign: run a small grid of simulations,
/// train the D=5 -> 3 surrogate, check accuracy and measured speedup.
TEST(Integration, NanoconfinementSurrogatePipeline) {
  // --- Campaign: 3 x 3 grid over (h, c), other inputs fixed ------------
  std::vector<md::NanoconfinementParams> points;
  for (double h : {2.2, 2.8, 3.4}) {
    for (double c : {0.3, 0.5, 0.7}) {
      md::NanoconfinementParams p;
      p.h = h;
      p.c = c;
      p.lx = 4.5;
      p.ly = 4.5;
      p.equilibration_steps = 200;
      p.production_steps = 500;
      p.sample_interval = 10;
      p.bins = 20;
      p.seed = static_cast<std::uint64_t>(h * 100 + c * 10);
      points.push_back(p);
    }
  }

  data::Dataset runs(5, 3);
  double total_sim_seconds = 0.0;
  for (const auto& p : points) {
    const md::NanoconfinementResult r = md::run_nanoconfinement(p);
    runs.add(p.features(), r.targets());
    total_sim_seconds += r.wall_seconds;
  }
  const double t_train = total_sim_seconds / static_cast<double>(points.size());

  // --- Train the surrogate (normalized, as in the paper's workflow) ----
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
  Rng rng(101);
  nn::MlpConfig mlp;
  mlp.input_dim = 5;
  mlp.hidden = {24, 24};
  mlp.output_dim = 3;
  mlp.activation = nn::Activation::kTanh;
  nn::Network net = nn::make_mlp(mlp, rng);
  nn::AdamOptimizer opt(1e-2);
  const nn::MseLoss loss;
  nn::TrainConfig tc;
  tc.epochs = 300;
  tc.batch_size = 4;
  nn::fit(net, scaled, loss, opt, tc, rng);
  net.set_training(false);

  // --- Lookup accuracy on the training grid (smoke-level check) --------
  std::vector<double> pred, truth;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::vector<double> in(runs.input(i).begin(), runs.input(i).end());
    in_scaler.transform(in);
    std::vector<double> out = net.predict(in);
    out_scaler.inverse(out);
    for (std::size_t k = 0; k < 3; ++k) {
      pred.push_back(out[k]);
      truth.push_back(runs.target(i)[k]);
    }
  }
  EXPECT_GT(stats::r_squared(pred, truth), 0.8);

  // --- Measured lookup time and the Section III-D speedup --------------
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t lookups = 2000;
  std::vector<double> probe{2.5, 1.0, -1.0, 0.4, 0.5};
  in_scaler.transform(probe);
  double sink = 0.0;
  for (std::size_t i = 0; i < lookups; ++i) sink += net.predict(probe)[0];
  const auto t1 = std::chrono::steady_clock::now();
  const double t_lookup =
      std::chrono::duration<double>(t1 - t0).count() / lookups;
  EXPECT_NE(sink, -1.0);  // keep the loop alive

  core::SpeedupTimes times;
  times.t_seq = t_train;  // single-run sequential time
  times.t_train = t_train;
  times.t_learn = 0.0;
  times.t_lookup = t_lookup;
  // The lookup must be at least 100x faster than the (miniature)
  // simulation; production-sized runs push this to ~1e5 (bench_nanoconfinement).
  EXPECT_GT(core::lookup_limit(times), 100.0);
  EXPECT_GT(core::effective_speedup(times, 100000, 9),
            10.0 * core::no_ml_limit(times));
}

/// Dispatcher + retraining round trip with a deep-ensemble surrogate on a
/// cheap analytic "simulation".  (A deep ensemble is used rather than
/// MC-dropout because ensemble disagreement is the more reliable
/// out-of-domain signal near the training boundary.)
TEST(Integration, DispatcherRetrainImprovesCoverage) {
  const core::SimulationFn sim = [](std::span<const double> x) {
    return std::vector<double>{std::sin(3.0 * x[0])};
  };
  // Train the initial surrogate only on the left half-interval, so the
  // right half is uncertain and falls back to simulation.
  Rng rng(102);
  data::Dataset ds(1, 1);
  for (int i = 0; i < 150; ++i) {
    const double x[1] = {rng.uniform(-1.0, 0.0)};
    ds.add(std::span<const double>{x, 1}, sim(std::vector<double>{x[0]}));
  }
  nn::MlpConfig mlp;
  mlp.input_dim = 1;
  mlp.hidden = {24, 24};
  mlp.output_dim = 1;
  mlp.activation = nn::Activation::kTanh;
  nn::TrainConfig tc;
  tc.epochs = 120;
  tc.batch_size = 16;
  auto surrogate = std::make_shared<uq::DeepEnsemble>(
      uq::train_deep_ensemble(mlp, 4, ds, tc, rng));
  // Calibrate the gate so that in-domain queries pass.
  double in_domain_spread = 0.0;
  for (double x : {-0.9, -0.5, -0.1}) {
    in_domain_spread += uq::uncertainty_score(
        surrogate->predict(std::vector<double>{x}));
  }
  const double threshold = 2.0 * in_domain_spread / 3.0;
  core::SurrogateDispatcher dispatcher(surrogate, sim, threshold);

  // Query across the whole interval; right-half queries should fall back
  // more often than left-half ones.
  std::size_t left_sims = 0, right_sims = 0;
  for (int i = 0; i < 40; ++i) {
    const double x = -1.0 + 0.05 * i;
    const core::Answer a = dispatcher.query(std::vector<double>{x});
    if (a.source == core::AnswerSource::kSimulation) {
      (x < 0 ? left_sims : right_sims)++;
    }
  }
  EXPECT_GT(right_sims, left_sims);
  EXPECT_GT(dispatcher.training_buffer().size(), 0u);

  // Retrain on the union and swap the surrogate in ("no run is wasted").
  data::Dataset fresh = dispatcher.take_retraining();
  ds.append(fresh);
  Rng rng2 = rng.split(77);
  dispatcher.replace_surrogate(std::make_shared<uq::DeepEnsemble>(
      uq::train_deep_ensemble(mlp, 4, ds, tc, rng2)));

  std::size_t fallbacks_after = 0;
  for (int i = 0; i < 20; ++i) {
    const double x = 0.05 * i;  // right half only
    if (dispatcher.query(std::vector<double>{x}).source ==
        core::AnswerSource::kSimulation) {
      ++fallbacks_after;
    }
  }
  // The retrained surrogate must cover the right half better than the
  // original did (which fell back nearly always there).
  EXPECT_LT(fallbacks_after, 18u);
}

/// DEFSI end-to-end at miniature scale: train on synthetic epidemics and
/// verify the rolling county-level forecasts beat static-share downscaling.
TEST(Integration, DefsiBeatsStaticSharesAtCountyLevel) {
  epi::PopulationConfig pop;
  pop.regions.clear();
  epi::RegionConfig a;
  a.households = 120;
  epi::RegionConfig b;
  b.households = 60;
  b.community_degree = 2.0;
  pop.regions = {a, b};
  pop.seed = 201;
  const epi::ContactNetwork network = epi::generate_population(pop);

  epi::SeirParams base;
  base.days = 84;
  base.transmissibility = 0.18;
  epi::SeirParams truth_params = base;
  truth_params.seed = 999;
  const epi::EpidemicCurve truth = epi::run_seir(network, truth_params);
  epi::SurveillanceParams sp;
  sp.seed = 998;
  const epi::SurveillanceData observed = epi::observe(truth, sp);

  epi::DefsiConfig cfg;
  cfg.tau_grid = {0.10, 0.18, 0.30};
  cfg.seed_grid = {5};
  cfg.calibration_replicates = 2;
  cfg.top_candidates = 2;
  cfg.sims_per_candidate = 5;
  cfg.train.epochs = 80;
  cfg.train.batch_size = 16;
  const epi::DefsiForecaster defsi =
      epi::DefsiForecaster::train(network, observed.state_weekly, base, cfg);

  const auto shares = epi::population_shares(network);
  std::vector<double> defsi_err, shares_err;
  for (std::size_t w = cfg.window; w + 1 < truth.weekly_total.size(); ++w) {
    const auto df = defsi.forecast_regions(observed.state_weekly, w);
    const auto pf = epi::persistence_forecast_regions(
        observed.state_weekly, w, sp.reporting_rate, shares);
    for (std::size_t r = 0; r < 2; ++r) {
      const double t = static_cast<double>(truth.weekly_by_region[r][w + 1]);
      defsi_err.push_back(df[r] - t);
      shares_err.push_back(pf[r] - t);
    }
  }
  auto rms = [](const std::vector<double>& e) {
    double acc = 0.0;
    for (double v : e) acc += v * v;
    return std::sqrt(acc / static_cast<double>(e.size()));
  };
  // DEFSI should be at least competitive with persistence+shares at county
  // level (typically clearly better; allow 10% slack against flakiness).
  EXPECT_LT(rms(defsi_err), 1.1 * rms(shares_err));
}

/// Tissue run with surrogate vs explicit solver: growth curves agree
/// within tolerance while the surrogate path skips all solver sweeps.
TEST(Integration, TissueShortCircuitPreservesGrowth) {
  tissue::TissueParams params;
  params.nx = 16;
  params.ny = 16;
  params.diffusion.tolerance = 1e-4;
  params.steps = 6;
  params.seed = 301;
  const tissue::Grid2D sources =
      tissue::make_vessel_sources(params.nx, params.ny, 1.5);

  tissue::SurrogateTrainingConfig scfg;
  scfg.coarse = 8;
  scfg.training_configs = 30;
  scfg.hidden = {64};
  scfg.train.epochs = 60;
  const tissue::DiffusionSolver solver(params.diffusion);
  tissue::SurrogateTrainingResult trained =
      tissue::train_diffusion_surrogate(solver, sources, scfg);

  tissue::TissueSimulation explicit_sim(params, sources);
  tissue::TissueSimulation surrogate_sim(params, sources);
  Rng rng_a(302), rng_b(302);
  explicit_sim.seed_colony(5, rng_a);
  surrogate_sim.seed_colony(5, rng_b);

  const tissue::TissueResult exact =
      explicit_sim.run(explicit_sim.explicit_solver_provider());
  const tissue::TissueResult fast =
      surrogate_sim.run(trained.surrogate.provider());

  // Both colonies must survive and grow; totals agree within 50%.
  const double exact_cells =
      static_cast<double>(exact.trajectory.back().live_cells);
  const double fast_cells =
      static_cast<double>(fast.trajectory.back().live_cells);
  EXPECT_GT(exact_cells, 0.0);
  EXPECT_GT(fast_cells, 0.0);
  EXPECT_NEAR(fast_cells, exact_cells, 0.5 * exact_cells + 3.0);
  // The surrogate path did no solver sweeps.
  for (const auto& snap : fast.trajectory) {
    EXPECT_EQ(snap.diffusion_sweeps, 0u);
  }
}

}  // namespace
}  // namespace le
