// Tests for the search strategies, the GEMM blocking tuner and the MD
// control-parameter autotuner.
#include <gtest/gtest.h>

#include <cmath>

#include "le/autotune/gemm_tuner.hpp"
#include "le/autotune/md_autotune.hpp"
#include "le/autotune/search.hpp"

namespace le::autotune {
namespace {

using le::stats::Rng;

/// Smooth 2-D bowl with minimum at (0.3, -0.2).
double bowl(const std::vector<double>& x) {
  const double a = x[0] - 0.3, b = x[1] + 0.2;
  return a * a + b * b;
}

data::ParamSpace bowl_space() {
  return data::ParamSpace({{"x", -1.0, 1.0, false}, {"y", -1.0, 1.0, false}});
}

TEST(GridSearch, FindsCoarseMinimum) {
  const SearchResult r = grid_search(bowl_space(), {9, 9}, bowl);
  EXPECT_EQ(r.evaluations, 81u);
  EXPECT_LT(r.best_value, 0.02);
  EXPECT_NEAR(r.best_point[0], 0.3, 0.15);
  EXPECT_NEAR(r.best_point[1], -0.2, 0.15);
}

TEST(RandomSearch, TraceIsMonotoneNonIncreasing) {
  Rng rng(1);
  const SearchResult r = random_search(bowl_space(), 50, bowl, rng);
  EXPECT_EQ(r.evaluations, 50u);
  ASSERT_EQ(r.trace.size(), 50u);
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LE(r.trace[i], r.trace[i - 1]);
  }
}

TEST(ModelGuidedSearch, BeatsRandomAtEqualBudget) {
  // Average over a few seeds to avoid a flaky comparison.
  double random_total = 0.0, guided_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng r1(seed), r2(seed + 100);
    ModelGuidedConfig cfg;
    cfg.budget = 30;
    cfg.warmup = 8;
    cfg.pool = 150;
    random_total += random_search(bowl_space(), 30, bowl, r1).best_value;
    guided_total += model_guided_search(bowl_space(), cfg, bowl, r2).best_value;
  }
  EXPECT_LT(guided_total, random_total);
}

TEST(ModelGuidedSearch, ValidatesConfig) {
  Rng rng(2);
  ModelGuidedConfig cfg;
  cfg.warmup = 0;
  EXPECT_THROW(model_guided_search(bowl_space(), cfg, bowl, rng),
               std::invalid_argument);
  cfg.warmup = 50;
  cfg.budget = 10;
  EXPECT_THROW(model_guided_search(bowl_space(), cfg, bowl, rng),
               std::invalid_argument);
}

TEST(GemmTuner, TimingIsPositiveAndBlockingMatters) {
  GemmTuneConfig cfg;
  cfg.matrix_size = 96;
  cfg.repetitions = 1;
  const double t1 = time_gemm(cfg, {8, 8, 8});
  const double t2 = time_gemm(cfg, {96, 96, 96});
  EXPECT_GT(t1, 0.0);
  EXPECT_GT(t2, 0.0);
}

TEST(GemmTuner, ModelGuidedFindsCompetitiveBlocking) {
  GemmTuneConfig cfg;
  cfg.matrix_size = 96;
  cfg.repetitions = 1;
  ModelGuidedConfig search;
  search.budget = 12;
  search.warmup = 6;
  search.pool = 60;
  search.epochs_per_round = 40;
  Rng rng(3);
  const GemmTuneOutcome outcome = tune_gemm(cfg, search, rng);
  EXPECT_EQ(outcome.evaluations, 12u);
  EXPECT_GT(outcome.best_seconds, 0.0);
  EXPECT_GT(outcome.default_seconds, 0.0);
  // The tuned blocking must at least be in the same ballpark as default
  // (on some machines default is already optimal).
  EXPECT_LT(outcome.best_seconds, 3.0 * outcome.default_seconds);
  EXPECT_GE(outcome.best.mc, cfg.block_min);
  EXPECT_LE(outcome.best.mc, cfg.block_max);
}

md::NanoconfinementParams tiny_point() {
  md::NanoconfinementParams p;
  p.h = 2.5;
  p.lx = 4.5;
  p.ly = 4.5;
  p.c = 0.3;
  p.d = 0.5;
  p.seed = 7;
  return p;
}

TEST(MdAutotune, StabilityCheckDetectsExplosiveDt) {
  const StabilityCheck good = check_stability(tiny_point(), 0.002, 300);
  EXPECT_TRUE(good.stable);
  const StabilityCheck bad = check_stability(tiny_point(), 0.5, 300);
  EXPECT_FALSE(bad.stable);
}

TEST(MdAutotune, MeasureControlsOrdersSanely) {
  const TunedControls controls =
      measure_controls(tiny_point(), {0.001, 0.004, 0.016, 0.064});
  EXPECT_GE(controls.max_stable_dt, 0.001);
  EXPECT_LT(controls.max_stable_dt, 0.064);
  EXPECT_GT(controls.autocorrelation_time, 0.0);
  EXPECT_GE(controls.equilibration_time, 0.5);
}

TEST(MdAutotune, FeatureVectorIsD6) {
  const auto f = autotune_features(tiny_point());
  ASSERT_EQ(f.size(), 6u);
  EXPECT_DOUBLE_EQ(f[0], 2.5);   // h
  EXPECT_DOUBLE_EQ(f[1], 1.0);   // z_p
  EXPECT_DOUBLE_EQ(f[2], -1.0);  // z_n
  EXPECT_DOUBLE_EQ(f[3], 0.3);   // c
  EXPECT_DOUBLE_EQ(f[4], 0.5);   // d
  EXPECT_DOUBLE_EQ(f[5], 1.0);   // friction
}

TEST(MdAutotune, TrainsOnSyntheticLabelsAndPredicts) {
  // Synthetic labelled dataset with a known monotone rule lets us verify
  // the ANN learns without running the expensive measurement ladder.
  data::Dataset ds(6, 3);
  Rng rng(8);
  for (int i = 0; i < 120; ++i) {
    md::NanoconfinementParams p = tiny_point();
    p.h = rng.uniform(2.0, 4.0);
    p.c = rng.uniform(0.2, 0.9);
    p.d = rng.uniform(0.4, 0.7);
    // Rule: stiffer systems (higher c, smaller d) need smaller dt.
    const double dt = 0.002 + 0.01 * p.d - 0.005 * p.c;
    const double tau = 2.0 + 3.0 * p.c;   // physical time units
    const double equil = 20.0 * tau;
    const std::vector<double> target{dt, tau, equil};
    ds.add(autotune_features(p), target);
  }
  MdAutotunerConfig cfg;
  cfg.train.epochs = 200;
  cfg.train.batch_size = 16;
  const MdAutotuner tuner = MdAutotuner::train(ds, cfg);

  md::NanoconfinementParams probe = tiny_point();
  probe.c = 0.5;
  probe.d = 0.6;
  const TunedControls pred = tuner.predict(probe);
  EXPECT_NEAR(pred.max_stable_dt, 0.002 + 0.006 - 0.0025, 0.002);
  EXPECT_NEAR(pred.autocorrelation_time, 3.5, 1.0);

  const md::NanoconfinementParams tuned = tuner.tune(probe);
  EXPECT_NEAR(tuned.dt, 0.8 * pred.max_stable_dt, 1e-9);
  // Sample interval converts the physical ACF time into steps.
  EXPECT_NEAR(static_cast<double>(tuned.sample_interval),
              pred.autocorrelation_time / tuned.dt, 2.0);
  EXPECT_GE(tuned.equilibration_steps, 100u);
}

TEST(MdAutotune, TrainRejectsWrongShape) {
  data::Dataset bad(4, 2);
  MdAutotunerConfig cfg;
  EXPECT_THROW(MdAutotuner::train(bad, cfg), std::invalid_argument);
}

TEST(MdAutotune, BuildDatasetLabelsPoints) {
  // One cheap point end-to-end through the real measurement ladder.
  md::NanoconfinementParams p = tiny_point();
  const data::Dataset ds = build_autotune_dataset({p});
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds.input_dim(), 6u);
  EXPECT_EQ(ds.target_dim(), 3u);
  EXPECT_GT(ds.target(0)[0], 0.0);
}

TEST(GemmTuner, PlanSearchCoversTheKernelAxis) {
  GemmTuneConfig cfg;
  cfg.matrix_size = 64;
  cfg.repetitions = 1;
  ModelGuidedConfig search;
  search.budget = 8;
  search.warmup = 4;
  search.pool = 40;
  search.epochs_per_round = 20;
  Rng rng(5);
  const GemmPlanTuneOutcome outcome = tune_gemm_plan(cfg, search, rng);

  // One blocking search per runnable kernel family.
  const std::size_t families = 1u + (tensor::cpu_has_avx2_fma() ? 1u : 0u) +
                               (tensor::cpu_has_avx512f() ? 1u : 0u);
  EXPECT_EQ(outcome.evaluations, families * search.budget);
  EXPECT_GT(outcome.best_seconds, 0.0);
  EXPECT_GT(outcome.scalar_best_seconds, 0.0);
  // The joint winner can never lose to the scalar-only winner, and must
  // name a concrete kernel the CPU can run.
  EXPECT_LE(outcome.best_seconds, outcome.scalar_best_seconds);
  EXPECT_NE(outcome.best.kernel, tensor::GemmKernel::kAuto);
  if (!tensor::cpu_has_avx2_fma()) {
    EXPECT_EQ(outcome.best.kernel, tensor::GemmKernel::kScalar);
  }
  EXPECT_GE(outcome.best.blocking.mc, cfg.block_min);
  EXPECT_LE(outcome.best.blocking.mc, cfg.block_max);
}

}  // namespace
}  // namespace le::autotune
