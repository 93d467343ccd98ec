// Property-based sweeps across modules: physical invariants, analytic
// limits and algebraic identities checked over parameter grids
// (TEST_P suites, per the repository's testing conventions).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "le/core/effective_speedup.hpp"
#include "le/md/monte_carlo.hpp"
#include "le/md/potentials.hpp"
#include "le/nn/loss.hpp"
#include "le/nn/network.hpp"
#include "le/nn/optimizer.hpp"
#include "le/stats/descriptive.hpp"
#include "le/tissue/diffusion.hpp"

namespace le {
namespace {

using stats::Rng;

// ---------------------------------------------------------------------------
// Pair potentials: analytic force = -dU/dr across a parameter grid.

class YukawaConsistency
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(YukawaConsistency, ForceMatchesEnergyDerivative) {
  const auto [kappa, q_product, r] = GetParam();
  md::YukawaPotential yuk;
  yuk.kappa = kappa;
  yuk.r_cut = 10.0;
  const double eps = 1e-6;
  const double up = yuk.evaluate((r + eps) * (r + eps), q_product, 1.0).energy;
  const double down = yuk.evaluate((r - eps) * (r - eps), q_product, 1.0).energy;
  const double fd = -(up - down) / (2 * eps);
  const double analytic = yuk.evaluate(r * r, q_product, 1.0).force_over_r * r;
  EXPECT_NEAR(analytic, fd, 1e-5 + 1e-6 * std::abs(analytic));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, YukawaConsistency,
    ::testing::Combine(::testing::Values(0.3, 1.0, 2.5),   // kappa
                       ::testing::Values(-2.0, 1.0, 4.0),  // q1*q2
                       ::testing::Values(0.7, 1.5, 3.0))); // r

class WcaConsistency
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(WcaConsistency, ForceMatchesEnergyDerivative) {
  const auto [sigma, r_frac] = GetParam();
  md::WcaPotential wca;
  const double r = r_frac * wca.cutoff(sigma);
  const double eps = 1e-7;
  const double up = wca.evaluate((r + eps) * (r + eps), sigma).energy;
  const double down = wca.evaluate((r - eps) * (r - eps), sigma).energy;
  const double fd = -(up - down) / (2 * eps);
  const double analytic = wca.evaluate(r * r, sigma).force_over_r * r;
  EXPECT_NEAR(analytic, fd, 1e-4 + 1e-5 * std::abs(analytic));
}

INSTANTIATE_TEST_SUITE_P(Grid, WcaConsistency,
                         ::testing::Combine(::testing::Values(0.4, 0.7, 1.0),
                                            ::testing::Values(0.8, 0.9, 0.99)));

// ---------------------------------------------------------------------------
// Metropolis MC samples the Boltzmann distribution: for an isotropic
// harmonic trap U = 0.5 k sum |r_i|^2, equipartition gives
// <|r|^2> per atom = 3 kT / k.

class HarmonicEquipartition
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(HarmonicEquipartition, MeanSquareDisplacementMatches) {
  const auto [spring_k, kT] = GetParam();
  const std::size_t atoms = 8;
  std::vector<md::Vec3> start(atoms);  // all at the origin

  const double k_capture = spring_k;
  const md::EnergyCallback energy = [k_capture](const std::vector<md::Vec3>& x) {
    double e = 0.0;
    for (const auto& p : x) e += 0.5 * k_capture * p.norm_sq();
    return e;
  };
  md::MonteCarloConfig cfg;
  cfg.sweeps = 3000;
  cfg.burn_in = 500;
  cfg.kT = kT;
  cfg.radius = 50.0;  // effectively unconfined
  cfg.max_displacement = 0.8 * std::sqrt(kT / spring_k);
  cfg.seed = 17;
  const md::MonteCarloResult result = md::run_monte_carlo(start, energy, cfg);

  // <U> = (3/2) N kT by equipartition.
  const double expected_energy =
      1.5 * static_cast<double>(atoms) * kT;
  EXPECT_NEAR(result.mean_energy, expected_energy, 0.1 * expected_energy);
}

INSTANTIATE_TEST_SUITE_P(Grid, HarmonicEquipartition,
                         ::testing::Combine(::testing::Values(1.0, 4.0),
                                            ::testing::Values(0.5, 1.0, 2.0)));

// ---------------------------------------------------------------------------
// Diffusion solver: with a uniform source S, no cells and decay k_d, the
// steady state is the uniform field c = S / k_d (zero-flux boundaries
// admit the constant solution).

class UniformSteadyState
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(UniformSteadyState, MatchesAnalyticConstant) {
  const auto [source, decay] = GetParam();
  tissue::DiffusionParams params;
  params.decay_rate = decay;
  params.uptake_rate = 0.0;
  params.tolerance = 1e-9;
  params.max_sweeps = 200000;
  const tissue::DiffusionSolver solver(params);
  const std::size_t n = 10;
  const tissue::Grid2D sources(n, n, source);
  const tissue::Grid2D cells(n, n, 0.0);
  const tissue::SteadyStateResult r =
      solver.steady_state(tissue::Grid2D(n, n, 0.0), sources, cells);
  ASSERT_TRUE(r.converged);
  const double expected = source / decay;
  for (double v : r.field.flat()) {
    EXPECT_NEAR(v, expected, 1e-4 * expected + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, UniformSteadyState,
                         ::testing::Combine(::testing::Values(0.1, 1.0),
                                            ::testing::Values(0.05, 0.5)));

// ---------------------------------------------------------------------------
// Effective speedup: algebraic properties over a grid of time scales.

class SpeedupProperties
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(SpeedupProperties, MonotoneInLookupsAndBounded) {
  const auto [t_train, t_learn, t_lookup] = GetParam();
  core::SpeedupTimes t;
  t.t_seq = 1.0;
  t.t_train = t_train;
  t.t_learn = t_learn;
  t.t_lookup = t_lookup;
  const double limit = core::lookup_limit(t);
  double prev = 0.0;
  for (std::size_t n : {1u, 10u, 100u, 10000u, 1000000u}) {
    const double s = core::effective_speedup(t, n, 8);
    EXPECT_GT(s, prev);  // strictly increasing in N_lookup
    EXPECT_LT(s, limit);  // never exceeds the lookup-bound limit
    prev = s;
  }
  // Adding training cost can only reduce the speedup.
  core::SpeedupTimes costly = t;
  costly.t_learn = t.t_learn + 1.0;
  EXPECT_LT(core::effective_speedup(costly, 1000, 8),
            core::effective_speedup(t, 1000, 8));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SpeedupProperties,
    ::testing::Combine(::testing::Values(0.5, 1.0, 2.0),     // t_train
                       ::testing::Values(0.0, 0.1),          // t_learn
                       ::testing::Values(1e-6, 1e-4, 1e-2))); // t_lookup

// ---------------------------------------------------------------------------
// Gradient checks across every activation kind.

class ActivationGradients : public ::testing::TestWithParam<nn::Activation> {};

TEST_P(ActivationGradients, BackpropMatchesFiniteDifference) {
  Rng rng(55);
  nn::MlpConfig cfg;
  cfg.input_dim = 3;
  cfg.hidden = {6, 5};
  cfg.output_dim = 2;
  cfg.activation = GetParam();
  nn::Network net = nn::make_mlp(cfg, rng);

  tensor::Matrix x(4, 3), y(4, 2);
  for (double& v : x.flat()) v = rng.uniform(-0.9, 0.9);
  for (double& v : y.flat()) v = rng.uniform(-0.9, 0.9);
  const nn::MseLoss loss;

  net.set_training(true);
  net.zero_grad();
  net.backward(loss.evaluate(net.forward(x), y).grad);
  std::vector<std::vector<double>> analytic;
  for (const auto& view : net.parameters()) {
    analytic.emplace_back(view.grads.begin(), view.grads.end());
  }
  auto params = net.parameters();
  const double eps = 1e-6;
  std::size_t checked = 0;
  for (std::size_t p = 0; p < params.size(); ++p) {
    const std::size_t stride =
        std::max<std::size_t>(1, params[p].values.size() / 5);
    for (std::size_t j = 0; j < params[p].values.size(); j += stride) {
      const double orig = params[p].values[j];
      params[p].values[j] = orig + eps;
      const double up = loss.evaluate(net.forward(x), y).value;
      params[p].values[j] = orig - eps;
      const double down = loss.evaluate(net.forward(x), y).value;
      params[p].values[j] = orig;
      // ReLU kinks can make individual FD checks off by the kink measure;
      // tolerance is loose enough for those, tight enough for real bugs.
      EXPECT_NEAR(analytic[p][j], (up - down) / (2 * eps), 2e-4);
      ++checked;
    }
  }
  EXPECT_GT(checked, 10u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ActivationGradients,
    ::testing::Values(nn::Activation::kIdentity, nn::Activation::kRelu,
                      nn::Activation::kLeakyRelu, nn::Activation::kTanh,
                      nn::Activation::kSigmoid),
    [](const auto& test_info) { return nn::to_string(test_info.param); });

// ---------------------------------------------------------------------------
// Optimizers reject a changed parameter list between steps (state safety).

TEST(OptimizerState, RejectsChangedParameterList) {
  std::vector<double> w1{1.0}, g1{0.1};
  std::vector<double> w2{1.0, 2.0}, g2{0.1, 0.2};
  nn::AdamOptimizer adam(0.1);
  adam.step({{std::span<double>{w1}, std::span<double>{g1}}});
  EXPECT_THROW(adam.step({{std::span<double>{w2}, std::span<double>{g2}}}),
               std::invalid_argument);

  nn::SgdOptimizer sgd(0.1, 0.5);
  sgd.step({{std::span<double>{w1}, std::span<double>{g1}}});
  EXPECT_THROW(sgd.step({{std::span<double>{w1}, std::span<double>{g1}},
                         {std::span<double>{w2}, std::span<double>{g2}}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace le
