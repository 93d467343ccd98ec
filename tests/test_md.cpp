// Tests for the MD substrate: geometry, potentials, neighbour lists,
// integrators, the nanoconfinement pipeline, the reference many-body
// potential, symmetry functions, the NN potential and Metropolis MC.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <set>

#include "le/md/integrator.hpp"
#include "le/md/monte_carlo.hpp"
#include "le/md/nanoconfinement.hpp"
#include "le/md/neighbor.hpp"
#include "le/md/nn_potential.hpp"
#include "le/md/observables.hpp"
#include "le/md/potentials.hpp"
#include "le/md/reference_potential.hpp"
#include "le/md/symmetry.hpp"
#include "le/md/system.hpp"
#include "le/runtime/thread_pool.hpp"
#include "le/stats/descriptive.hpp"

namespace le::md {
namespace {

using le::stats::Rng;

NanoconfinementParams tiny_params() {
  NanoconfinementParams p;
  p.h = 2.5;
  p.lx = 5.0;
  p.ly = 5.0;
  p.c = 0.4;
  p.d = 0.5;
  p.equilibration_steps = 300;
  p.production_steps = 600;
  p.sample_interval = 10;
  p.bins = 24;
  p.seed = 11;
  return p;
}

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3{3, 3, 3}));
  EXPECT_EQ(2.0 * a, (Vec3{2, 4, 6}));
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  EXPECT_DOUBLE_EQ((Vec3{3, 4, 0}).norm(), 5.0);
}

TEST(SlabGeometry, MinImageWrapsXYOnly) {
  const SlabGeometry geo{10.0, 10.0, 4.0};
  const Vec3 a{9.5, 0.5, 1.0}, b{0.5, 9.5, -1.0};
  const Vec3 d = geo.min_image(a, b);
  EXPECT_DOUBLE_EQ(d.x, -1.0);
  EXPECT_DOUBLE_EQ(d.y, 1.0);
  EXPECT_DOUBLE_EQ(d.z, 2.0);  // z not periodic
}

TEST(SlabGeometry, WrapIntoBox) {
  const SlabGeometry geo{10.0, 10.0, 4.0};
  Vec3 p{-0.5, 10.5, 3.0};
  geo.wrap(p);
  EXPECT_DOUBLE_EQ(p.x, 9.5);
  EXPECT_DOUBLE_EQ(p.y, 0.5);
  EXPECT_DOUBLE_EQ(p.z, 3.0);
}

TEST(ParticleSystem, ThermalizeHitsTemperatureAndKillsDrift) {
  ParticleSystem sys;
  Rng rng(12);
  for (int i = 0; i < 500; ++i) {
    sys.add({rng.uniform(), rng.uniform(), rng.uniform()}, 1.0, 0.5);
  }
  sys.thermalize(1.5, rng);
  EXPECT_NEAR(sys.kinetic_temperature(), 1.5, 0.15);
  Vec3 momentum{};
  for (std::size_t i = 0; i < sys.size(); ++i) momentum += sys.velocities()[i];
  EXPECT_NEAR(momentum.norm(), 0.0, 1e-9);
}

TEST(Wca, ZeroBeyondCutoffRepulsiveInside) {
  WcaPotential wca;
  const double sigma = 1.0;
  const double rc = wca.cutoff(sigma);
  EXPECT_DOUBLE_EQ(wca.evaluate(rc * rc * 1.01, sigma).energy, 0.0);
  const PairSample close = wca.evaluate(0.81 * sigma * sigma, sigma);
  EXPECT_GT(close.energy, 0.0);
  EXPECT_GT(close.force_over_r, 0.0);  // repulsive
  // Energy continuity at the cutoff (shifted potential).
  const PairSample at = wca.evaluate(rc * rc * 0.9999, sigma);
  EXPECT_NEAR(at.energy, 0.0, 1e-3);
}

TEST(Yukawa, SignsAndCutoff) {
  YukawaPotential yuk;
  yuk.kappa = 0.5;
  const PairSample like = yuk.evaluate(1.0, 1.0, 1.0);
  EXPECT_GT(like.energy, 0.0);
  EXPECT_GT(like.force_over_r, 0.0);
  const PairSample unlike = yuk.evaluate(1.0, 1.0, -1.0);
  EXPECT_LT(unlike.energy, 0.0);
  EXPECT_LT(unlike.force_over_r, 0.0);
  EXPECT_DOUBLE_EQ(yuk.evaluate(yuk.r_cut * yuk.r_cut * 1.1, 1.0, 1.0).energy, 0.0);
}

TEST(Yukawa, ForceMatchesEnergyDerivative) {
  YukawaPotential yuk;
  yuk.kappa = 0.8;
  const double r = 1.3, eps = 1e-6;
  const double e_plus = yuk.evaluate((r + eps) * (r + eps), 2.0, -1.0).energy;
  const double e_minus = yuk.evaluate((r - eps) * (r - eps), 2.0, -1.0).energy;
  const double fd_force = -(e_plus - e_minus) / (2 * eps);  // F = -dU/dr
  const double analytic = yuk.evaluate(r * r, 2.0, -1.0).force_over_r * r;
  EXPECT_NEAR(analytic, fd_force, 1e-5);
}

TEST(Wall, PushesIonsInward) {
  WallPotential wall;
  wall.sigma = 0.25;
  wall.cutoff = 0.625;
  const double h = 3.0, d = 0.5;
  // Near the lower wall: force_z must be positive (pushes up).
  const auto near_lower = wall.evaluate(-1.4, h, d);
  EXPECT_GT(near_lower.force_z, 0.0);
  // Near the upper wall: force_z negative.
  const auto near_upper = wall.evaluate(1.4, h, d);
  EXPECT_LT(near_upper.force_z, 0.0);
  // Mid-plane: outside both cutoffs -> no force.
  const auto centre = wall.evaluate(0.0, h, d);
  EXPECT_DOUBLE_EQ(centre.force_z, 0.0);
}

TEST(ForceField, PairForcesObeyNewtonThirdLaw) {
  NanoconfinementParams p = tiny_params();
  Rng rng(13);
  ParticleSystem sys = build_ion_system(p, rng);
  const SlabGeometry geo{p.lx, p.ly, p.h};
  const auto ff = make_force_field(p);
  ff.compute(sys, geo);
  // Walls only act on z, so total x and y force must vanish.
  Vec3 total{};
  for (const auto& f : sys.forces()) total += f;
  EXPECT_NEAR(total.x, 0.0, 1e-9);
  EXPECT_NEAR(total.y, 0.0, 1e-9);
}

TEST(ForceField, ForcesMatchEnergyGradient) {
  // Small 6-ion system: numerical dE/dx must equal -F reported.
  NanoconfinementParams p = tiny_params();
  p.lx = 4.0;
  p.ly = 4.0;
  p.c = 0.15;
  Rng rng(14);
  ParticleSystem sys = build_ion_system(p, rng);
  const SlabGeometry geo{p.lx, p.ly, p.h};
  const auto ff = make_force_field(p);
  ff.compute(sys, geo);
  const std::vector<Vec3> forces = sys.forces();

  const double eps = 1e-6;
  for (std::size_t i = 0; i < std::min<std::size_t>(sys.size(), 4); ++i) {
    auto perturb = [&](double dz) {
      ParticleSystem copy = sys;
      copy.positions()[i].z += dz;
      return ff.compute(copy, geo);
    };
    const double fd = -(perturb(eps) - perturb(-eps)) / (2 * eps);
    EXPECT_NEAR(forces[i].z, fd, 1e-4 + 1e-6 * std::abs(forces[i].z))
        << "atom " << i;
  }
}

TEST(ForceField, CellListPathMatchesBruteForce) {
  NanoconfinementParams p = tiny_params();
  p.lx = 8.0;
  p.ly = 8.0;
  p.c = 0.5;
  Rng rng(131);
  ParticleSystem brute = build_ion_system(p, rng);
  ParticleSystem celled = brute;
  const SlabGeometry geo{p.lx, p.ly, p.h};
  const auto ff = make_force_field(p);
  const double e_brute = ff.compute(brute, geo);
  CellList cells(geo, ff.max_cutoff(brute));
  const double e_cells = ff.compute_with_cells(celled, geo, cells);
  EXPECT_NEAR(e_cells, e_brute, 1e-9 * std::abs(e_brute) + 1e-9);
  for (std::size_t i = 0; i < brute.size(); ++i) {
    EXPECT_NEAR(brute.forces()[i].x, celled.forces()[i].x, 1e-9);
    EXPECT_NEAR(brute.forces()[i].y, celled.forces()[i].y, 1e-9);
    EXPECT_NEAR(brute.forces()[i].z, celled.forces()[i].z, 1e-9);
  }
}

TEST(PairCorrelation, IdealGasIsFlat) {
  // Random uniform particles must give g(r) ~ 1 everywhere sampled.
  ParticleSystem sys;
  Rng rng(132);
  const SlabGeometry geo{8.0, 8.0, 4.0};
  for (int i = 0; i < 300; ++i) {
    sys.add({rng.uniform(0.0, geo.lx), rng.uniform(0.0, geo.ly),
             rng.uniform(-2.0, 2.0)},
            1.0, 0.5);
  }
  PairCorrelationConfig cfg;
  cfg.r_max = 2.5;
  cfg.bins = 20;
  cfg.ideal_samples = 80;
  const PairCorrelation g = pair_correlation(sys, geo, cfg);
  // Skip the smallest bins (few pairs, noisy); the rest must hug 1.
  for (std::size_t b = 4; b < g.g.size(); ++b) {
    EXPECT_NEAR(g.g[b], 1.0, 0.25) << "bin " << b;
  }
}

TEST(PairCorrelation, ExcludedVolumeShowsCoreAndPeak) {
  // An equilibrated WCA-ish ionic fluid has g ~ 0 inside the core and a
  // contact peak just outside it.
  NanoconfinementParams p = tiny_params();
  p.c = 0.8;
  p.equilibration_steps = 600;
  p.production_steps = 0;
  Rng rng(133);
  ParticleSystem sys = build_ion_system(p, rng);
  const SlabGeometry geo{p.lx, p.ly, p.h};
  const auto ff = make_force_field(p);
  const ForceCallback forces = [&](ParticleSystem& s) { return ff.compute(s, geo); };
  forces(sys);
  LangevinBaoab lang(0.002, 1.0, 1.0, rng.split(1));
  for (int s = 0; s < 800; ++s) lang.step(sys, geo, forces);

  PairCorrelationConfig cfg;
  cfg.r_max = 2.0;
  cfg.bins = 40;
  cfg.ideal_samples = 60;
  const PairCorrelation g = pair_correlation(sys, geo, cfg);
  // Inside the hard core (r < ~0.8 d) there should be almost no pairs.
  for (std::size_t b = 0; b < 6; ++b) EXPECT_LT(g.g[b], 0.3);
  EXPECT_GT(g.first_peak_r, 0.3);
  EXPECT_GT(g.first_peak_g, 1.0);
}

TEST(PairCorrelation, FiltersByChargeSign) {
  // Two cations at distance 0.6 and an anion far away: the like-charge
  // g(r) sees exactly one pair, the unlike-charge one sees pairs only at
  // large r.
  ParticleSystem sys;
  const SlabGeometry geo{10.0, 10.0, 4.0};
  sys.add({1.0, 1.0, 0.0}, +1.0, 0.5);
  sys.add({1.6, 1.0, 0.0}, +1.0, 0.5);
  sys.add({5.0, 5.0, 0.0}, -1.0, 0.5);
  PairCorrelationConfig cfg;
  cfg.r_max = 1.0;
  cfg.bins = 10;
  // Only one like pair exists, so the ideal-gas reference needs many
  // draws before every bin has support.
  cfg.ideal_samples = 20000;
  cfg.filter = PairFilter::kLikeCharge;
  const PairCorrelation like = pair_correlation(sys, geo, cfg);
  double like_mass = 0.0;
  for (double v : like.g) like_mass += v;
  EXPECT_GT(like_mass, 0.0);
  cfg.filter = PairFilter::kUnlikeCharge;
  const PairCorrelation unlike = pair_correlation(sys, geo, cfg);
  for (double v : unlike.g) EXPECT_DOUBLE_EQ(v, 0.0);  // no unlike pair < 1.0
}

TEST(PairCorrelation, ValidatesInput) {
  ParticleSystem sys;
  sys.add({0, 0, 0}, 1.0, 0.5);
  const SlabGeometry geo{4.0, 4.0, 2.0};
  EXPECT_THROW(pair_correlation(sys, geo, {}), std::invalid_argument);
}

TEST(CellList, MatchesBruteForceWithinCutoff) {
  const SlabGeometry geo{12.0, 12.0, 6.0};
  const double cutoff = 2.0;
  Rng rng(15);
  std::vector<Vec3> positions;
  for (int i = 0; i < 120; ++i) {
    positions.push_back({rng.uniform(0.0, geo.lx), rng.uniform(0.0, geo.ly),
                         rng.uniform(-0.5 * geo.h, 0.5 * geo.h)});
  }
  CellList cells(geo, cutoff);
  cells.rebuild(positions);
  const auto candidate = cells.pairs();

  // Every within-cutoff pair must be in the candidate set, exactly once.
  std::set<std::pair<std::size_t, std::size_t>> candidate_set(candidate.begin(),
                                                              candidate.end());
  EXPECT_EQ(candidate_set.size(), candidate.size()) << "duplicate pairs emitted";
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::size_t j = i + 1; j < positions.size(); ++j) {
      const double r2 = geo.min_image(positions[i], positions[j]).norm_sq();
      if (r2 < cutoff * cutoff) {
        EXPECT_TRUE(candidate_set.count({i, j}))
            << "missing pair " << i << "," << j;
      }
    }
  }
}

TEST(CellList, PairsEmittedExactlyOnceEvenForTinyBox) {
  const SlabGeometry geo{3.0, 3.0, 3.0};  // < 3 cells per axis -> fallback
  CellList cells(geo, 1.5);
  std::vector<Vec3> positions{{0.1, 0.1, 0.0}, {1.0, 1.0, 0.5},
                              {2.0, 2.0, -0.5}, {2.9, 0.1, 1.0}};
  cells.rebuild(positions);
  const auto pairs = cells.pairs();
  EXPECT_EQ(pairs.size(), 6u);  // all-pairs of 4
}

TEST(VelocityVerlet, ConservesEnergyNve) {
  NanoconfinementParams p = tiny_params();
  p.c = 0.2;
  Rng rng(16);
  ParticleSystem sys = build_ion_system(p, rng);
  const SlabGeometry geo{p.lx, p.ly, p.h};
  const auto ff = make_force_field(p);
  const ForceCallback forces = [&](ParticleSystem& s) { return ff.compute(s, geo); };
  const double pe0 = forces(sys);
  const double e0 = pe0 + sys.kinetic_energy();

  VelocityVerlet vv(0.001);
  double pe = pe0;
  for (int s = 0; s < 500; ++s) pe = vv.step(sys, geo, forces);
  const double e1 = pe + sys.kinetic_energy();
  EXPECT_NEAR(e1, e0, 0.02 * std::abs(e0) + 0.5);
}

TEST(VelocityVerlet, RejectsBadDt) {
  EXPECT_THROW(VelocityVerlet(0.0), std::invalid_argument);
  VelocityVerlet vv(0.1);
  EXPECT_THROW(vv.set_dt(-1.0), std::invalid_argument);
}

TEST(Langevin, EquilibratesToTargetTemperature) {
  NanoconfinementParams p = tiny_params();
  Rng rng(17);
  ParticleSystem sys = build_ion_system(p, rng);
  const SlabGeometry geo{p.lx, p.ly, p.h};
  const auto ff = make_force_field(p);
  const ForceCallback forces = [&](ParticleSystem& s) { return ff.compute(s, geo); };
  forces(sys);
  LangevinBaoab lang(0.002, 1.0, 1.0, rng.split(1));
  // Equilibrate, then average the temperature.
  for (int s = 0; s < 400; ++s) lang.step(sys, geo, forces);
  std::vector<double> temps;
  for (int s = 0; s < 600; ++s) {
    lang.step(sys, geo, forces);
    if (s % 5 == 0) temps.push_back(sys.kinetic_temperature());
  }
  EXPECT_NEAR(stats::mean(temps), 1.0, 0.12);
}

TEST(IonCounts, ElectroneutralAcrossValencies) {
  for (int zp : {1, 2, 3}) {
    for (int zn : {-1, -2}) {
      NanoconfinementParams p = tiny_params();
      p.z_p = zp;
      p.z_n = zn;
      const IonCounts counts = ion_counts(p);
      EXPECT_EQ(static_cast<long>(counts.positive) * zp +
                    static_cast<long>(counts.negative) * zn,
                0L)
          << "zp=" << zp << " zn=" << zn;
      EXPECT_GT(counts.positive, 0u);
      EXPECT_GT(counts.negative, 0u);
    }
  }
}

TEST(IonCounts, ScalesWithConcentration) {
  NanoconfinementParams lo = tiny_params(), hi = tiny_params();
  lo.c = 0.2;
  hi.c = 0.8;
  EXPECT_GT(ion_counts(hi).positive, ion_counts(lo).positive);
}

TEST(IonCounts, RejectsBadValencies) {
  NanoconfinementParams p = tiny_params();
  p.z_p = -1;
  EXPECT_THROW((void)ion_counts(p), std::invalid_argument);
}

TEST(DebyeKappa, IncreasesWithConcentration) {
  NanoconfinementParams lo = tiny_params(), hi = tiny_params();
  lo.c = 0.2;
  hi.c = 0.8;
  EXPECT_GT(debye_kappa(hi), debye_kappa(lo));
  EXPECT_GT(debye_kappa(lo), 0.0);
}

TEST(Nanoconfinement, RunProducesPhysicalResult) {
  const NanoconfinementResult r = run_nanoconfinement(tiny_params());
  ASSERT_EQ(r.profile.z.size(), 24u);
  for (double rho : r.profile.density) EXPECT_GE(rho, 0.0);
  EXPECT_GT(r.peak_density, 0.0);
  // Peak is by definition >= the other two features.
  EXPECT_GE(r.peak_density, r.center_density);
  EXPECT_GE(r.peak_density, r.contact_density);
  EXPECT_NEAR(r.mean_temperature, 1.0, 0.2);
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_FALSE(r.contact_series.empty());
  // Profile integrates to the positive-ion count.
  double integral = 0.0;
  const double bin_volume =
      (tiny_params().lx * tiny_params().ly) *
      (tiny_params().h / static_cast<double>(tiny_params().bins));
  for (double rho : r.profile.density) integral += rho * bin_volume;
  EXPECT_NEAR(integral, static_cast<double>(r.n_positive),
              0.15 * static_cast<double>(r.n_positive) + 1.0);
}

TEST(Nanoconfinement, DeterministicForFixedSeed) {
  const NanoconfinementResult a = run_nanoconfinement(tiny_params());
  const NanoconfinementResult b = run_nanoconfinement(tiny_params());
  EXPECT_DOUBLE_EQ(a.contact_density, b.contact_density);
  EXPECT_DOUBLE_EQ(a.peak_density, b.peak_density);
}

TEST(NanoconfinementEnsemble, AveragesReplicatesAndReportsSpread) {
  NanoconfinementParams p = tiny_params();
  p.production_steps = 400;
  p.equilibration_steps = 200;
  const EnsembleResult ens = run_nanoconfinement_ensemble(p, 3);
  ASSERT_EQ(ens.mean_targets.size(), 3u);
  EXPECT_EQ(ens.replicates, 3u);
  EXPECT_GT(ens.mean_targets[1], 0.0);   // peak density positive
  EXPECT_GT(ens.stddev_targets[1], 0.0); // replicates genuinely differ
  EXPECT_GT(ens.total_seconds, 0.0);
  EXPECT_THROW(run_nanoconfinement_ensemble(p, 0), std::invalid_argument);
}

TEST(NanoconfinementEnsemble, PoolPathMatchesSerialMeans) {
  NanoconfinementParams p = tiny_params();
  p.production_steps = 300;
  p.equilibration_steps = 150;
  const EnsembleResult serial = run_nanoconfinement_ensemble(p, 2);
  runtime::ThreadPool pool(2);
  const EnsembleResult pooled = run_nanoconfinement_ensemble(p, 2, &pool);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_DOUBLE_EQ(serial.mean_targets[k], pooled.mean_targets[k]);
  }
}

TEST(ReferencePotential, PerAtomDecomposesTotal) {
  Rng rng(18);
  const auto cluster = random_cluster(10, 2.0, 0.8, rng);
  ReferenceManyBodyPotential ref;
  const ReferenceEnergy e = ref.evaluate(cluster);
  double sum = 0.0;
  for (double ea : e.per_atom) sum += ea;
  EXPECT_NEAR(sum, e.total, 1e-9 * std::abs(e.total) + 1e-9);
  EXPECT_GT(e.scf_iterations, 0u);
}

TEST(ReferencePotential, TranslationInvariant) {
  Rng rng(19);
  auto cluster = random_cluster(8, 2.0, 0.8, rng);
  ReferenceManyBodyPotential ref;
  const double e0 = ref.total_energy(cluster);
  for (auto& p : cluster) p += Vec3{5.0, -3.0, 2.0};
  EXPECT_NEAR(ref.total_energy(cluster), e0, 1e-9 * std::abs(e0) + 1e-9);
}

TEST(ReferencePotential, RotationInvariant) {
  Rng rng(20);
  auto cluster = random_cluster(8, 2.0, 0.8, rng);
  ReferenceManyBodyPotential ref;
  const double e0 = ref.total_energy(cluster);
  const double th = 0.7;
  for (auto& p : cluster) {
    const double x = p.x * std::cos(th) - p.y * std::sin(th);
    const double y = p.x * std::sin(th) + p.y * std::cos(th);
    p.x = x;
    p.y = y;
  }
  EXPECT_NEAR(ref.total_energy(cluster), e0, 1e-8 * std::abs(e0) + 1e-8);
}

TEST(RandomCluster, RespectsConstraints) {
  Rng rng(21);
  const double radius = 2.5, min_sep = 0.9;
  const auto cluster = random_cluster(20, radius, min_sep, rng);
  ASSERT_EQ(cluster.size(), 20u);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_LE(cluster[i].norm(), radius + 1e-12);
    for (std::size_t j = i + 1; j < cluster.size(); ++j) {
      EXPECT_GE((cluster[i] - cluster[j]).norm(), min_sep - 1e-12);
    }
  }
}

TEST(RandomCluster, ThrowsWhenImpossible) {
  Rng rng(22);
  EXPECT_THROW(random_cluster(1000, 1.0, 0.9, rng), std::runtime_error);
}

TEST(Symmetry, InvariantUnderRigidMotionAndPermutation) {
  Rng rng(23);
  auto cluster = random_cluster(8, 2.0, 0.8, rng);
  const auto sfs = SymmetryFunctionSet::standard(3.0, 5, true);
  const auto f0 = sfs.features(cluster, 0);
  EXPECT_EQ(f0.size(), 7u);

  // Translation.
  auto shifted = cluster;
  for (auto& p : shifted) p += Vec3{1.0, 2.0, -0.5};
  const auto f_shift = sfs.features(shifted, 0);
  for (std::size_t k = 0; k < f0.size(); ++k) EXPECT_NEAR(f0[k], f_shift[k], 1e-10);

  // Rotation about z.
  auto rotated = cluster;
  const double th = 1.1;
  for (auto& p : rotated) {
    const double x = p.x * std::cos(th) - p.y * std::sin(th);
    const double y = p.x * std::sin(th) + p.y * std::cos(th);
    p.x = x;
    p.y = y;
  }
  const auto f_rot = sfs.features(rotated, 0);
  for (std::size_t k = 0; k < f0.size(); ++k) EXPECT_NEAR(f0[k], f_rot[k], 1e-10);

  // Permutation of the NEIGHBOURS must not change atom 0's features.
  auto permuted = cluster;
  std::swap(permuted[1], permuted[5]);
  const auto f_perm = sfs.features(permuted, 0);
  for (std::size_t k = 0; k < f0.size(); ++k) EXPECT_NEAR(f0[k], f_perm[k], 1e-12);
}

TEST(Symmetry, CutoffFunctionVanishes) {
  // An atom with all neighbours beyond the cutoff has all-zero features.
  const auto sfs = SymmetryFunctionSet::standard(1.0, 4, true);
  std::vector<Vec3> positions{{0, 0, 0}, {5, 0, 0}, {0, 5, 0}};
  for (double f : sfs.features(positions, 0)) EXPECT_DOUBLE_EQ(f, 0.0);
}

TEST(Symmetry, FeaturesAllMatchesPerAtom) {
  Rng rng(24);
  const auto cluster = random_cluster(6, 2.0, 0.8, rng);
  const auto sfs = SymmetryFunctionSet::standard(2.5, 4, false);
  const tensor::Matrix all = sfs.features_all(cluster);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const auto fi = sfs.features(cluster, i);
    for (std::size_t k = 0; k < fi.size(); ++k) {
      EXPECT_DOUBLE_EQ(all(i, k), fi[k]);
    }
  }
}

TEST(NnPotential, TrainsToUsefulAccuracy) {
  ReferenceManyBodyPotential ref;
  const auto sfs = SymmetryFunctionSet::standard(2.5, 5, true);
  NnPotentialTrainingConfig cfg;
  cfg.n_train_clusters = 25;
  cfg.n_atoms = 10;
  cfg.train.epochs = 120;
  cfg.train.batch_size = 32;
  NnPotentialTrainingResult result = train_nn_potential(ref, sfs, cfg);
  EXPECT_GT(result.training_samples, 0u);
  EXPECT_TRUE(std::isfinite(result.test_rmse_per_atom));
  EXPECT_TRUE(std::isfinite(result.test_rmse_total));

  // The surrogate must beat the trivial "predict the mean" baseline: its
  // per-atom RMSE should be well under the per-atom energy spread.
  Rng rng(25);
  const auto probe = random_cluster(10, 2.5, 0.8, rng);
  const auto energies = result.potential.atomic_energies(probe);
  double total = 0.0;
  for (double e : energies) total += e;
  EXPECT_NEAR(result.potential.total_energy(probe), total, 1e-9);
}

NnPotentialTrainingResult train_radial_potential() {
  ReferenceManyBodyPotential ref;
  const auto sfs = SymmetryFunctionSet::standard(2.5, 6, /*with_angular=*/false);
  NnPotentialTrainingConfig cfg;
  cfg.n_train_clusters = 20;
  cfg.n_atoms = 8;
  cfg.train.epochs = 120;
  cfg.train.batch_size = 32;
  cfg.seed = 71;
  return train_nn_potential(ref, sfs, cfg);
}

TEST(NnPotentialForces, MatchFiniteDifferences) {
  NnPotentialTrainingResult trained = train_radial_potential();
  Rng rng(72);
  auto cluster = random_cluster(8, 2.0, 0.85, rng);
  const auto ef = trained.potential.energy_and_forces(cluster);
  ASSERT_EQ(ef.forces.size(), cluster.size());
  EXPECT_NEAR(ef.energy, trained.potential.total_energy(cluster), 1e-9);

  const double eps = 1e-6;
  for (std::size_t i : {0ul, 3ul, 7ul}) {
    for (int axis = 0; axis < 3; ++axis) {
      auto perturbed = cluster;
      double* coord = axis == 0   ? &perturbed[i].x
                      : axis == 1 ? &perturbed[i].y
                                  : &perturbed[i].z;
      *coord += eps;
      const double up = trained.potential.total_energy(perturbed);
      *coord -= 2 * eps;
      const double down = trained.potential.total_energy(perturbed);
      const double fd = -(up - down) / (2 * eps);
      const double analytic = axis == 0   ? ef.forces[i].x
                              : axis == 1 ? ef.forces[i].y
                                          : ef.forces[i].z;
      EXPECT_NEAR(analytic, fd, 1e-5 + 1e-5 * std::abs(analytic))
          << "atom " << i << " axis " << axis;
    }
  }
}

TEST(NnPotentialForces, AngularSetRejected) {
  ReferenceManyBodyPotential ref;
  const auto sfs = SymmetryFunctionSet::standard(2.5, 4, /*with_angular=*/true);
  NnPotentialTrainingConfig cfg;
  cfg.n_train_clusters = 10;
  cfg.n_atoms = 6;
  cfg.train.epochs = 20;
  NnPotentialTrainingResult trained = train_nn_potential(ref, sfs, cfg);
  Rng rng(73);
  const auto cluster = random_cluster(6, 2.0, 0.85, rng);
  EXPECT_THROW((void)trained.potential.energy_and_forces(cluster),
               std::logic_error);
}

TEST(NnPotentialForces, NveDynamicsConservesEnergy) {
  // Velocity Verlet driven entirely by the NN potential: total energy
  // (NN potential + kinetic) must be conserved to good relative accuracy,
  // which only happens if the analytic forces are the true gradient.
  NnPotentialTrainingResult trained = train_radial_potential();
  Rng rng(74);
  auto pos = random_cluster(8, 2.0, 0.9, rng);
  std::vector<Vec3> vel(pos.size());
  for (auto& v : vel) {
    v = {rng.normal(0.0, 0.05), rng.normal(0.0, 0.05), rng.normal(0.0, 0.05)};
  }
  auto ef = trained.potential.energy_and_forces(pos);
  auto kinetic = [&]() {
    double ke = 0.0;
    for (const auto& v : vel) ke += 0.5 * v.norm_sq();
    return ke;
  };
  const double e0 = ef.energy + kinetic();
  const double dt = 0.002;
  for (int step = 0; step < 300; ++step) {
    for (std::size_t i = 0; i < pos.size(); ++i) {
      vel[i] += (0.5 * dt) * ef.forces[i];
      pos[i] += dt * vel[i];
    }
    ef = trained.potential.energy_and_forces(pos);
    for (std::size_t i = 0; i < pos.size(); ++i) {
      vel[i] += (0.5 * dt) * ef.forces[i];
    }
  }
  const double e1 = ef.energy + kinetic();
  EXPECT_NEAR(e1, e0, 0.02 * std::abs(e0) + 0.05);
}

TEST(MonteCarlo, SamplesWithReasonableAcceptance) {
  Rng rng(26);
  auto start = random_cluster(8, 2.0, 0.9, rng);
  ReferenceManyBodyPotential ref;
  MonteCarloConfig cfg;
  cfg.sweeps = 30;
  cfg.burn_in = 10;
  cfg.kT = 1.0;
  cfg.radius = 2.5;
  const MonteCarloResult result = run_monte_carlo(
      start, [&](const std::vector<Vec3>& x) { return ref.total_energy(x); },
      cfg);
  EXPECT_GT(result.acceptance_rate, 0.05);
  EXPECT_LT(result.acceptance_rate, 1.0);
  EXPECT_FALSE(result.pair_distances.empty());
  EXPECT_EQ(result.energy_trace.size(), cfg.sweeps - cfg.burn_in);
  EXPECT_GT(result.energy_evaluations, cfg.sweeps * start.size() / 2);
}

TEST(MonteCarlo, RejectsBadConfig) {
  MonteCarloConfig cfg;
  cfg.kT = 0.0;
  EXPECT_THROW(run_monte_carlo({{}}, [](const auto&) { return 0.0; }, cfg),
               std::invalid_argument);
  MonteCarloConfig ok;
  EXPECT_THROW(run_monte_carlo({}, [](const auto&) { return 0.0; }, ok),
               std::invalid_argument);
}

}  // namespace
}  // namespace le::md
