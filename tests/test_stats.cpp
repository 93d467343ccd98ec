// Unit and property tests for RNG streams, descriptive statistics,
// autocorrelation/blocking analysis, metrics and histograms.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "le/stats/autocorr.hpp"
#include "le/stats/descriptive.hpp"
#include "le/stats/histogram.hpp"
#include "le/stats/metrics.hpp"
#include "le/stats/rng.hpp"

namespace le::stats {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, SplitIndependentOfParentDraws) {
  Rng parent(42);
  Rng child1 = parent.split(7);
  (void)parent.uniform();  // consuming the parent must not change children
  Rng child2 = Rng(42).split(7);
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(child1.uniform(), child2.uniform());
}

TEST(Rng, SplitsDiffer) {
  Rng parent(42);
  Rng a = parent.split(1), b = parent.split(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(3);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.normal(5.0, 2.0);
  EXPECT_NEAR(mean(xs), 5.0, 0.1);
  EXPECT_NEAR(stddev(xs), 2.0, 0.1);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(4);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(std::span<int>{v});
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

// ---------------------------------------------------------------------------
// Mt19937_64 against the library's std::mt19937_64, and BernoulliCut against
// the library's std::bernoulli_distribution: equal outputs, draws, state and
// stream text, so masks, weights and checkpoints do not change bit for bit.

template <typename Engine>
std::string stream_text(const Engine& engine) {
  std::ostringstream out;
  out << engine;
  return std::move(out).str();
}

TEST(Mt19937_64, MatchesTheLibraryEngine) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
        std::uint64_t{0x9e3779b97f4a7c15ULL},
        std::numeric_limits<std::uint64_t>::max()}) {
    Mt19937_64 ours(seed);
    std::mt19937_64 library(seed);
    std::size_t mismatches = 0;
    for (int i = 0; i < 2'000'000; ++i) mismatches += ours() != library();
    EXPECT_EQ(mismatches, 0U) << "seed " << seed;
    EXPECT_EQ(stream_text(ours), stream_text(library)) << "seed " << seed;
  }
}

TEST(Mt19937_64, StandardCheckValue) {
  // [rand.predef]: the 10000th output of a default-constructed engine.
  Mt19937_64 engine;
  for (int i = 1; i < 10000; ++i) (void)engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

TEST(Mt19937_64, StreamTextReadsBackEitherWay) {
  // Block boundaries (0, 1, 311, 312 words drawn) and a later position.
  for (const int drawn : {0, 1, 311, 312, 1000}) {
    std::mt19937_64 library(77);
    library.discard(static_cast<unsigned long long>(drawn));
    Mt19937_64 ours;
    std::istringstream(stream_text(library)) >> ours;
    EXPECT_EQ(stream_text(ours), stream_text(library)) << drawn;

    std::mt19937_64 library_back;
    std::istringstream(stream_text(ours)) >> library_back;
    EXPECT_EQ(library_back, library) << drawn;
    for (int i = 0; i < 700; ++i) ASSERT_EQ(ours(), library()) << drawn;
  }
}

TEST(Mt19937_64, StreamReadRejectsAnIndexNoEngineHolds) {
  std::string text = stream_text(Mt19937_64(3));
  ASSERT_EQ(text.substr(text.size() - 4), " 312");
  text.replace(text.size() - 3, 3, "313");
  Mt19937_64 engine(4);
  const Mt19937_64 before = engine;
  std::istringstream in(text);
  in >> engine;
  EXPECT_TRUE(in.fail());
  EXPECT_EQ(engine, before);  // a failed read leaves the engine as it was
}

TEST(Mt19937_64, LibraryDistributionsDrawTheSame) {
  // Every Rng helper is a library distribution over the engine; over either
  // engine the draws must agree exactly.
  Mt19937_64 ours(2024);
  std::mt19937_64 library(2024);
  for (int i = 0; i < 20'000; ++i) {
    ASSERT_EQ(std::uniform_real_distribution<double>(-1.0, 3.0)(ours),
              std::uniform_real_distribution<double>(-1.0, 3.0)(library));
    ASSERT_EQ(std::normal_distribution<double>(0.5, 2.0)(ours),
              std::normal_distribution<double>(0.5, 2.0)(library));
    ASSERT_EQ(std::uniform_int_distribution<std::int64_t>(-7, 1000)(ours),
              std::uniform_int_distribution<std::int64_t>(-7, 1000)(library));
    ASSERT_EQ(std::bernoulli_distribution(0.3)(ours),
              std::bernoulli_distribution(0.3)(library));
    const double mean = i % 2 == 0 ? 3.5 : 40.0;  // both poisson algorithms
    ASSERT_EQ(std::poisson_distribution<int>(mean)(ours),
              std::poisson_distribution<int>(mean)(library));
    ASSERT_EQ(std::exponential_distribution<double>(1.5)(ours),
              std::exponential_distribution<double>(1.5)(library));
    ASSERT_EQ(std::geometric_distribution<int>(0.2)(ours),
              std::geometric_distribution<int>(0.2)(library));
  }
  EXPECT_EQ(stream_text(ours), stream_text(library));
}

// The engine tests run on the AVX2 refill and tempering when the CPU has
// them; the ctest entry test_stats_forced_scalar re-runs them under
// LE_KERNEL=scalar on the scalar ones.  Either way the words must be the
// library engine's.
TEST(Mt19937_64, GenerateEqualsRepeatedCalls) {
  // Start offsets on both sides of the twist's halves and of the refill;
  // lengths up to past two refills.  The block draw must give the words the
  // calls give (and the library engine), and leave the same stream.
  std::vector<std::uint64_t> block(700);
  for (const std::size_t offset : {0, 1, 155, 156, 311, 312}) {
    Mt19937_64 by_block(2026);
    Mt19937_64 by_call(2026);
    std::mt19937_64 library(2026);
    for (std::size_t i = 0; i < offset; ++i) {
      (void)by_block();
      (void)by_call();
      (void)library();
    }
    for (std::size_t length = 0; length <= 700; ++length) {
      by_block.generate(std::span<std::uint64_t>(block.data(), length));
      for (std::size_t i = 0; i < length; ++i) {
        const std::uint64_t word = by_call();
        ASSERT_EQ(block[i], word)
            << "offset " << offset << " length " << length << " word " << i;
        ASSERT_EQ(word, library()) << "offset " << offset << " word " << i;
      }
      ASSERT_EQ(by_block, by_call) << "offset " << offset << " length "
                                   << length;
      ASSERT_EQ(stream_text(by_block), stream_text(library))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(BernoulliCut, DrawsLikeTheLibraryDistribution) {
  for (const double p : {1e-9, 0.05, 0.5, 0.9, 0.95, 1.0 - 1e-12}) {
    const BernoulliCut cut(p);
    Mt19937_64 ours(31);
    std::mt19937_64 library(31);
    std::bernoulli_distribution draw(p);
    std::size_t mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) {
      mismatches += cut(ours) != draw(library);
    }
    EXPECT_EQ(mismatches, 0U) << "p " << p;
    EXPECT_EQ(stream_text(ours), stream_text(library)) << "p " << p;
  }
}

TEST(BernoulliCut, CutIsTheLibraryBoundary) {
  // The library draw maps one output u to u / 2^64 and compares it with p,
  // so the cut sits where that double crosses p.
  for (const double p : {0.05, 0.5, 0.9}) {
    const std::uint64_t cut = BernoulliCut(p).last_true();
    EXPECT_LT(std::ldexp(static_cast<double>(cut), -64), p) << p;
    EXPECT_GE(std::ldexp(static_cast<double>(cut + 1), -64), p) << p;
  }
  EXPECT_EQ(BernoulliCut(1.0).last_true(), Mt19937_64::max());
  EXPECT_THROW(BernoulliCut(0.0), std::invalid_argument);
  EXPECT_THROW(BernoulliCut(1.5), std::invalid_argument);
  EXPECT_THROW(BernoulliCut(std::nan("")), std::invalid_argument);
}

TEST(Descriptive, MeanVarianceKnown) {
  std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
}

TEST(Descriptive, EmptyAndSingleton) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(mean(empty), 0.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{3.0}), 0.0);
  EXPECT_THROW((void)min(empty), std::invalid_argument);
}

TEST(Descriptive, QuantileInterpolates) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
  EXPECT_THROW((void)quantile(xs, 1.5), std::invalid_argument);
}

TEST(Descriptive, CorrelationSigns) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  std::vector<double> up{2.0, 4.0, 6.0, 8.0};
  std::vector<double> down{8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(correlation(xs, up), 1.0, 1e-12);
  EXPECT_NEAR(correlation(xs, down), -1.0, 1e-12);
  std::vector<double> flat{1.0, 1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(correlation(xs, flat), 0.0);
}

TEST(Descriptive, SummarizeBundle) {
  std::vector<double> xs{1.0, 3.0, 5.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
}

TEST(Autocorr, WhiteNoiseHasTauNearOne) {
  Rng rng(5);
  std::vector<double> xs(5000);
  for (double& x : xs) x = rng.normal();
  EXPECT_NEAR(integrated_autocorr_time(xs, 100), 1.0, 0.3);
}

TEST(Autocorr, Ar1HasKnownTau) {
  // AR(1) with phi: tau = (1 + phi) / (1 - phi).
  const double phi = 0.8;
  Rng rng(6);
  std::vector<double> xs(40000);
  double x = 0.0;
  for (double& v : xs) {
    x = phi * x + rng.normal();
    v = x;
  }
  const double tau = integrated_autocorr_time(xs, 400);
  EXPECT_NEAR(tau, (1 + phi) / (1 - phi), 2.0);
}

TEST(Autocorr, ConstantSeries) {
  std::vector<double> xs(100, 3.0);
  const auto rho = autocorrelation(xs, 10);
  EXPECT_DOUBLE_EQ(rho[0], 1.0);
  EXPECT_DOUBLE_EQ(rho[5], 0.0);
}

TEST(Autocorr, BlockOnceHalves) {
  std::vector<double> xs{1.0, 3.0, 5.0, 7.0, 9.0};
  const auto blocked = block_once(xs);
  ASSERT_EQ(blocked.size(), 2u);
  EXPECT_DOUBLE_EQ(blocked[0], 2.0);
  EXPECT_DOUBLE_EQ(blocked[1], 6.0);
}

TEST(Autocorr, BlockingDetectsCorrelation) {
  // For correlated data the blocked SE must exceed the naive SE.
  Rng rng(7);
  std::vector<double> xs(16384);
  double x = 0.0;
  for (double& v : xs) {
    x = 0.9 * x + rng.normal();
    v = x;
  }
  const BlockingResult br = blocking_analysis(xs);
  ASSERT_FALSE(br.se_per_level.empty());
  EXPECT_GT(br.plateau_se, 2.0 * br.se_per_level.front());
  EXPECT_LT(br.n_effective, static_cast<double>(xs.size()) / 2.0);
}

TEST(Metrics, KnownValues) {
  std::vector<double> pred{1.0, 2.0, 3.0};
  std::vector<double> act{1.0, 2.0, 5.0};
  EXPECT_NEAR(rmse(pred, act), std::sqrt(4.0 / 3.0), 1e-12);
  EXPECT_NEAR(mae(pred, act), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(max_error(pred, act), 2.0);
}

TEST(Metrics, PerfectPredictionR2IsOne) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(r_squared(v, v), 1.0);
}

TEST(Metrics, MeanPredictorR2IsZero) {
  std::vector<double> act{1.0, 2.0, 3.0};
  std::vector<double> pred{2.0, 2.0, 2.0};
  EXPECT_NEAR(r_squared(pred, act), 0.0, 1e-12);
}

TEST(Metrics, MapeSkipsZeroTargets) {
  std::vector<double> pred{1.1, 5.0};
  std::vector<double> act{1.0, 0.0};
  EXPECT_NEAR(mape(pred, act), 10.0, 1e-9);
}

TEST(Metrics, EmptyThrows) {
  std::vector<double> empty;
  EXPECT_THROW((void)rmse(empty, empty), std::invalid_argument);
}

TEST(Histogram, BinsAndDensity) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(static_cast<double>(i) + 0.5);
  EXPECT_DOUBLE_EQ(h.total_weight(), 10.0);
  for (std::size_t b = 0; b < 10; ++b) EXPECT_DOUBLE_EQ(h.count(b), 1.0);
  const auto d = h.density();
  double integral = 0.0;
  for (double v : d) integral += v * h.bin_width();
  EXPECT_NEAR(integral, 1.0, 1e-12);
}

TEST(Histogram, OverflowUnderflow) {
  Histogram h(0.0, 1.0, 4);
  h.add(-0.5);
  h.add(1.5);
  h.add(0.5);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.total_weight(), 1.0);
}

TEST(Histogram, MergeRequiresSameBinning) {
  Histogram a(0.0, 1.0, 4), b(0.0, 1.0, 4), c(0.0, 2.0, 4);
  a.add(0.1);
  b.add(0.9);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.total_weight(), 2.0);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(Histogram, BinCenters) {
  Histogram h(0.0, 1.0, 2);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.25);
  EXPECT_DOUBLE_EQ(h.bin_center(1), 0.75);
  EXPECT_THROW((void)h.bin_center(2), std::out_of_range);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(1.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, NanGoesToInvalidNotBins) {
  Histogram h(0.0, 1.0, 4);
  h.add(std::nan(""), 2.5);
  EXPECT_DOUBLE_EQ(h.invalid(), 2.5);
  EXPECT_DOUBLE_EQ(h.total_weight(), 0.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 0.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 0.0);
  for (std::size_t b = 0; b < 4; ++b) EXPECT_DOUBLE_EQ(h.count(b), 0.0);
}

TEST(Histogram, InfinitiesLandInOverflowTallies) {
  Histogram h(0.0, 1.0, 4);
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(h.overflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.invalid(), 0.0);
  EXPECT_DOUBLE_EQ(h.total_weight(), 0.0);
}

TEST(Histogram, BoundaryValuesBinDeterministically) {
  // Every value lands in the bin whose *computed* half-open interval
  // [lo + k*w, lo + (k+1)*w) contains it, even when the naive
  // (value - lo) / width quotient rounds across the edge.  In particular a
  // value equal to a computed left edge opens its own bin.
  Histogram edges(-0.35, 0.7, 7);  // width 0.15: not exactly representable
  for (std::size_t k = 0; k < edges.bins(); ++k) {
    edges.add(edges.lo() + static_cast<double>(k) * edges.bin_width());
  }
  for (std::size_t b = 0; b < edges.bins(); ++b) {
    EXPECT_DOUBLE_EQ(edges.count(b), 1.0) << "bin " << b;
  }
  EXPECT_DOUBLE_EQ(edges.underflow() + edges.overflow(), 0.0);
  // hi itself is outside the half-open range.
  edges.add(edges.hi());
  EXPECT_DOUBLE_EQ(edges.overflow(), 1.0);

  // Awkward decimal values: whichever bin is chosen must satisfy the
  // half-open invariant against the computed edges.
  for (int i = 0; i < 10; ++i) {
    Histogram probe(0.0, 1.0, 10);
    const double v = 0.1 * static_cast<double>(i);
    probe.add(v);
    ASSERT_DOUBLE_EQ(probe.total_weight(), 1.0) << "value " << v;
    std::size_t bin = probe.bins();
    for (std::size_t b = 0; b < probe.bins(); ++b) {
      if (probe.count(b) > 0.0) bin = b;
    }
    ASSERT_LT(bin, probe.bins());
    EXPECT_GE(v, probe.lo() + static_cast<double>(bin) * probe.bin_width());
    EXPECT_LT(v,
              probe.lo() + static_cast<double>(bin + 1) * probe.bin_width());
  }
}

TEST(Histogram, MergeAndResetCarryInvalidWeight) {
  Histogram a(0.0, 1.0, 4), b(0.0, 1.0, 4);
  a.add(std::nan(""));
  b.add(std::nan(""), 3.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.invalid(), 4.0);
  a.reset();
  EXPECT_DOUBLE_EQ(a.invalid(), 0.0);
}

}  // namespace
}  // namespace le::stats
