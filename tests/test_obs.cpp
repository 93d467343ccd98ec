// Tests for le::obs — metrics primitives, registry, timers/trace spans,
// the live Section III-D EffectiveSpeedupMeter, histogram quantiles, the
// Chrome trace exporter and the surrogate health stack (drift detector +
// health monitor).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "le/obs/codec.hpp"
#include "le/obs/crc32.hpp"
#include "le/obs/drift.hpp"
#include "le/obs/flight_recorder.hpp"
#include "le/obs/health.hpp"
#include "le/obs/metrics.hpp"
#include "le/obs/slo.hpp"
#include "le/obs/speedup_meter.hpp"
#include "le/obs/timer.hpp"
#include "le/obs/trace_export.hpp"
#include "le/tensor/matrix.hpp"

#include "byte_mutator.hpp"
#include "snapshot_lookup.hpp"

namespace {

using namespace le;
using le::testing_support::counter_in;
using le::testing_support::gauge_in;

/// Flips the global metrics flag for one test and restores it after.
class MetricsOn {
 public:
  MetricsOn() : previous_(obs::metrics_enabled()) {
    obs::set_metrics_enabled(true);
  }
  ~MetricsOn() { obs::set_metrics_enabled(previous_); }

 private:
  bool previous_;
};

TEST(ObsCounter, AddsAndResets) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, ConcurrentAddsAreLossless) {
  obs::Counter c;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kAdds = 10000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::size_t i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kAdds);
}

TEST(ObsGauge, LastWriteWins) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  EXPECT_EQ(g.value(), 3.5);
  g.set(-1.0);
  EXPECT_EQ(g.value(), -1.0);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(ObsHistogram, BucketBoundsArePowersOfTwoNanoseconds) {
  // Octave e starts at 2^e ns and splits into kSubBuckets equal buckets.
  constexpr std::size_t kSub = obs::Histogram::kSubBuckets;
  EXPECT_EQ(obs::Histogram::kBucketCount, 40u * 64u);
  EXPECT_EQ(obs::Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(-1.0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(0.5e-9), 0u);  // sub-ns clamps
  EXPECT_EQ(obs::Histogram::bucket_index(1e-9), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(2e-9), kSub);
  EXPECT_EQ(obs::Histogram::bucket_index(1024e-9), 10 * kSub);
  EXPECT_EQ(obs::Histogram::bucket_index(1023.9e-9), 10 * kSub - 1);
  // 1 s = 1e9 ns = 2^29 * 1.8626..., sub-bucket floor(0.8626 * 64) = 55.
  EXPECT_EQ(obs::Histogram::bucket_index(1.0), 29 * kSub + 55);
  // Far beyond 2^40 ns: clamps to the last bucket.
  EXPECT_EQ(obs::Histogram::bucket_index(1e12),
            obs::Histogram::kBucketCount - 1);
  // Sampled buckets: the lower edge and the midpoint map back to the
  // bucket, and the midpoint is within 1/128 of the lower edge.
  for (std::size_t i = 0; i < obs::Histogram::kBucketCount; i += 37) {
    const double mid = obs::Histogram::bucket_midpoint(i);
    EXPECT_EQ(obs::Histogram::bucket_index(mid), i);
    const double octave = std::ldexp(1e-9, static_cast<int>(i / kSub));
    const double lo = octave * (1.0 + static_cast<double>(i % kSub) / kSub);
    EXPECT_LE(mid - lo, lo / 128.0 + 1e-24);
    EXPECT_EQ(obs::Histogram::bucket_index(lo * (1.0 + 1e-12)), i);
  }
}

TEST(ObsHistogram, StatsTrackRecordedValues) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  h.record(1e-6);
  h.record(3e-6);
  h.record(2e-6);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.sum(), 6e-6, 1e-18);
  EXPECT_NEAR(h.mean(), 2e-6, 1e-18);
  EXPECT_DOUBLE_EQ(h.min(), 1e-6);
  EXPECT_DOUBLE_EQ(h.max(), 3e-6);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
}

TEST(ObsHistogram, QuantilesComeFromBucketMidpoints) {
  obs::Histogram h;
  // 98 fast (~1 us) and 2 slow (~1 ms) samples.  The lower-rank order
  // statistic floor(q * 99) picks the sample; quantile() reports its
  // bucket's midpoint, within 1/128 of it.
  for (int i = 0; i < 98; ++i) h.record(i % 2 ? 1.2e-6 : 1.0e-6);
  h.record(1.3e-3);
  h.record(1.5e-3);
  const auto midpoint_of = [](double v) {
    return obs::Histogram::bucket_midpoint(obs::Histogram::bucket_index(v));
  };
  EXPECT_EQ(h.quantile(0.5), midpoint_of(1.2e-6));  // rank 49
  EXPECT_NEAR(h.quantile(0.5), 1.2e-6, 1.2e-6 / 128.0);
  EXPECT_EQ(h.quantile(0.995), midpoint_of(1.3e-3));  // rank 98
  EXPECT_NEAR(h.quantile(0.995), 1.3e-3, 1.3e-3 / 128.0);
  EXPECT_EQ(h.summary().p50, h.quantile(0.5));
  EXPECT_EQ(h.summary().p99, h.quantile(0.99));
}

TEST(ObsHistogram, QuantileZeroAndOneAreExactExtremes) {
  obs::Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty: 0, not NaN
  for (const double v : {3.3e-6, 7.7e-4, 1.234567e-5, 9.99e-2}) h.record(v);
  EXPECT_EQ(h.quantile(0.0), 3.3e-6);
  EXPECT_EQ(h.quantile(1.0), 9.99e-2);
  EXPECT_EQ(h.summary().min, 3.3e-6);
  EXPECT_EQ(h.summary().max, 9.99e-2);
  // A single sample: every quantile is that sample.
  obs::Histogram one;
  one.record(4.2e-4);
  EXPECT_EQ(one.quantile(0.0), 4.2e-4);
  EXPECT_EQ(one.quantile(0.5), 4.2e-4);
  EXPECT_EQ(one.quantile(1.0), 4.2e-4);
}

TEST(ObsHistogram, ConcurrentRecordsKeepCountAndExtremes) {
  obs::Histogram h;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRecords = 5000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::size_t i = 0; i < kRecords; ++i) {
        h.record(1e-6 * static_cast<double>(t + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), kThreads * kRecords);
  EXPECT_DOUBLE_EQ(h.min(), 1e-6);
  EXPECT_DOUBLE_EQ(h.max(), 8e-6);
}

/// record_batch() leaves what the same record() sequence leaves: count,
/// sum (bit for bit), min, max and every bucket, over runs of equal
/// buckets, values that alternate between buckets, both zeros, sub-ns
/// values, duplicates of the extremes and skipped non-finite values, and
/// on top of earlier samples.
TEST(ObsHistogram, RecordBatchEqualsTheSameRecordSequence) {
  std::vector<double> values{3e-6,   3e-6,    3.01e-6, 1e-3,   -0.0,
                             0.0,    2e-10,   7.5e-5,  7.5e-5, 1e-3,
                             4e-9,   1e-6,    1e-6,    1e-6,   2.5e-1};
  values.push_back(std::numeric_limits<double>::quiet_NaN());
  values.push_back(std::numeric_limits<double>::infinity());
  for (int i = 0; i < 64; ++i) {
    values.push_back(1e-6 * (1.0 + 0.37 * std::sin(0.7 * i)));
  }
  for (const std::size_t offset : {std::size_t{0}, std::size_t{5}}) {
    obs::Histogram one_by_one, batched;
    one_by_one.record(5e-5);
    batched.record(5e-5);
    const std::span<const double> part(values.data() + offset,
                                       values.size() - offset);
    for (const double v : part) one_by_one.record(v);
    batched.record_batch(part);
    EXPECT_EQ(batched.count(), one_by_one.count());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batched.sum()),
              std::bit_cast<std::uint64_t>(one_by_one.sum()));
    EXPECT_EQ(batched.min(), one_by_one.min());
    EXPECT_EQ(batched.max(), one_by_one.max());
    EXPECT_EQ(batched.buckets(), one_by_one.buckets());
  }
  obs::Histogram empty;
  empty.record_batch({});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  empty.record_batch(std::vector<double>{nan, nan});
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.sum(), 0.0);
  EXPECT_EQ(empty.min(), 0.0);
  EXPECT_EQ(empty.max(), 0.0);
}

TEST(ObsHistogram, ConcurrentRecordBatchesKeepCountSumAndExtremes) {
  obs::Histogram h;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kBatches = 500;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      const std::vector<double> batch(64, 1e-6 * static_cast<double>(t + 1));
      for (std::size_t i = 0; i < kBatches; ++i) h.record_batch(batch);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), kThreads * kBatches * 64);
  EXPECT_NEAR(h.sum(), 1e-6 * 64 * kBatches * (1 + 2 + 3 + 4), 1e-9);
  EXPECT_DOUBLE_EQ(h.min(), 1e-6);
  EXPECT_DOUBLE_EQ(h.max(), 4e-6);
}

TEST(ObsRegistry, HandlesAreStableAndNamed) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("events");
  obs::Counter& b = reg.counter("events");
  EXPECT_EQ(&a, &b);  // same name, same handle
  obs::Counter& c = reg.counter("other");
  EXPECT_NE(&a, &c);
  a.add(7);
  reg.gauge("depth").set(2.0);
  reg.histogram("lat").record(1e-6);

  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  // Sorted by name: "events" then "other".
  EXPECT_EQ(snap.counters[0].name, "events");
  EXPECT_EQ(snap.counters[0].value, 7u);
  EXPECT_EQ(snap.counters[1].name, "other");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 2.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
}

TEST(ObsRegistry, ResetZeroesButKeepsHandles) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("n");
  c.add(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);  // handle survives and reads zero
  c.add(1);
  EXPECT_EQ(reg.snapshot().counters[0].value, 1u);
}

TEST(ObsExport, JsonIsWellFormedAndLocaleProof) {
  obs::MetricsRegistry reg;
  reg.counter("calls").add(3);
  reg.gauge("frac").set(0.25);
  reg.histogram("lat").record(0.5);
  const std::string json = obs::to_json(reg.snapshot());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"calls\":3"), std::string::npos);
  EXPECT_NE(json.find("\"frac\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  // Locale independence: never a comma decimal separator.
  EXPECT_EQ(json.find("0,25"), std::string::npos);
  const std::string text = obs::to_text(reg.snapshot());
  EXPECT_NE(text.find("calls"), std::string::npos);
  EXPECT_NE(text.find("frac"), std::string::npos);
}

TEST(ObsScopedTimer, RecordsOnlyWhenEnabled) {
  obs::Histogram h;
  {
    obs::set_metrics_enabled(false);
    obs::ScopedTimer t(&h);
  }
  EXPECT_EQ(h.count(), 0u);  // disabled: no record
  {
    MetricsOn on;
    obs::ScopedTimer t(&h);
  }
  EXPECT_EQ(h.count(), 1u);
  {
    MetricsOn on;
    obs::ScopedTimer t(&h);
    const double s = t.stop();
    EXPECT_GE(s, 0.0);
    EXPECT_EQ(t.stop(), 0.0);  // idempotent: second stop is disarmed
  }
  EXPECT_EQ(h.count(), 2u);  // stop() recorded; destructor did not re-record
  {
    MetricsOn on;
    obs::ScopedTimer t(nullptr);  // null histogram is a no-op
    EXPECT_EQ(t.stop(), 0.0);
  }
}

TEST(ObsTrace, SpansCarryDepthAndNesting) {
  obs::TraceLog::global().clear();
  obs::set_tracing_enabled(true);
  EXPECT_EQ(obs::TraceSpan::current_depth(), 0u);
  {
    obs::TraceSpan outer("outer");
    EXPECT_EQ(obs::TraceSpan::current_depth(), 1u);
    {
      obs::TraceSpan inner("inner");
      EXPECT_EQ(obs::TraceSpan::current_depth(), 2u);
    }
    EXPECT_EQ(obs::TraceSpan::current_depth(), 1u);
  }
  obs::set_tracing_enabled(false);
  EXPECT_EQ(obs::TraceSpan::current_depth(), 0u);

  const std::vector<obs::SpanRecord> spans =
      obs::TraceLog::global().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Completion order: inner first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_EQ(spans[0].thread, spans[1].thread);
  EXPECT_GE(spans[0].start_seconds, spans[1].start_seconds);
}

TEST(ObsTrace, DisabledSpansRecordNothing) {
  obs::TraceLog::global().clear();
  obs::set_tracing_enabled(false);
  {
    obs::TraceSpan span("ghost");
  }
  EXPECT_TRUE(obs::TraceLog::global().snapshot().empty());
}

TEST(ObsTrace, RingDropsOldestBeyondCapacity) {
  obs::TraceLog log(4);
  for (int i = 0; i < 6; ++i) {
    obs::SpanRecord r;
    r.name = "s";
    r.name += std::to_string(i);
    log.record(std::move(r));
  }
  const auto spans = log.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().name, "s2");  // oldest two dropped
  EXPECT_EQ(spans.back().name, "s5");
  EXPECT_EQ(log.dropped(), 2u);
}

TEST(ObsThreadOrdinal, DistinctPerThread) {
  const std::uint32_t mine = obs::this_thread_ordinal();
  EXPECT_EQ(mine, obs::this_thread_ordinal());  // stable
  std::uint32_t other = mine;
  std::thread([&other] { other = obs::this_thread_ordinal(); }).join();
  EXPECT_NE(other, mine);
}

// ---- EffectiveSpeedupMeter: the live Section III-D equation -------------

TEST(ObsSpeedupMeter, MatchesHandComputedSectionIIID) {
  obs::EffectiveSpeedupMeter meter;
  // N_train = 4 sims at 2 s, learning 4 s total (1 s/sample), N_lookup =
  // 1000 at 1 ms, T_seq = 2.5 s baseline.
  for (int i = 0; i < 4; ++i) meter.record_train(2.0);
  meter.record_learn(4.0);
  meter.record_lookups(1000, 1.0);
  meter.record_seq_baseline(2.5);
  meter.record_seq_baseline(2.5);

  const auto snap = meter.snapshot();
  EXPECT_EQ(snap.n_lookup, 1000u);
  EXPECT_EQ(snap.n_train, 4u);
  EXPECT_DOUBLE_EQ(snap.t_lookup(), 1e-3);
  EXPECT_DOUBLE_EQ(snap.t_train(), 2.0);
  EXPECT_DOUBLE_EQ(snap.t_learn(), 1.0);
  EXPECT_DOUBLE_EQ(snap.t_seq(), 2.5);

  // S = T_seq (N_l + N_t) / (T_lkp N_l + (T_tr + T_lrn) N_t)
  const double expected = 2.5 * 1004.0 / (1e-3 * 1000.0 + (2.0 + 1.0) * 4.0);
  EXPECT_NEAR(snap.speedup(), expected, 1e-9 * expected);
  EXPECT_NEAR(snap.no_ml_limit(), 2.5 / 3.0, 1e-12);
  EXPECT_NEAR(snap.lookup_limit(), 2.5 / 1e-3, 1e-6);

  const std::string line = snap.summary();
  EXPECT_NE(line.find("S"), std::string::npos);
  EXPECT_NE(line.find("1000"), std::string::npos);
}

TEST(ObsSpeedupMeter, NoTrainWorkIsExactlyTheLookupLimit) {
  // N_train = 0: the train/learn term vanishes, so S must equal
  // T_seq / T_lookup exactly (not approximately).
  obs::EffectiveSpeedupMeter meter;
  meter.record_lookups(500, 0.05);  // T_lookup = 1e-4
  meter.record_seq_baseline(1.0);
  const auto snap = meter.snapshot();
  EXPECT_EQ(snap.n_train, 0u);
  EXPECT_DOUBLE_EQ(snap.speedup(), snap.lookup_limit());
  EXPECT_DOUBLE_EQ(snap.speedup(), 1.0 / 1e-4);
}

TEST(ObsSpeedupMeter, LookupDominatedApproachesTheLimit) {
  obs::EffectiveSpeedupMeter meter;
  meter.record_train(1.0);
  meter.record_learn(1.0);
  meter.record_lookups(100000000, 100000000.0 * 1e-5);  // N_lookup >> N_train
  const auto snap = meter.snapshot();
  // Within 1% of T_seq/T_lookup (T_seq falls back to T_train here).
  EXPECT_NEAR(snap.speedup() / snap.lookup_limit(), 1.0, 0.01);
  EXPECT_DOUBLE_EQ(snap.lookup_limit(), 1.0 / 1e-5);
}

TEST(ObsSpeedupMeter, SeqFallsBackToTrainWithoutBaseline) {
  obs::EffectiveSpeedupMeter meter;
  meter.record_train(3.0);
  EXPECT_DOUBLE_EQ(meter.snapshot().t_seq(), 3.0);
  meter.record_seq_baseline(5.0);
  EXPECT_DOUBLE_EQ(meter.snapshot().t_seq(), 5.0);
}

TEST(ObsSpeedupMeter, EmptyMeterReportsZeroNotNan) {
  obs::EffectiveSpeedupMeter meter;
  const auto snap = meter.snapshot();
  EXPECT_EQ(snap.speedup(), 0.0);
  EXPECT_EQ(snap.no_ml_limit(), 0.0);
  EXPECT_EQ(snap.lookup_limit(), 0.0);
  EXPECT_FALSE(std::isnan(snap.summary().empty() ? 0.0 : snap.speedup()));
}

TEST(ObsSpeedupMeter, ResetClears) {
  obs::EffectiveSpeedupMeter meter;
  meter.record_lookup(1e-3);
  meter.record_train(1.0);
  meter.reset();
  const auto snap = meter.snapshot();
  EXPECT_EQ(snap.n_lookup, 0u);
  EXPECT_EQ(snap.n_train, 0u);
  EXPECT_EQ(snap.speedup(), 0.0);
}

TEST(ObsSpeedupMeter, ConcurrentRecordingIsLossless) {
  obs::EffectiveSpeedupMeter meter;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kEach = 4000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&meter] {
      for (std::size_t i = 0; i < kEach; ++i) meter.record_lookup(1e-6);
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = meter.snapshot();
  EXPECT_EQ(snap.n_lookup, kThreads * kEach);
  EXPECT_NEAR(snap.lookup_seconds, 1e-6 * static_cast<double>(kThreads * kEach),
              1e-9);
}

// ---------------------------------------------------------------------------
// Histogram quantile accuracy against an exact sort

/// Deterministic xorshift stream in [0, 1); le::stats is deliberately not a
/// dependency of this test binary.
class UnitStream {
 public:
  explicit UnitStream(std::uint64_t seed) : x_(seed | 1) {}
  double next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return static_cast<double>(x_ >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t x_;
};

/// Standard normal deviate by Box-Muller over UnitStream.
double normal(UnitStream& stream) {
  const double u1 = std::max(stream.next(), 1e-300);
  const double u2 = stream.next();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

/// Latency-shaped test streams (seconds).
std::vector<double> latency_stream(const std::string& shape, std::size_t n,
                                   std::uint64_t seed) {
  UnitStream stream(seed);
  std::vector<double> out(n);
  for (double& v : out) {
    if (shape == "lognormal") {
      v = 1e-4 * std::exp(normal(stream));  // median 100 us, sigma 1
    } else if (shape == "pareto") {
      // x_m = 50 us, alpha = 1.2: a heavy tail reaching ~seconds.
      v = 5e-5 / std::pow(std::max(stream.next(), 1e-300), 1.0 / 1.2);
    } else {
      // Bimodal: 90% near 1 us, 10% near 1 ms, each with 10% jitter.
      const double mode = stream.next() < 0.9 ? 1e-6 : 1e-3;
      v = mode * (1.0 + 0.1 * stream.next());
    }
  }
  return out;
}

TEST(ObsHistogram, QuantilesWithinOnePercentOfExactSort) {
  for (const char* shape : {"lognormal", "pareto", "bimodal"}) {
    std::vector<double> values = latency_stream(shape, 50000, 11);
    obs::Histogram h;
    for (const double v : values) h.record(v);
    std::sort(values.begin(), values.end());
    for (const double q : {0.5, 0.95, 0.99, 0.999}) {
      // Same rank convention as Histogram::quantile: floor(q * (n - 1)).
      const double exact = values[static_cast<std::size_t>(
          q * static_cast<double>(values.size() - 1))];
      EXPECT_LE(std::abs(h.quantile(q) - exact), 0.01 * exact)
          << shape << " q=" << q << " exact=" << exact
          << " histogram=" << h.quantile(q);
    }
  }
}

TEST(ObsHistogram, TailQuantilesBeatBucketRounding) {
  obs::Histogram h;
  UnitStream stream(3);
  // All mass inside one power-of-two octave: the log-linear sub-buckets
  // still resolve the true p50/p99 to within 1/128.
  for (int i = 0; i < 10000; ++i) h.record(1.0e-3 + 0.9e-3 * stream.next());
  const obs::Histogram::Summary q = h.summary();
  EXPECT_EQ(q.count, 10000u);
  EXPECT_NEAR(q.p50, 1.45e-3, 0.1e-3);
  EXPECT_NEAR(q.p99, 1.89e-3, 0.05e-3);
  EXPECT_LE(q.p50, q.p95);
  EXPECT_LE(q.p95, q.p99);
  h.reset();
  EXPECT_EQ(h.summary().count, 0u);
  EXPECT_EQ(h.summary().p99, 0.0);
}

// ---------------------------------------------------------------------------
// Chrome trace export

/// Minimal recursive-descent JSON acceptor: enough to assert the exporter
/// emits syntactically valid JSON without pulling in a JSON library.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(peek())) ++pos_;
    if (peek() == '.') { ++pos_; while (std::isdigit(peek())) ++pos_; }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(peek())) ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  [[nodiscard]] char peek() const {
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::vector<obs::SpanRecord> sample_spans() {
  obs::SpanRecord outer;
  outer.name = "simulate \"fast\" \\ path";  // exercises escaping
  outer.thread = 0;
  outer.depth = 0;
  outer.start_seconds = 0.001;
  outer.seconds = 0.004;
  obs::SpanRecord inner;
  inner.name = "train";
  inner.thread = 1;
  inner.depth = 1;
  inner.start_seconds = 0.002;
  inner.seconds = 0.001;
  return {outer, inner};
}

TEST(ObsHistogram, NonFiniteRecordsAreIgnored) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat");
  h.record(2e-3);
  const std::vector<obs::Histogram::Bucket> before = h.buckets();
  h.record(std::numeric_limits<double>::quiet_NaN());
  h.record(std::numeric_limits<double>::infinity());
  h.record(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 2e-3);
  EXPECT_EQ(h.buckets(), before);
  EXPECT_EQ(h.max(), 2e-3);
  const std::string json = obs::to_json(reg.snapshot());
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

TEST(ChromeTrace, ExportIsValidJsonWithCompleteEvents) {
  const std::string json = obs::to_chrome_trace(sample_spans());
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // Complete events with microsecond timestamps on distinct tracks.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread names
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":4000"), std::string::npos);  // 4 ms -> us
  // The quote and backslash in the span name must be escaped.
  EXPECT_NE(json.find("\\\"fast\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\"), std::string::npos);
}

TEST(ChromeTrace, EmptySpanListIsStillValidJson) {
  const std::string json = obs::to_chrome_trace({});
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
}

TEST(ChromeTrace, WriteRoundTripsThroughAFile) {
  const std::string path =
      testing::TempDir() + "le_obs_chrome_trace_test.json";
  ASSERT_TRUE(obs::write_chrome_trace(path, sample_spans()));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_TRUE(JsonChecker(contents).valid());
  EXPECT_EQ(contents, obs::to_chrome_trace(sample_spans()));
}

TEST(ChromeTrace, WriteFailsCleanlyOnBadPath) {
  EXPECT_FALSE(
      obs::write_chrome_trace("/nonexistent-dir/trace.json", sample_spans()));
}

// ---------------------------------------------------------------------------
// Input drift detection

/// rows x 1 matrix of a uniform [lo, hi) stream.
tensor::Matrix uniform_column(std::size_t rows, double lo, double hi,
                              std::uint64_t seed) {
  tensor::Matrix m(rows, 1);
  UnitStream stream(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    m(r, 0) = lo + (hi - lo) * stream.next();
  }
  return m;
}

TEST(DriftDetector, InDistributionStreamScoresLow) {
  obs::DriftDetectorConfig cfg;
  cfg.bins = 8;
  cfg.window = 512;
  obs::InputDriftDetector detector(uniform_column(2048, 0.0, 1.0, 5), cfg);
  UnitStream stream(99);
  while (!detector.window_ready()) {
    const double v = stream.next();
    detector.observe(std::span<const double>(&v, 1));
  }
  const obs::DriftReport report = detector.evaluate();
  EXPECT_EQ(report.window_samples, 512u);
  // Well under the PSI sampling-noise floor heuristic for this sizing.
  EXPECT_LT(report.max_psi, 0.25);
  EXPECT_LT(report.max_ks, 0.15);
}

TEST(DriftDetector, OffSupportShiftScoresHigh) {
  obs::DriftDetectorConfig cfg;
  cfg.bins = 8;
  cfg.window = 256;
  obs::InputDriftDetector detector(uniform_column(2048, 0.0, 1.0, 5), cfg);
  UnitStream stream(99);
  for (std::size_t i = 0; i < cfg.window; ++i) {
    const double v = 2.0 + stream.next();  // entirely off-support
    detector.observe(std::span<const double>(&v, 1));
  }
  const obs::DriftReport report = detector.evaluate();
  // All live mass clamps into the top bin: PSI far beyond the 0.25 "major
  // shift" band, KS near its (bins-1)/bins ceiling.
  EXPECT_GT(report.max_psi, 1.0);
  EXPECT_GT(report.max_ks, 0.8);
  EXPECT_EQ(report.worst_feature, 0u);
}

TEST(DriftDetector, RebaseAdoptsTheNewReference) {
  obs::DriftDetectorConfig cfg;
  cfg.bins = 8;
  cfg.window = 128;
  obs::InputDriftDetector detector(uniform_column(1024, 0.0, 1.0, 5), cfg);
  detector.rebase(uniform_column(1024, 2.0, 3.0, 6));
  UnitStream stream(17);
  for (std::size_t i = 0; i < cfg.window; ++i) {
    const double v = 2.0 + stream.next();
    detector.observe(std::span<const double>(&v, 1));
  }
  const obs::DriftReport report = detector.evaluate();
  EXPECT_LT(report.max_psi, 0.5);  // in-distribution for the new reference
  EXPECT_EQ(report.windows_evaluated, 1u);  // history reset by rebase
}

TEST(DriftDetector, RejectsEmptyReferenceAndWrongWidth) {
  EXPECT_THROW(obs::InputDriftDetector(tensor::Matrix(), {}),
               std::invalid_argument);
  obs::InputDriftDetector detector(uniform_column(64, 0.0, 1.0, 5), {});
  const double two[2] = {0.5, 0.5};
  EXPECT_THROW(detector.observe(two), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Surrogate health monitor

obs::SurrogateHealthConfig tight_health_config() {
  obs::SurrogateHealthConfig cfg;
  cfg.drift.bins = 8;
  cfg.drift.window = 64;
  cfg.psi_drifting = 0.6;
  cfg.psi_untrusted = 4.0;
  cfg.shadow_fraction = 1.0;  // every accepted answer is shadow-sampled
  cfg.residual_window = 16;
  cfg.min_shadow_samples = 4;
  return cfg;
}

/// Feeds `n` shadow samples with a fixed absolute error per dimension.
void feed_shadows(obs::SurrogateHealthMonitor& monitor, int n, double error,
                  double sigma = 0.1) {
  for (int i = 0; i < n; ++i) {
    const double mean[1] = {1.0};
    const double stddev[1] = {sigma};
    const double truth[1] = {1.0 + error};
    monitor.record_shadow(mean, stddev, truth);
  }
}

TEST(HealthMonitor, StartsHealthyAndLatchesBaseline) {
  obs::SurrogateHealthMonitor monitor(tight_health_config(),
                                      uniform_column(256, 0.0, 1.0, 5));
  EXPECT_EQ(monitor.state(), obs::HealthState::kHealthy);
  EXPECT_FALSE(monitor.retrain_requested());
  feed_shadows(monitor, 8, 0.05);
  const obs::HealthReport report = monitor.report();
  EXPECT_NEAR(report.baseline_rmse, 0.05, 1e-9);
  EXPECT_NEAR(report.residual_rmse, 0.05, 1e-9);
  EXPECT_EQ(report.shadow_samples, 8u);
  EXPECT_EQ(monitor.state(), obs::HealthState::kHealthy);
}

TEST(HealthMonitor, ResidualAlarmLatchesUntrusted) {
  obs::SurrogateHealthMonitor monitor(tight_health_config(),
                                      uniform_column(256, 0.0, 1.0, 5));
  monitor.set_residual_baseline(0.05);
  feed_shadows(monitor, 16, 0.2);  // 4x baseline > the 2x alarm factor
  EXPECT_EQ(monitor.state(), obs::HealthState::kUntrusted);
  EXPECT_TRUE(monitor.retrain_requested());
  // Latched: healthy-looking shadows do not rehabilitate an UNTRUSTED model.
  feed_shadows(monitor, 32, 0.01);
  EXPECT_EQ(monitor.state(), obs::HealthState::kUntrusted);
  const auto transitions = monitor.transitions();
  ASSERT_FALSE(transitions.empty());
  EXPECT_EQ(transitions.back().to, obs::HealthState::kUntrusted);
}

TEST(HealthMonitor, ResidualWarnDriftsThenRecovers) {
  obs::SurrogateHealthMonitor monitor(tight_health_config(),
                                      uniform_column(256, 0.0, 1.0, 5));
  monitor.set_residual_baseline(0.05);
  // Between sqrt(2) and 2x baseline: warn, not alarm.
  feed_shadows(monitor, 16, 0.085);
  EXPECT_EQ(monitor.state(), obs::HealthState::kDrifting);
  EXPECT_FALSE(monitor.retrain_requested());
  // Clean samples flush the window; after two consecutive clean
  // evaluations the state heals.
  feed_shadows(monitor, 32, 0.01);
  EXPECT_EQ(monitor.state(), obs::HealthState::kHealthy);
}

TEST(HealthMonitor, DriftWindowAloneTriggersStateChange) {
  obs::SurrogateHealthMonitor monitor(tight_health_config(),
                                      uniform_column(512, 0.0, 1.0, 5));
  UnitStream stream(31);
  for (std::size_t i = 0; i < 64; ++i) {
    const double v = 3.0 + stream.next();  // off-support
    monitor.observe_query(std::span<const double>(&v, 1));
  }
  // A full off-support window scores past psi_untrusted = 4.
  EXPECT_EQ(monitor.state(), obs::HealthState::kUntrusted);
  EXPECT_GT(monitor.report().drift.max_psi, 4.0);
}

TEST(HealthMonitor, CoverageShortfallWarns) {
  obs::SurrogateHealthMonitor monitor(tight_health_config(),
                                      uniform_column(256, 0.0, 1.0, 5));
  monitor.set_residual_baseline(1.0);
  // Error far outside +/- 2 sigma on every sample: coverage 0 vs 0.954
  // nominal, past the 0.30 UNTRUSTED shortfall band.  The 0.5 residual
  // against a 1.0 baseline is below the sqrt(2) warn band, so coverage is
  // the only signal raised.
  feed_shadows(monitor, 16, 0.5, /*sigma=*/0.01);
  EXPECT_EQ(monitor.state(), obs::HealthState::kUntrusted);
  EXPECT_EQ(monitor.report().coverage, 0.0);
  EXPECT_EQ(monitor.transitions().back().reason.rfind(
                "shadow-sample: coverage shortfall", 0),
            0u);
}

TEST(HealthMonitor, ShadowStrideMatchesFraction) {
  obs::SurrogateHealthConfig cfg = tight_health_config();
  cfg.shadow_fraction = 0.25;  // stride 4
  obs::SurrogateHealthMonitor monitor(cfg, uniform_column(64, 0.0, 1.0, 5));
  int shadowed = 0;
  for (int i = 0; i < 100; ++i) {
    if (monitor.should_shadow_sample()) ++shadowed;
  }
  EXPECT_EQ(shadowed, 25);
  cfg.shadow_fraction = 0.0;  // disabled
  obs::SurrogateHealthMonitor off(cfg, uniform_column(64, 0.0, 1.0, 5));
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(off.should_shadow_sample());
}

TEST(HealthMonitor, OnRetrainedClearsStateAndRebasesDrift) {
  obs::SurrogateHealthMonitor monitor(tight_health_config(),
                                      uniform_column(512, 0.0, 1.0, 5));
  monitor.set_residual_baseline(0.05);
  feed_shadows(monitor, 16, 0.5);
  ASSERT_EQ(monitor.state(), obs::HealthState::kUntrusted);
  monitor.on_retrained(uniform_column(512, 3.0, 4.0, 6));
  EXPECT_EQ(monitor.state(), obs::HealthState::kHealthy);
  EXPECT_FALSE(monitor.retrain_requested());
  EXPECT_EQ(monitor.transitions().back().reason, "retrained");
  // The new reference owns the [3, 4) range now.
  UnitStream stream(13);
  for (std::size_t i = 0; i < 64; ++i) {
    const double v = 3.0 + stream.next();
    monitor.observe_query(std::span<const double>(&v, 1));
  }
  EXPECT_EQ(monitor.state(), obs::HealthState::kHealthy);
}

TEST(HealthMonitor, OnRolledBackRelatchesAndRestoresPriorReference) {
  obs::SurrogateHealthMonitor monitor(tight_health_config(),
                                      uniform_column(512, 0.0, 1.0, 5));
  monitor.set_residual_baseline(0.05);
  feed_shadows(monitor, 16, 0.5);
  ASSERT_TRUE(monitor.retrain_requested());
  // A candidate trained on [3, 4) gets promoted...
  monitor.on_retrained(uniform_column(512, 3.0, 4.0, 6));
  ASSERT_EQ(monitor.state(), obs::HealthState::kHealthy);
  // ...then fails inside the guard window and the prior model (reference
  // [0, 1)) is restored.  Without on_rolled_back the monitor would keep
  // scoring the restored model against the candidate's [3, 4) reference.
  monitor.on_rolled_back(uniform_column(512, 0.0, 1.0, 5));
  EXPECT_EQ(monitor.state(), obs::HealthState::kUntrusted);
  EXPECT_TRUE(monitor.retrain_requested());  // the request stands
  EXPECT_EQ(monitor.transitions().back().to, obs::HealthState::kUntrusted);
  // The candidate-era residual baseline must not survive the rollback.
  EXPECT_EQ(monitor.report().baseline_rmse, 0.0);
  EXPECT_EQ(monitor.report().shadow_samples, 0u);

  // A later successful retrain against the prior distribution heals, and
  // the drift reference really is [0, 1) again: in-distribution traffic
  // stays healthy.
  monitor.on_retrained(uniform_column(512, 0.0, 1.0, 7));
  ASSERT_EQ(monitor.state(), obs::HealthState::kHealthy);
  UnitStream stream(29);
  for (std::size_t i = 0; i < 64; ++i) {
    const double v = stream.next();
    monitor.observe_query(std::span<const double>(&v, 1));
  }
  EXPECT_EQ(monitor.state(), obs::HealthState::kHealthy);
}

TEST(HealthMonitor, PublishesGaugesWhenMetricsEnabled) {
  MetricsOn guard;
  obs::MetricsRegistry registry;
  obs::SurrogateHealthMonitor monitor(tight_health_config(),
                                      uniform_column(256, 0.0, 1.0, 5));
  monitor.enable_metrics(registry, "health_test");
  monitor.set_residual_baseline(0.05);
  feed_shadows(monitor, 16, 0.5);
  const obs::MetricsSnapshot snap = registry.snapshot();
  double state_value = -1.0;
  for (const auto& g : snap.gauges) {
    if (g.name == "health_test.state") state_value = g.value;
  }
  EXPECT_EQ(state_value, 2.0);  // UNTRUSTED
  bool found_shadow_counter = false;
  for (const auto& c : snap.counters) {
    if (c.name == "health_test.shadow_samples") {
      found_shadow_counter = true;
      EXPECT_EQ(c.value, 16u);
    }
  }
  EXPECT_TRUE(found_shadow_counter);
}

TEST(HealthMonitor, ExportedMetricsEqualTheReportTheyRead) {
  obs::MetricsRegistry registry;
  obs::SurrogateHealthMonitor monitor(tight_health_config(),
                                      uniform_column(256, 0.0, 1.0, 5));
  monitor.enable_metrics(registry, "h");
  feed_shadows(monitor, 12, 0.05);
  UnitStream stream(31);
  for (std::size_t i = 0; i < 96; ++i) {
    const double v = 2.0 + stream.next();
    monitor.observe_query(std::span<const double>(&v, 1));
  }
  const obs::HealthReport r = monitor.report();
  obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(gauge_in(snap, "h.state"),
            static_cast<double>(static_cast<int>(r.state)));
  EXPECT_EQ(gauge_in(snap, "h.psi_max"), r.drift.max_psi);
  EXPECT_EQ(gauge_in(snap, "h.ks_max"), r.drift.max_ks);
  EXPECT_EQ(gauge_in(snap, "h.residual_rmse"), r.residual_rmse);
  EXPECT_EQ(gauge_in(snap, "h.coverage"), r.coverage);
  EXPECT_EQ(gauge_in(snap, "h.sharpness"), r.sharpness);
  EXPECT_EQ(counter_in(snap, "h.shadow_samples"), r.shadow_samples);
  EXPECT_EQ(counter_in(snap, "h.transitions"), monitor.transitions().size());
  EXPECT_GT(r.drift.max_psi, 0.0);
  // A retrain restarts the report's shadow count; the exported counter is
  // lifetime and never goes down.
  monitor.on_retrained(uniform_column(256, 0.0, 1.0, 6));
  feed_shadows(monitor, 3, 0.05);
  EXPECT_EQ(monitor.report().shadow_samples, 3u);
  snap = registry.snapshot();
  EXPECT_EQ(counter_in(snap, "h.shadow_samples"), 15u);
  EXPECT_EQ(counter_in(snap, "h.transitions"), monitor.transitions().size());
}

// ---------------------------------------------------------------------------
// MetricsRegistry::attach: components export their own books

/// An exporter over counts a test owns.
obs::MetricsExporter counts_exporter(const std::uint64_t& counter,
                                     const double& gauge) {
  return [&counter, &gauge](obs::MetricsSnapshot& out) {
    out.add("c", {{"n", counter}}, {{"g", gauge}});
  };
}

TEST(MetricsSource, SnapshotMergesLiveExportersInAttachOrder) {
  obs::MetricsRegistry registry;
  registry.counter("c.n").add(1);  // the registry's own metric adds too
  std::uint64_t a_n = 3, b_n = 4;
  double a_g = 1.5, b_g = 2.5;
  const obs::MetricsSource a = registry.attach(counts_exporter(a_n, a_g));
  const obs::MetricsSource b = registry.attach(counts_exporter(b_n, b_g));
  obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(counter_in(snap, "c.n"), 8u);
  EXPECT_EQ(gauge_in(snap, "c.g"), 2.5);  // the later attach wins
  a_n = 10;  // a snapshot reads the book as it is now
  b_g = 7.0;
  snap = registry.snapshot();
  EXPECT_EQ(counter_in(snap, "c.n"), 15u);
  EXPECT_EQ(gauge_in(snap, "c.g"), 7.0);
  ASSERT_EQ(snap.counters.size(), 1u);
  ASSERT_EQ(snap.gauges.size(), 1u);
}

TEST(MetricsSource, DetachKeepsCountersAndDropsGauges) {
  obs::MetricsRegistry registry;
  std::uint64_t a_n = 5, b_n = 2;
  double a_g = 1.0, b_g = 9.0;
  obs::MetricsSource b = registry.attach(counts_exporter(b_n, b_g));
  {
    const obs::MetricsSource a = registry.attach(counts_exporter(a_n, a_g));
    EXPECT_EQ(counter_in(registry.snapshot(), "c.n"), 7u);
  }
  obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(counter_in(snap, "c.n"), 7u);  // a's 5 retained
  EXPECT_EQ(gauge_in(snap, "c.g"), 9.0);   // only b's gauge is live
  b.reset();
  snap = registry.snapshot();
  EXPECT_EQ(counter_in(snap, "c.n"), 7u);
  EXPECT_FALSE(gauge_in(snap, "c.g").has_value());
}

TEST(MetricsSource, ResetDropsSourcesAndOutlivingTheRegistryIsSafe) {
  std::uint64_t n = 6;
  double g = 1.0;
  obs::MetricsSource kept;
  {
    obs::MetricsRegistry registry;
    obs::MetricsSource dropped = registry.attach(counts_exporter(n, g));
    registry.reset();  // a forked worker's fresh slate
    EXPECT_FALSE(counter_in(registry.snapshot(), "c.n").has_value());
    dropped.reset();  // detaching a dropped source adds nothing back
    EXPECT_FALSE(counter_in(registry.snapshot(), "c.n").has_value());
    kept = registry.attach(counts_exporter(n, g));
    EXPECT_EQ(counter_in(registry.snapshot(), "c.n"), 6u);
  }
  kept.reset();  // the registry is gone: detaching is a no-op
  EXPECT_EQ(kept, nullptr);
}

TEST(MetricsSource, SnapshotsRaceAttachDetachAndLiveBooks) {
  obs::MetricsRegistry registry;
  std::atomic<std::uint64_t> book{0};
  const obs::MetricsSource source =
      registry.attach([&book](obs::MetricsSnapshot& out) {
        out.add("race", {{"n", book.load()}});
      });
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 2000; ++i) {
      book.fetch_add(1);
      std::uint64_t n = 1;
      double g = 0.0;
      const obs::MetricsSource churn = registry.attach(counts_exporter(n, g));
    }
    stop.store(true);
  });
  std::uint64_t last = 0;
  while (!stop.load()) {
    const obs::MetricsSnapshot snap = registry.snapshot();
    const std::uint64_t n = counter_in(snap, "race.n").value_or(0);
    EXPECT_GE(n, last);  // counters are monotone across snapshots
    last = n;
  }
  writer.join();
  const obs::MetricsSnapshot final_snap = registry.snapshot();
  EXPECT_EQ(counter_in(final_snap, "race.n"), 2000u);
  EXPECT_EQ(counter_in(final_snap, "c.n"), 2000u);  // every churn retained
}

// ---------------------------------------------------------------------------
// Concurrent registry export

TEST(ObsRegistry, SnapshotRacesLiveWritersSafely) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("race.counter");
  obs::Gauge& gauge = registry.gauge("race.gauge");
  obs::Histogram& histogram = registry.histogram("race.histogram");
  std::atomic<bool> stop{false};
  constexpr std::size_t kWriters = 4;
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      UnitStream stream(t + 1);
      for (int i = 0; i < 20000; ++i) {
        counter.add(1);
        gauge.set(static_cast<double>(i));
        histogram.record(1e-6 * (1.0 + stream.next()));
      }
    });
  }
  // Registration of *new* metrics must also be safe against snapshots.
  std::thread registrar([&registry] {
    for (int i = 0; i < 200; ++i) {
      (void)registry.counter("race.extra." + std::to_string(i));
    }
  });
  std::uint64_t last_count = 0;
  std::string last_json;
  while (!stop.load(std::memory_order_relaxed)) {
    const obs::MetricsSnapshot snap = registry.snapshot();
    for (const auto& c : snap.counters) {
      if (c.name == "race.counter") {
        EXPECT_GE(c.value, last_count);  // counters are monotone
        last_count = c.value;
      }
    }
    last_json = obs::to_json(snap);
    if (last_count >= kWriters * 20000) stop.store(true);
  }
  for (auto& w : writers) w.join();
  registrar.join();
  const obs::MetricsSnapshot final_snap = registry.snapshot();
  ASSERT_FALSE(final_snap.counters.empty());
  EXPECT_EQ(final_snap.counters.front().name.rfind("race.", 0), 0u);
  EXPECT_EQ(last_count, kWriters * 20000u);
  EXPECT_TRUE(JsonChecker(last_json).valid());
}

// ---------------------------------------------------------------------------
// MetricsSnapshot::merge — the telemetry-plane aggregation primitive

obs::MetricsSnapshot::HistogramEntry make_hist(
    const std::string& name, std::uint64_t count, double sum, double min,
    double max, std::vector<obs::Histogram::Bucket> buckets) {
  obs::MetricsSnapshot::HistogramEntry h;
  h.name = name;
  h.count = count;
  h.sum = sum;
  h.mean = count == 0 ? 0.0 : sum / static_cast<double>(count);
  h.min = min;
  h.max = max;
  h.buckets = std::move(buckets);
  return h;
}

TEST(SnapshotMerge, EmptySnapshotIsIdentityOnBothSides) {
  obs::MetricsSnapshot base;
  base.counters.push_back({"a", 7});
  base.gauges.push_back({"g", 1.5});
  base.histograms.push_back(make_hist("h", 2, 3.0, 1.0, 2.0, {{0, 1}, {1, 1}}));

  obs::MetricsSnapshot lhs = base;
  lhs.merge(obs::MetricsSnapshot{});  // rhs empty
  EXPECT_EQ(lhs.counters.at(0).value, 7U);
  EXPECT_DOUBLE_EQ(lhs.gauges.at(0).value, 1.5);
  EXPECT_EQ(lhs.histograms.at(0).count, 2U);

  obs::MetricsSnapshot empty;
  empty.merge(base);  // lhs empty
  ASSERT_EQ(empty.counters.size(), 1U);
  EXPECT_EQ(empty.counters.at(0).value, 7U);
  ASSERT_EQ(empty.histograms.size(), 1U);
  EXPECT_EQ(empty.histograms.at(0).count, 2U);
}

TEST(SnapshotMerge, DisjointMetricSetsUnion) {
  obs::MetricsSnapshot a;
  a.counters.push_back({"only.a", 1});
  a.gauges.push_back({"gauge.a", 0.5});
  obs::MetricsSnapshot b;
  b.counters.push_back({"only.b", 2});
  b.histograms.push_back(make_hist("hist.b", 1, 4.0, 4.0, 4.0, {{1, 1}}));

  a.merge(b);
  ASSERT_EQ(a.counters.size(), 2U);
  ASSERT_EQ(a.gauges.size(), 1U);
  ASSERT_EQ(a.histograms.size(), 1U);
  std::uint64_t only_a = 0, only_b = 0;
  for (const auto& c : a.counters) {
    if (c.name == "only.a") only_a = c.value;
    if (c.name == "only.b") only_b = c.value;
  }
  EXPECT_EQ(only_a, 1U);
  EXPECT_EQ(only_b, 2U);
}

TEST(SnapshotMerge, CountersAddAndGaugesLastWriteWins) {
  obs::MetricsSnapshot a;
  a.counters.push_back({"c", 10});
  a.gauges.push_back({"g", 1.0});
  obs::MetricsSnapshot b;
  b.counters.push_back({"c", 32});
  b.gauges.push_back({"g", 9.0});
  a.merge(b);
  EXPECT_EQ(a.counters.at(0).value, 42U);
  // The incoming snapshot is newer: its gauge value wins.
  EXPECT_DOUBLE_EQ(a.gauges.at(0).value, 9.0);
}

TEST(SnapshotMerge, HistogramsCombineComponentwise) {
  obs::MetricsSnapshot a;
  a.histograms.push_back(make_hist("h", 3, 6.0, 1.0, 3.0, {{0, 2}, {1, 1}}));
  obs::MetricsSnapshot b;
  b.histograms.push_back(make_hist("h", 2, 10.0, 0.5, 8.0, {{1, 1}, {2, 1}}));
  a.merge(b);
  ASSERT_EQ(a.histograms.size(), 1U);
  const auto& h = a.histograms.at(0);
  EXPECT_EQ(h.count, 5U);
  EXPECT_DOUBLE_EQ(h.sum, 16.0);
  EXPECT_DOUBLE_EQ(h.mean, 16.0 / 5.0);
  EXPECT_DOUBLE_EQ(h.min, 0.5);  // min of mins
  EXPECT_DOUBLE_EQ(h.max, 8.0);  // max of maxes
  EXPECT_EQ(h.buckets, (std::vector<obs::Histogram::Bucket>{
                           {0, 2}, {1, 2}, {2, 1}}));
}

TEST(SnapshotMerge, BucketLayoutMismatchIsTypedError) {
  // A bucket index past this build's layout: the sender's layout differs.
  const auto out_of_range =
      static_cast<std::uint32_t>(obs::Histogram::kBucketCount);
  obs::MetricsSnapshot a;
  a.histograms.push_back(make_hist("h", 1, 1.0, 1.0, 1.0, {{0, 1}}));
  obs::MetricsSnapshot b;
  b.histograms.push_back(
      make_hist("h", 1, 1.0, 1.0, 1.0, {{out_of_range, 1}}));
  EXPECT_THROW(a.merge(b), obs::SnapshotMergeError);
  obs::MetricsSnapshot empty;  // a new name is checked as well
  EXPECT_THROW(empty.merge(b), obs::SnapshotMergeError);
}

TEST(SnapshotMerge, MatchesLiveRegistriesMergedByHand) {
  // Two registries standing in for two processes; merging their snapshots
  // must agree with recording everything into one registry.
  obs::MetricsRegistry r1, r2, combined;
  r1.counter("n").add(3);
  r2.counter("n").add(4);
  combined.counter("n").add(7);
  for (const double v : {1e-6, 5e-5, 2e-3}) {
    r1.histogram("lat").record(v);
    combined.histogram("lat").record(v);
  }
  for (const double v : {3e-4, 0.1}) {
    r2.histogram("lat").record(v);
    combined.histogram("lat").record(v);
  }
  obs::MetricsSnapshot merged = r1.snapshot();
  merged.merge(r2.snapshot());
  const obs::MetricsSnapshot expect = combined.snapshot();
  EXPECT_EQ(merged.counters.at(0).value, expect.counters.at(0).value);
  ASSERT_EQ(merged.histograms.size(), 1U);
  EXPECT_EQ(merged.histograms.at(0).count, expect.histograms.at(0).count);
  EXPECT_DOUBLE_EQ(merged.histograms.at(0).sum, expect.histograms.at(0).sum);
  EXPECT_EQ(merged.histograms.at(0).buckets, expect.histograms.at(0).buckets);
  // The fleet quantiles are exactly those of the combined registry.
  EXPECT_EQ(merged.histograms.at(0).min, expect.histograms.at(0).min);
  EXPECT_EQ(merged.histograms.at(0).max, expect.histograms.at(0).max);
  EXPECT_EQ(merged.histograms.at(0).p50, expect.histograms.at(0).p50);
  EXPECT_EQ(merged.histograms.at(0).p95, expect.histograms.at(0).p95);
  EXPECT_EQ(merged.histograms.at(0).p99, expect.histograms.at(0).p99);
}

TEST(SnapshotMerge, HistogramMergeIsAssociative) {
  obs::MetricsRegistry ra, rb, rc;
  const char* shapes[] = {"lognormal", "pareto", "bimodal"};
  obs::MetricsRegistry* regs[] = {&ra, &rb, &rc};
  for (std::size_t i = 0; i < 3; ++i) {
    for (const double v : latency_stream(shapes[i], 5000, 20 + i)) {
      regs[i]->histogram("lat").record(v);
    }
  }
  obs::MetricsSnapshot left = ra.snapshot();  // (a + b) + c
  left.merge(rb.snapshot());
  left.merge(rc.snapshot());
  obs::MetricsSnapshot bc = rb.snapshot();  // a + (b + c)
  bc.merge(rc.snapshot());
  obs::MetricsSnapshot right = ra.snapshot();
  right.merge(bc);
  const auto& l = left.histograms.at(0);
  const auto& r = right.histograms.at(0);
  // Everything derived from buckets/min/max is bit-identical; the sum is a
  // floating-point addition, associative only to rounding.
  EXPECT_EQ(l.count, r.count);
  EXPECT_EQ(l.buckets, r.buckets);
  EXPECT_EQ(l.min, r.min);
  EXPECT_EQ(l.max, r.max);
  EXPECT_EQ(l.p50, r.p50);
  EXPECT_EQ(l.p95, r.p95);
  EXPECT_EQ(l.p99, r.p99);
  EXPECT_DOUBLE_EQ(l.sum, r.sum);
  EXPECT_DOUBLE_EQ(l.mean, r.mean);
}

TEST(ObsPrometheus, ExposesCountersGaugesAndSummaries) {
  obs::MetricsRegistry registry;
  registry.counter("serve.requests").add(5);
  registry.gauge("net.shard0.s_eff").set(2.5);
  registry.histogram("query.latency").record(1e-3);
  const std::string text = obs::to_prometheus(registry.snapshot());
  // Names sanitized to [a-zA-Z0-9_:] under the le_ prefix; counters get
  // _total; histograms expose quantile series plus _sum/_count.
  EXPECT_NE(text.find("# TYPE le_serve_requests_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("le_serve_requests_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE le_net_shard0_s_eff gauge"), std::string::npos);
  EXPECT_NE(text.find("le_net_shard0_s_eff 2.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE le_query_latency_seconds summary"),
            std::string::npos);
  EXPECT_NE(text.find("le_query_latency_seconds{quantile=\"0.95\"}"),
            std::string::npos);
  EXPECT_NE(text.find("le_query_latency_seconds_count 1"), std::string::npos);
  // Locale-proof: never a ',' decimal separator.
  EXPECT_EQ(text.find("2,5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SloTracker — multi-window burn-rate alerting

obs::SloConfig small_slo() {
  obs::SloConfig config;
  config.objective = 0.9;  // 10% error budget
  config.fast_window = 8;
  config.slow_window = 32;
  config.fast_burn = 5.0;
  config.slow_burn = 3.0;
  config.resolve_burn = 1.0;
  return config;
}

TEST(SloTracker, RejectsInvalidConfig) {
  obs::SloConfig bad = small_slo();
  bad.objective = 1.0;
  EXPECT_THROW(obs::SloTracker{bad}, std::invalid_argument);
  bad = small_slo();
  bad.fast_window = 0;
  EXPECT_THROW(obs::SloTracker{bad}, std::invalid_argument);
  bad = small_slo();
  bad.fast_window = 64;  // fast must not exceed slow
  EXPECT_THROW(obs::SloTracker{bad}, std::invalid_argument);
  bad = small_slo();
  bad.fast_burn = 0.0;
  EXPECT_THROW(obs::SloTracker{bad}, std::invalid_argument);
}

TEST(SloTracker, NoAlertBeforeTheFastWindowFills) {
  obs::SloTracker tracker(small_slo());
  // 7 straight failures: catastrophic burn, but the fast window has not
  // seen a full window's worth of evidence yet — no page on a cold start.
  for (int i = 0; i < 7; ++i) tracker.record(false);
  EXPECT_FALSE(tracker.stats().firing);
  EXPECT_EQ(tracker.stats().alerts_fired, 0U);
}

TEST(SloTracker, FiresOnSustainedBurnThenResolvesOnRecovery) {
  obs::SloTracker tracker(small_slo());
  // All-bad traffic: bad_fraction 1.0 over a 10% budget = burn rate 10,
  // above both thresholds once the fast window is full.
  for (int i = 0; i < 8; ++i) tracker.record(false);
  EXPECT_TRUE(tracker.stats().firing);
  EXPECT_DOUBLE_EQ(tracker.stats().fast_burn_rate, 10.0);
  EXPECT_EQ(tracker.stats().alerts_fired, 1U);

  // Sustained good traffic drains both windows below resolve_burn.
  for (int i = 0; i < 40; ++i) tracker.record(true);
  EXPECT_FALSE(tracker.stats().firing);
  EXPECT_EQ(tracker.stats().alerts_resolved, 1U);
  EXPECT_DOUBLE_EQ(tracker.stats().fast_burn_rate, 0.0);
}

TEST(SloTracker, SingleBlipDoesNotPage) {
  obs::SloTracker tracker(small_slo());
  // One failure in otherwise healthy traffic: fast burn 1/8 / 0.1 = 1.25,
  // far below the page threshold.
  for (int i = 0; i < 32; ++i) tracker.record(i != 10);
  EXPECT_FALSE(tracker.stats().firing);
  EXPECT_EQ(tracker.stats().alerts_fired, 0U);
  EXPECT_EQ(tracker.stats().bad_events, 1U);
}

TEST(SloTracker, CallbackSeesFireAndResolveTransitions) {
  obs::SloTracker tracker(small_slo());
  std::vector<obs::SloAlert> alerts;
  tracker.set_alert_callback(
      [&alerts](const obs::SloAlert& a) { alerts.push_back(a); });
  for (int i = 0; i < 8; ++i) tracker.record(false);
  for (int i = 0; i < 40; ++i) tracker.record(true);
  ASSERT_EQ(alerts.size(), 2U);
  EXPECT_TRUE(alerts[0].firing);
  EXPECT_GE(alerts[0].fast_burn_rate, 5.0);
  EXPECT_GE(alerts[0].slow_burn_rate, 3.0);
  EXPECT_EQ(alerts[0].bad_events, 8U);
  EXPECT_FALSE(alerts[1].firing);
  // A transition fires exactly once, not once per bad sample.
  EXPECT_EQ(tracker.stats().alerts_fired, 1U);
}

TEST(SloTracker, PublishesMetricsWhenEnabled) {
  MetricsOn guard;
  obs::MetricsRegistry registry;
  obs::SloTracker tracker(small_slo());
  tracker.enable_metrics(registry, "slo.deadline");
  for (int i = 0; i < 8; ++i) tracker.record(false);
  const obs::MetricsSnapshot snap = registry.snapshot();
  double firing = 0.0, fast = 0.0;
  for (const auto& g : snap.gauges) {
    if (g.name == "slo.deadline.firing") firing = g.value;
    if (g.name == "slo.deadline.burn_fast") fast = g.value;
  }
  EXPECT_DOUBLE_EQ(firing, 1.0);
  EXPECT_DOUBLE_EQ(fast, 10.0);
  std::uint64_t fired = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "slo.deadline.alerts_fired") fired = c.value;
  }
  EXPECT_EQ(fired, 1U);
}

TEST(SloTracker, ExportedMetricsEqualTheStatsTheyRead) {
  obs::MetricsRegistry registry;
  obs::SloTracker tracker(small_slo());
  tracker.enable_metrics(registry, "slo.t");
  UnitStream stream(41);
  for (int i = 0; i < 400; ++i) tracker.record(stream.next() > 0.3);
  const obs::SloStats s = tracker.stats();
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(counter_in(snap, "slo.t.bad_events"), s.bad_events);
  EXPECT_EQ(counter_in(snap, "slo.t.alerts_fired"), s.alerts_fired);
  EXPECT_EQ(counter_in(snap, "slo.t.alerts_resolved"), s.alerts_resolved);
  EXPECT_EQ(gauge_in(snap, "slo.t.burn_fast"), s.fast_burn_rate);
  EXPECT_EQ(gauge_in(snap, "slo.t.burn_slow"), s.slow_burn_rate);
  EXPECT_EQ(gauge_in(snap, "slo.t.firing"), s.firing ? 1.0 : 0.0);
  EXPECT_GT(s.bad_events, 0u);
}

// ---------------------------------------------------------------------------
// FlightRecorder — the crash black box

TEST(FlightRecorder, UnconfiguredRecorderIsANoop) {
  obs::FlightRecorder recorder;
  EXPECT_FALSE(recorder.enabled());
  recorder.record("ignored");  // must not crash
  EXPECT_FALSE(recorder.dump());
  EXPECT_TRUE(recorder.events().empty());
}

TEST(FlightRecorder, RecordDumpReadRoundTrip) {
  const std::string path = testing::TempDir() + "le_obs_flight_rt.bin";
  obs::FlightRecorder recorder;
  recorder.configure(path, 16);
  recorder.record("worker_start", 1, 0);
  recorder.record("query", 42, 3);
  recorder.record(
      "a-label-much-longer-than-the-thirty-one-byte-slot-limit", 7, 8);
  ASSERT_TRUE(recorder.dump());

  const obs::FlightDump dump = obs::read_flight_dump(path);
  EXPECT_EQ(dump.pid, static_cast<std::uint32_t>(::getpid()));
  ASSERT_EQ(dump.events.size(), 3U);
  EXPECT_STREQ(dump.events[0].name, "worker_start");
  EXPECT_EQ(dump.events[1].a, 42U);
  EXPECT_EQ(dump.events[1].b, 3U);
  EXPECT_EQ(dump.events[0].pid, dump.pid);
  // Long labels truncate to 31 chars + NUL, never overflow.
  EXPECT_EQ(std::string(dump.events[2].name).size(),
            obs::FlightEvent::kNameBytes - 1);
  // Timestamps are monotone on the process clock.
  EXPECT_LE(dump.events[0].t_seconds, dump.events[1].t_seconds);
  std::remove(path.c_str());
}

TEST(FlightRecorder, RingWrapKeepsTheNewestEvents) {
  const std::string path = testing::TempDir() + "le_obs_flight_wrap.bin";
  obs::FlightRecorder recorder;
  recorder.configure(path, 4);
  for (int i = 0; i < 10; ++i) {
    recorder.record("e", static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(recorder.recorded(), 10U);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 4U);  // capacity bound
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].a, 6U + i);  // oldest-first tail of the stream
  }
  ASSERT_TRUE(recorder.dump());
  EXPECT_EQ(obs::read_flight_dump(path).events.size(), 4U);
  std::remove(path.c_str());
}

TEST(FlightRecorder, CorruptDumpsAreTypedErrors) {
  const std::string path = testing::TempDir() + "le_obs_flight_bad.bin";
  obs::FlightRecorder recorder;
  recorder.configure(path, 4);
  recorder.record("x");
  ASSERT_TRUE(recorder.dump());

  const auto read_bytes = [&path]() {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const auto write_bytes = [&path](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const std::string good = read_bytes();

  EXPECT_THROW((void)obs::read_flight_dump(path + ".does-not-exist"),
               obs::FlightDumpError);

  std::string bad = good;
  bad[0] ^= 0x5A;  // magic
  write_bytes(bad);
  EXPECT_THROW((void)obs::read_flight_dump(path), obs::FlightDumpError);

  bad = good;
  bad[4] = 9;  // version skew, checked before the CRC
  write_bytes(bad);
  EXPECT_THROW((void)obs::read_flight_dump(path), obs::FlightDumpError);

  write_bytes(good.substr(0, good.size() - 7));  // truncated mid-body
  EXPECT_THROW((void)obs::read_flight_dump(path), obs::FlightDumpError);

  bad = good;
  bad[good.size() / 2] ^= 0x01;  // flipped payload bit -> CRC mismatch
  write_bytes(bad);
  EXPECT_THROW((void)obs::read_flight_dump(path), obs::FlightDumpError);

  write_bytes(good);  // the pristine bytes still parse
  EXPECT_EQ(obs::read_flight_dump(path).events.size(), 1U);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Codec — the one frame and payload codec under le-net, le-ckpt and le-frec

TEST(Codec, FrameDecodeChecksMagicThenVersionThenLengthThenCrc) {
  constexpr obs::FrameFormat kFormat{"test", 0x54534554U, 5, 64};
  const std::string good = obs::encode_frame(kFormat, 9, "payload");
  ASSERT_EQ(good.size(), obs::kFrameHeaderBytes + 7);
  EXPECT_EQ(obs::decode_frame(good, kFormat, 9), "payload");
  EXPECT_THROW((void)obs::decode_frame(good, kFormat, 8), obs::CodecError);

  // Every header field broken at once: magic is reported first.
  std::string bad = good;
  bad[0] ^= 1;
  bad[4] = 6;
  bad[good.size() - 1] ^= 1;
  EXPECT_THROW((void)obs::decode_frame(bad, kFormat, 9), obs::CodecError);
  try {
    (void)obs::decode_frame(bad, kFormat, 9);
  } catch (const obs::VersionSkewError&) {
    ADD_FAILURE() << "version checked before magic";
  } catch (const obs::CodecError&) {
  }
  bad[0] ^= 1;  // magic fixed: now the skew is what fails
  EXPECT_THROW((void)obs::decode_frame(bad, kFormat, 9), obs::VersionSkewError);
  bad[4] = 5;  // version fixed: the CRC catches the flipped payload byte
  EXPECT_THROW((void)obs::decode_frame(bad, kFormat, 9), obs::CodecError);

  // Length beyond the format maximum, shorter or longer than present.
  EXPECT_THROW((void)obs::encode_frame(kFormat, 1, std::string(65, 'x')),
               obs::CodecError);
  EXPECT_THROW((void)obs::decode_frame(good.substr(0, good.size() - 1),
                                       kFormat, 9),
               obs::CodecError);
  EXPECT_THROW((void)obs::decode_frame(good + "x", kFormat, 9),
               obs::CodecError);
  EXPECT_THROW((void)obs::decode_frame(good.substr(0, 15), kFormat, 9),
               obs::CodecError);
}

TEST(Codec, CountsAreCheckedBeforeAnythingIsAllocated) {
  obs::ByteWriter w;
  w.put_u32(0xFFFFFFFFU);  // claims 4 G elements, none follow
  obs::ByteReader r(w.bytes());
  EXPECT_THROW((void)r.f64_vec(), obs::CodecError);
  obs::ByteReader strings(w.bytes());
  EXPECT_THROW((void)strings.string(), obs::CodecError);

  obs::ByteWriter ok;
  ok.put_string("name");
  ok.put_f64_vec(std::vector<double>{-0.0, 2.5});
  obs::ByteReader back(ok.bytes());
  EXPECT_EQ(back.string(), "name");
  const std::vector<double> v = back.f64_vec();
  EXPECT_TRUE(std::signbit(v.at(0)));
  EXPECT_EQ(v.at(1), 2.5);
  back.expect_end();
}

/// `le-frec-v2` bytes built by hand, independently of the codec: the
/// 16-byte frame header ("LEFR", version 2, type 1, payload length,
/// payload CRC) then u32 pid | u32 count | 64-byte events.
std::string frec_payload(std::uint32_t pid,
                         const std::vector<obs::FlightEvent>& events) {
  std::string out;
  const auto le = [&out](std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
  };
  le(pid, 4);
  le(events.size(), 4);
  for (const obs::FlightEvent& e : events) {
    le(std::bit_cast<std::uint64_t>(e.t_seconds), 8);
    le(e.a, 8);
    le(e.b, 8);
    le(e.pid, 4);
    le(e.thread, 4);
    out.append(e.name, obs::FlightEvent::kNameBytes);
  }
  return out;
}

std::string frec_header(std::uint32_t payload_len, std::uint32_t crc) {
  std::string out = "LEFR";
  out += std::string("\x02\x00\x01\x00", 4);
  for (const std::uint32_t v : {payload_len, crc}) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
  }
  return out;
}

std::string read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

obs::FlightEvent flight_event(double t, std::uint64_t a, std::uint64_t b,
                              std::uint32_t pid, std::uint32_t thread,
                              const char* name) {
  obs::FlightEvent e;
  e.t_seconds = t;
  e.a = a;
  e.b = b;
  e.pid = pid;
  e.thread = thread;
  std::strncpy(e.name, name, obs::FlightEvent::kNameBytes - 1);
  return e;
}

TEST(FlightRecorder, DumpLayoutKnownAnswer) {
  // Pinned bytes for one fixed event set: header fields and CRC.
  const std::vector<obs::FlightEvent> events{
      flight_event(1.5, 0x1122334455667788ULL, 7, 4242, 1, "worker_start"),
      flight_event(2.25, 42, 3, 4242, 2, "query")};
  const std::string payload = frec_payload(4242, events);
  ASSERT_EQ(payload.size(), 8U + 2 * 64);
  EXPECT_EQ(obs::crc32(payload), 0x1950B301U);
  const unsigned char header[16] = {'L',  'E',  'F',  'R',  0x02, 0x00,
                                    0x01, 0x00, 0x88, 0x00, 0x00, 0x00,
                                    0x01, 0xB3, 0x50, 0x19};
  EXPECT_EQ(frec_header(136, 0x1950B301U),
            std::string(reinterpret_cast<const char*>(header), 16));

  // Per-process name: the plain and sanitized binaries run in parallel.
  const std::string path = testing::TempDir() + "le_obs_flight_kat." +
                           std::to_string(::getpid()) + ".bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << frec_header(136, 0x1950B301U) << payload;
  }
  const obs::FlightDump dump = obs::read_flight_dump(path);
  EXPECT_EQ(dump.pid, 4242U);
  ASSERT_EQ(dump.events.size(), 2U);
  EXPECT_EQ(dump.events[0].t_seconds, 1.5);
  EXPECT_EQ(dump.events[0].a, 0x1122334455667788ULL);
  EXPECT_EQ(dump.events[0].thread, 1U);
  EXPECT_STREQ(dump.events[0].name, "worker_start");
  EXPECT_EQ(dump.events[1].b, 3U);
  EXPECT_STREQ(dump.events[1].name, "query");

  // The writer emits exactly this layout for what its ring holds.
  obs::FlightRecorder recorder;
  recorder.configure(path, 8);
  recorder.record("worker_start", 1, 0);
  recorder.record("query", 42, 3);
  ASSERT_TRUE(recorder.dump());
  const std::string live =
      frec_payload(static_cast<std::uint32_t>(::getpid()), recorder.events());
  EXPECT_EQ(read_whole_file(path),
            frec_header(static_cast<std::uint32_t>(live.size()),
                        obs::crc32(live)) +
                live);
  std::remove(path.c_str());
}

TEST(FlightRecorder, MutationFuzzDecodesOrThrowsFlightDumpError) {
  const std::string path = testing::TempDir() + "le_obs_flight_fuzz." +
                           std::to_string(::getpid()) + ".bin";
  obs::FlightRecorder recorder;
  recorder.configure(path, 16);
  for (std::uint64_t i = 0; i < 6; ++i) recorder.record("event", i, i * i);
  ASSERT_TRUE(recorder.dump());
  const std::string good = read_whole_file(path);
  const obs::FlightDump original = obs::read_flight_dump(path);

  testing_support::ByteMutator mutator(0x5EED5EED5EEDULL);
  constexpr int kCases = 10000;
  int decoded = 0;
  int rejected = 0;
  for (int c = 0; c < kCases; ++c) {
    {
      const std::string bytes = mutator.mutate(good, c);
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
      const obs::FlightDump got = obs::read_flight_dump(path);
      // The CRC admits only the original events.
      EXPECT_EQ(got.pid, original.pid) << "case " << c;
      EXPECT_EQ(got.events.size(), original.events.size()) << "case " << c;
      ++decoded;
    } catch (const obs::FlightDumpError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << c << " threw a non-FlightDumpError: "
                    << e.what();
    }
  }
  EXPECT_EQ(decoded + rejected, kCases);
  EXPECT_GT(rejected, 0);
  std::remove(path.c_str());
}

TEST(FlightRecorder, SpanHookFeedsTheGlobalRecorder) {
  const std::string path = testing::TempDir() + "le_obs_flight_hook.bin";
  obs::FlightRecorder::global().configure(path, 32);
  obs::set_flight_span_hook_enabled(true);
  obs::set_tracing_enabled(true);
  { const obs::TraceSpan span("hooked"); }
  obs::set_tracing_enabled(false);
  obs::set_flight_span_hook_enabled(false);

  bool found = false;
  for (const auto& e : obs::FlightRecorder::global().events()) {
    if (std::string(e.name) == "span:hooked") {
      found = true;
      EXPECT_NE(e.a, 0U);  // span_id rides in payload word A
    }
  }
  EXPECT_TRUE(found);
  obs::TraceLog::global().clear();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// TraceContext — causal identity across process boundaries

/// Flips tracing on for one test, restoring the previous state (and
/// clearing whatever the test logged) after.
class TracingOn {
 public:
  TracingOn() : previous_(obs::tracing_enabled()) {
    obs::TraceLog::global().clear();
    obs::set_tracing_enabled(true);
  }
  ~TracingOn() {
    obs::set_tracing_enabled(previous_);
    obs::TraceLog::global().clear();
  }

 private:
  bool previous_;
};

TEST(TraceContext, FreshRootSpanStartsItsOwnTrace) {
  TracingOn guard;
  obs::TraceContext ctx;
  {
    const obs::TraceSpan span("root");
    ctx = span.context();
  }
  EXPECT_TRUE(ctx.valid());
  EXPECT_EQ(ctx.trace_id, ctx.span_id);  // a root names its own trace
  EXPECT_EQ(ctx.parent_span_id, 0U);
  // Fleet-unique ids: the upper 32 bits carry the allocating pid.
  EXPECT_EQ(ctx.span_id >> 32, static_cast<std::uint64_t>(::getpid()));
}

TEST(TraceContext, NestedSpansParentUnderTheEnclosingSpan) {
  TracingOn guard;
  {
    const obs::TraceSpan outer("outer");
    const obs::TraceContext outer_ctx = outer.context();
    const obs::TraceSpan inner("inner");
    const obs::TraceContext inner_ctx = inner.context();
    EXPECT_EQ(inner_ctx.trace_id, outer_ctx.trace_id);
    EXPECT_EQ(inner_ctx.parent_span_id, outer_ctx.span_id);
    EXPECT_NE(inner_ctx.span_id, outer_ctx.span_id);
  }
  const auto spans = obs::TraceLog::global().snapshot();
  ASSERT_EQ(spans.size(), 2U);
  for (const auto& s : spans) {
    EXPECT_EQ(s.pid, static_cast<std::uint32_t>(::getpid()));
  }
}

TEST(TraceContext, ScopeAdoptsARemoteParent) {
  TracingOn guard;
  // What a worker does with the context it decodes off the wire.
  obs::TraceContext remote;
  remote.trace_id = 0xAAAA000000000001ULL;
  remote.span_id = 0xBBBB000000000002ULL;
  {
    const obs::TraceContextScope scope(remote);
    const obs::TraceSpan span("worker_side");
    const obs::TraceContext ctx = span.context();
    EXPECT_EQ(ctx.trace_id, remote.trace_id);
    EXPECT_EQ(ctx.parent_span_id, remote.span_id);
  }
  // The adoption is scoped: after destruction new spans are fresh roots.
  {
    const obs::TraceSpan span("after");
    EXPECT_EQ(span.context().parent_span_id, 0U);
  }
}

TEST(TraceContext, InvalidRemoteContextAdoptsNothing) {
  TracingOn guard;
  const obs::TraceContext zeros;  // zeroed wire fields = untraced request
  const obs::TraceContextScope scope(zeros);
  const obs::TraceSpan span("untraced_parent");
  EXPECT_EQ(span.context().parent_span_id, 0U);
  EXPECT_EQ(span.context().trace_id, span.context().span_id);
}

TEST(TraceContext, DrainDeliversEachSpanExactlyOnce) {
  TracingOn guard;
  { const obs::TraceSpan span("once"); }
  const auto first = obs::TraceLog::global().drain();
  EXPECT_EQ(first.size(), 1U);
  EXPECT_TRUE(obs::TraceLog::global().drain().empty());
}

TEST(ChromeTrace, CarriesProcessMetadataAndHexContextIds) {
  obs::SpanRecord router;
  router.name = "net.query_batch";
  router.pid = 100;
  router.trace_id = 0xDEADBEEFULL;
  router.span_id = 0xDEADBEEFULL;
  obs::SpanRecord worker;
  worker.name = "net.worker_query";
  worker.pid = 200;
  worker.start_seconds = 0.001;
  worker.seconds = 0.0005;
  worker.trace_id = 0xDEADBEEFULL;
  worker.span_id = 0xC0FFEEULL;
  worker.parent_span_id = 0xDEADBEEFULL;

  const std::string json = obs::to_chrome_trace(
      obs::merge_process_spans({{router}, {worker}}),
      {{100, "router"}, {200, "shard-0"}});
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"router\""), std::string::npos);
  EXPECT_NE(json.find("\"shard-0\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":100"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":200"), std::string::npos);
  // Context ids export as hex strings (u64 would not survive JSON doubles).
  EXPECT_NE(json.find("\"0xdeadbeef\""), std::string::npos);
  EXPECT_NE(json.find("\"parent_span_id\":\"0xdeadbeef\""),
            std::string::npos);
}

TEST(ChromeTrace, MergeProcessSpansOrdersByStartAndKeepsPids) {
  obs::SpanRecord early, late;
  early.name = "early";
  early.pid = 2;
  early.start_seconds = 0.001;
  late.name = "late";
  late.pid = 1;
  late.start_seconds = 0.002;
  const auto merged = obs::merge_process_spans({{late}, {early}, {}});
  ASSERT_EQ(merged.size(), 2U);
  EXPECT_EQ(merged[0].name, "early");
  EXPECT_EQ(merged[0].pid, 2U);
  EXPECT_EQ(merged[1].name, "late");
}

}  // namespace
