// Tests for the serving layer (src/serve): the learned-lookup cache and
// the request-coalescing batch queue.  This TU deliberately depends only
// on le::serve + le::tensor + le::obs so the _tsan variant can recompile
// the serve sources with ThreadSanitizer (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <future>
#include <limits>
#include <list>
#include <map>
#include <mutex>
#include <numeric>
#include <new>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "le/obs/metrics.hpp"
#include "le/obs/slo.hpp"
#include "le/serve/admission.hpp"
#include "le/serve/batch_queue.hpp"
#include "le/serve/degradation.hpp"
#include "le/serve/load_gen.hpp"
#include "le/serve/lookup_cache.hpp"
#include "le/serve/overload.hpp"
#include "le/tensor/matrix.hpp"
#include "snapshot_lookup.hpp"

// Global allocation counter for the cache's zero-allocation test: the
// replaced operator new counts calls only while g_count_allocations is set.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
// Out of line so the compiler does not pair an inlined free() with the
// new-expression that allocated the pointer (-Wmismatched-new-delete).
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace {

using le::serve::BatchForwardFn;
using le::testing_support::counter_in;
using le::testing_support::gauge_in;
using le::serve::BatchQueue;
using le::serve::BatchQueueConfig;
using le::serve::BatchQueueStats;
using le::serve::CachedAnswer;
using le::serve::LookupCache;
using le::serve::LookupCacheConfig;
using le::serve::ShedAwareForwardFn;

// ---------------------------------------------------------------------------
// LookupCache
// ---------------------------------------------------------------------------

LookupCacheConfig small_cache(std::size_t capacity, std::size_t shards,
                              double resolution) {
  LookupCacheConfig config;
  config.capacity = capacity;
  config.shards = shards;
  config.resolution = resolution;
  return config;
}

TEST(LookupCache, MissThenHitRoundTrip) {
  LookupCache cache(small_cache(8, 2, 1e-12));
  const std::vector<double> input{1.0, 2.0, 3.0};

  EXPECT_FALSE(cache.find(input).has_value());
  cache.insert(input, {{4.0, 5.0}, 0.25});

  const auto hit = cache.find(input);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->values, (std::vector<double>{4.0, 5.0}));
  EXPECT_DOUBLE_EQ(hit->uncertainty, 0.25);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(LookupCache, QuantizationCollisionSharesOneEntry) {
  // At resolution 0.1, inputs agreeing to the nearest tenth share a key:
  // 0.52 and 0.54 both quantize to 5, 0.56 rounds to 6.
  LookupCache cache(small_cache(8, 1, 0.1));
  cache.insert(std::vector<double>{0.52}, {{1.0}, 0.0});

  const auto collide = cache.find(std::vector<double>{0.54});
  ASSERT_TRUE(collide.has_value());
  EXPECT_EQ(collide->values, std::vector<double>{1.0});

  EXPECT_FALSE(cache.find(std::vector<double>{0.56}).has_value());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LookupCache, QuantizeSaturatesAtInt64Extremes) {
  const auto key =
      LookupCache::quantize(std::vector<double>{1e300, -1e300, 0.0}, 1e-6);
  EXPECT_EQ(key[0], std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(key[1], std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(key[2], 0);
}

TEST(LookupCache, NonFiniteInputsAreUncacheable) {
  LookupCache cache(small_cache(8, 2, 1e-12));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  cache.insert(std::vector<double>{nan}, {{1.0}, 0.0});
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.find(std::vector<double>{nan}).has_value());
  EXPECT_FALSE(cache.find(std::vector<double>{inf}).has_value());
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(LookupCache, LruEvictionDropsLeastRecentlyUsed) {
  // One shard, capacity 3.  Insert a,b,c; touching a promotes it, so the
  // next insert must evict b (the least recently used), not a.
  LookupCache cache(small_cache(3, 1, 1e-12));
  const std::vector<double> a{1.0}, b{2.0}, c{3.0}, d{4.0};
  cache.insert(a, {{10.0}, 0.0});
  cache.insert(b, {{20.0}, 0.0});
  cache.insert(c, {{30.0}, 0.0});

  ASSERT_TRUE(cache.find(a).has_value());  // refresh a's LRU position
  cache.insert(d, {{40.0}, 0.0});

  EXPECT_TRUE(cache.find(a).has_value());
  EXPECT_FALSE(cache.find(b).has_value());
  EXPECT_TRUE(cache.find(c).has_value());
  EXPECT_TRUE(cache.find(d).has_value());
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(LookupCache, ReinsertRefreshesValueWithoutGrowth) {
  LookupCache cache(small_cache(4, 1, 1e-12));
  const std::vector<double> input{7.0};
  cache.insert(input, {{1.0}, 0.5});
  cache.insert(input, {{2.0}, 0.1});

  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.find(input);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->values, std::vector<double>{2.0});
  EXPECT_DOUBLE_EQ(hit->uncertainty, 0.1);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(LookupCache, CapacityBoundHoldsUnderChurn) {
  // ceil(16/4) = 4 entries per shard, so at most 16 live entries no
  // matter how many distinct keys stream through.
  LookupCache cache(small_cache(16, 4, 1e-12));
  for (int i = 0; i < 200; ++i) {
    cache.insert(std::vector<double>{static_cast<double>(i)},
                 {{static_cast<double>(i)}, 0.0});
  }
  const auto stats = cache.stats();
  EXPECT_LE(stats.entries, 16u);
  EXPECT_EQ(stats.insertions, 200u);
  EXPECT_EQ(stats.evictions, stats.insertions - stats.entries);
}

TEST(LookupCache, ClearEmptiesEveryShard) {
  LookupCache cache(small_cache(32, 4, 1e-12));
  for (int i = 0; i < 10; ++i) {
    cache.insert(std::vector<double>{static_cast<double>(i)}, {{1.0}, 0.0});
  }
  ASSERT_EQ(cache.size(), 10u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.find(std::vector<double>{3.0}).has_value());
}

TEST(LookupCache, ConstructorRejectsDegenerateConfigs) {
  EXPECT_THROW(LookupCache(small_cache(0, 1, 1e-12)), std::invalid_argument);
  EXPECT_THROW(LookupCache(small_cache(1, 0, 1e-12)), std::invalid_argument);
  EXPECT_THROW(LookupCache(small_cache(1, 1, 0.0)), std::invalid_argument);
  EXPECT_THROW(LookupCache(small_cache(1, 1, -1.0)), std::invalid_argument);
  EXPECT_THROW(
      LookupCache(small_cache(1, 1, std::numeric_limits<double>::infinity())),
      std::invalid_argument);
}

TEST(LookupCache, MetricsMirrorStats) {
  le::obs::MetricsRegistry registry;
  LookupCache cache(small_cache(8, 2, 1e-12));
  cache.enable_metrics(registry, "test.cache");

  cache.insert(std::vector<double>{1.0}, {{1.0}, 0.0});
  (void)cache.find(std::vector<double>{1.0});
  (void)cache.find(std::vector<double>{2.0});

  const le::obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(counter_in(snap, "test.cache.hits"), 1u);
  EXPECT_EQ(counter_in(snap, "test.cache.misses"), 1u);
  EXPECT_EQ(counter_in(snap, "test.cache.insertions"), 1u);
  EXPECT_DOUBLE_EQ(gauge_in(snap, "test.cache.entries").value(), 1.0);
}

TEST(LookupCache, StripedShardsSurviveConcurrentMixedTraffic) {
  // Hammer a small overlapping key range from several threads mixing
  // finds and inserts.  Run under the _tsan variant this is the striped-
  // locking race check; in the plain tier it still verifies the stats
  // stay coherent under contention.
  LookupCache cache(small_cache(32, 4, 1e-12));
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::vector<double> input{static_cast<double>((i + t) % 48)};
        if (i % 3 == 0) {
          cache.insert(input, {{input[0] * 2.0}, 0.0});
        } else if (auto hit = cache.find(input)) {
          // A hit must carry the value some thread inserted for the key.
          EXPECT_DOUBLE_EQ(hit->values[0], input[0] * 2.0);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();

  const auto stats = cache.stats();
  EXPECT_LE(stats.entries, 32u);
  // Each thread issues a find for every op where i % 3 != 0.
  const std::uint64_t finds_per_thread =
      kOpsPerThread - (kOpsPerThread + 2) / 3;
  EXPECT_EQ(stats.hits + stats.misses, kThreads * finds_per_thread);
  // insertions counts same-key refreshes too, so only the inequality
  // holds here (the distinct-key identity is covered by the churn test).
  EXPECT_LE(stats.evictions, stats.insertions);
}

// A test-only reference for the LookupCache contract, built the obvious
// way: per shard, one std::list LRU (front = most recent) plus a std::map
// index, with the same shard pick (LookupCache::shard_for) and the same
// width rule (the shard's first insert fixes both widths until clear()).
class ReferenceLru {
 public:
  enum class Outcome { kDropped, kRefreshed, kInserted, kEvicted };

  ReferenceLru(std::size_t shards, std::size_t per_shard)
      : shards_(shards), per_shard_(per_shard) {}

  bool find(std::size_t shard_id, const LookupCache::Key& key,
            CachedAnswer& out) {
    Shard& shard = shards_[shard_id];
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++stats.misses;
      return false;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.first);
    out = it->second.second;
    ++stats.hits;
    return true;
  }

  Outcome insert(std::size_t shard_id, const LookupCache::Key& key,
                 const CachedAnswer& answer) {
    Shard& shard = shards_[shard_id];
    if (!shard.widths) {
      shard.widths = std::make_pair(key.size(), answer.values.size());
    } else if (*shard.widths !=
               std::make_pair(key.size(), answer.values.size())) {
      return Outcome::kDropped;
    }
    ++stats.insertions;
    if (const auto it = shard.index.find(key); it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.first);
      it->second.second = answer;
      return Outcome::kRefreshed;
    }
    shard.lru.push_front(key);
    shard.index.emplace(key, std::make_pair(shard.lru.begin(), answer));
    if (shard.lru.size() <= per_shard_) {
      ++stats.entries;
      return Outcome::kInserted;
    }
    shard.index.erase(shard.lru.back());
    shard.lru.pop_back();
    ++stats.evictions;
    return Outcome::kEvicted;
  }

  void clear() {
    for (Shard& shard : shards_) shard = Shard{};
    stats.entries = 0;
  }

  le::serve::LookupCacheStats stats;

 private:
  struct Shard {
    std::list<LookupCache::Key> lru;
    std::map<LookupCache::Key,
             std::pair<std::list<LookupCache::Key>::iterator, CachedAnswer>>
        index;
    std::optional<std::pair<std::size_t, std::size_t>> widths;
  };
  std::vector<Shard> shards_;
  std::size_t per_shard_;
};

// Drives the slab cache and the reference through the same seeded stream
// of finds, inserts and clears, a few of them with a second input or
// output width; every op must end the same way in both, and so must the
// stats.
void model_check(std::size_t capacity, std::size_t shards, unsigned seed) {
  SCOPED_TRACE(testing::Message() << "capacity " << capacity << " shards "
                                  << shards);
  LookupCache cache(small_cache(capacity, shards, 1e-12));
  ReferenceLru reference(shards, (capacity + shards - 1) / shards);
  std::mt19937 gen(seed);
  std::uniform_int_distribution<int> key_dist(0, static_cast<int>(3 * capacity));
  std::uniform_int_distribution<int> op_dist(0, 999);
  CachedAnswer got, want;
  for (int op = 0; op < 100000; ++op) {
    const int k = key_dist(gen);
    const int kind = op_dist(gen);
    std::vector<double> input{0.5 * k, static_cast<double>(k % 7)};
    if (op_dist(gen) < 15) input.push_back(1.0);  // a second input width
    const LookupCache::Key key = LookupCache::quantize(input, 1e-12);
    const std::size_t shard = cache.shard_for(input);
    if (kind < 2) {
      cache.clear();
      reference.clear();
    } else if (kind < 500) {
      const bool hit = cache.find(input, got);
      ASSERT_EQ(hit, reference.find(shard, key, want)) << "find, op " << op;
      if (hit) {
        ASSERT_EQ(got.values, want.values) << "op " << op;
        ASSERT_EQ(got.uncertainty, want.uncertainty) << "op " << op;
      }
    } else {
      // One in fifty inserts carries a second output width.
      const CachedAnswer answer{
          kind % 50 == 0 ? std::vector<double>{1.0 * op, 2.0}
                         : std::vector<double>{1.0 * op},
          0.001 * k};
      const auto before = cache.stats();
      const bool stored = cache.try_insert(input, answer, cache.epoch());
      const auto after = cache.stats();
      const ReferenceLru::Outcome outcome = reference.insert(shard, key, answer);
      ASSERT_EQ(stored, outcome != ReferenceLru::Outcome::kDropped)
          << "insert, op " << op;
      ASSERT_EQ(after.evictions - before.evictions,
                outcome == ReferenceLru::Outcome::kEvicted ? 1u : 0u)
          << "eviction, op " << op;
      ASSERT_EQ(after.entries - before.entries,
                outcome == ReferenceLru::Outcome::kInserted ? 1u : 0u)
          << "growth, op " << op;
    }
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, reference.stats.hits);
  EXPECT_EQ(stats.misses, reference.stats.misses);
  EXPECT_EQ(stats.insertions, reference.stats.insertions);
  EXPECT_EQ(stats.evictions, reference.stats.evictions);
  EXPECT_EQ(stats.entries, reference.stats.entries);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(LookupCache, SlabMatchesAReferenceLruOnOneShardAndOnFour) {
  model_check(64, 1, 17);
  model_check(64, 4, 18);
  model_check(3, 1, 19);  // a 4-cell index: every probe collides
}

// Drives the cache through a seeded mix of single-row calls and batch
// calls, and the reference one row at a time: a batch probe is the rows'
// finds in the order given, a batch insert the staged answers' inserts in
// staging order.  Batches repeat keys, carry non-finite rows and, now and
// then, a second width; some clear the cache between probe and insert,
// so the insert must drop.  Every hit, every value, the insert counts and
// the stats after every call must match, and so must the metrics.
void batch_model_check(std::size_t capacity, std::size_t shards,
                       unsigned seed) {
  SCOPED_TRACE(testing::Message() << "capacity " << capacity << " shards "
                                  << shards);
  le::obs::MetricsRegistry registry;
  LookupCache cache(small_cache(capacity, shards, 1e-12));
  cache.enable_metrics(registry, "batch.cache");
  ReferenceLru reference(shards, (capacity + shards - 1) / shards);
  std::mt19937 gen(seed);
  std::uniform_int_distribution<int> key_dist(0, static_cast<int>(3 * capacity));
  std::uniform_int_distribution<int> op_dist(0, 999);
  std::uniform_int_distribution<std::size_t> size_dist(1, 12);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  LookupCache::Batch batch;
  CachedAnswer got, want;
  const auto expect_same_stats = [&](int op) {
    const auto stats = cache.stats();
    ASSERT_EQ(stats.hits, reference.stats.hits) << "op " << op;
    ASSERT_EQ(stats.misses, reference.stats.misses) << "op " << op;
    ASSERT_EQ(stats.insertions, reference.stats.insertions) << "op " << op;
    ASSERT_EQ(stats.evictions, reference.stats.evictions) << "op " << op;
    ASSERT_EQ(stats.entries, reference.stats.entries) << "op " << op;
  };
  for (int op = 0; op < 20000; ++op) {
    const int kind = op_dist(gen);
    const std::size_t width = op_dist(gen) < 15 ? 3 : 2;
    const auto make_input = [&](int k) {
      std::vector<double> input{0.5 * k, static_cast<double>(k % 7)};
      if (width == 3) input.push_back(1.0);
      return input;
    };
    if (kind < 5) {
      cache.clear();
      reference.clear();
    } else if (kind < 200) {
      const std::vector<double> input = make_input(key_dist(gen));
      const bool hit = cache.find(input, got);
      ASSERT_EQ(hit, reference.find(cache.shard_for(input),
                                    LookupCache::quantize(input, 1e-12), want))
          << "find, op " << op;
      if (hit) {
        ASSERT_EQ(got.values, want.values) << "op " << op;
      }
    } else if (kind < 350) {
      const std::vector<double> input = make_input(key_dist(gen));
      const CachedAnswer answer{{1.0 * op}, 0.001 * op};
      ASSERT_EQ(cache.try_insert(input, answer, cache.epoch()),
                reference.insert(cache.shard_for(input),
                                 LookupCache::quantize(input, 1e-12),
                                 answer) != ReferenceLru::Outcome::kDropped)
          << "insert, op " << op;
    } else {
      // A block of rows; the probe takes a subset of them in a shuffled
      // order, with one key repeated and now and then a non-finite row.
      const std::size_t n_rows = size_dist(gen);
      std::vector<double> block;
      for (std::size_t r = 0; r < n_rows; ++r) {
        std::vector<double> input = make_input(key_dist(gen));
        if (r > 0 && r % 5 == 0) {
          input.assign(block.begin(), block.begin() + static_cast<long>(width));
        }
        if (op_dist(gen) < 60) input[op_dist(gen) % width] = nan;
        block.insert(block.end(), input.begin(), input.end());
      }
      std::vector<std::size_t> rows;
      for (std::size_t r = 0; r < n_rows; ++r) {
        if (op_dist(gen) < 800) rows.push_back(r);
      }
      std::shuffle(rows.begin(), rows.end(), gen);
      const std::uint64_t epoch = cache.epoch();
      cache.find_batch(block, width, rows, batch);
      ASSERT_EQ(batch.size(), rows.size());
      const auto input_of = [&](std::size_t r) {
        return std::span<const double>{block.data() + r * width, width};
      };
      const auto finite = [](std::span<const double> v) {
        return std::ranges::all_of(v, [](double x) { return std::isfinite(x); });
      };
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto input = input_of(rows[i]);
        bool hit = false;
        if (!finite(input)) {
          ++reference.stats.misses;
        } else {
          hit = reference.find(cache.shard_for(input),
                               LookupCache::quantize(input, 1e-12), want);
        }
        ASSERT_EQ(batch.hit(i), hit) << "batch find " << i << ", op " << op;
        if (hit) {
          ASSERT_TRUE(std::ranges::equal(batch.values(i), want.values))
              << "op " << op;
          ASSERT_EQ(batch.uncertainty(i), want.uncertainty) << "op " << op;
        }
      }
      expect_same_stats(op);
      // Stage some rows (repeats allowed), each with its own answer; one in
      // twenty carries a second output width.
      std::vector<std::pair<std::size_t, CachedAnswer>> staged;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (op_dist(gen) < 300) continue;
        const std::size_t j = op_dist(gen) < 100 ? 0 : i;
        CachedAnswer answer{op_dist(gen) < 50
                                ? std::vector<double>{1.0 * op, 2.0}
                                : std::vector<double>{1.0 * op + 0.5 * i},
                            0.01 * i};
        batch.stage(j, answer.values, answer.uncertainty);
        staged.emplace_back(j, std::move(answer));
      }
      const bool bump = op_dist(gen) < 30;
      if (bump) {
        cache.clear();
        reference.clear();
      }
      std::size_t expected_inserted = 0;
      if (!bump) {
        for (const auto& [i, answer] : staged) {
          const auto input = input_of(rows[i]);
          if (!finite(input)) continue;
          if (reference.insert(cache.shard_for(input),
                               LookupCache::quantize(input, 1e-12),
                               answer) != ReferenceLru::Outcome::kDropped) {
            ++expected_inserted;
          }
        }
      }
      ASSERT_EQ(cache.insert_batch(batch, epoch), expected_inserted)
          << "batch insert, op " << op;
    }
    expect_same_stats(op);
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  const le::obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(counter_in(snap, "batch.cache.hits"), stats.hits);
  EXPECT_EQ(counter_in(snap, "batch.cache.misses"), stats.misses);
  EXPECT_EQ(counter_in(snap, "batch.cache.insertions"), stats.insertions);
  EXPECT_EQ(counter_in(snap, "batch.cache.evictions"), stats.evictions);
  EXPECT_EQ(gauge_in(snap, "batch.cache.entries"),
            static_cast<double>(stats.entries));
}

TEST(LookupCache, BatchCallsMatchARowByRowReference) {
  batch_model_check(64, 1, 23);
  batch_model_check(64, 4, 24);
  batch_model_check(64, 8, 25);
  batch_model_check(3, 1, 26);  // every probe collides
}

TEST(LookupCache, BatchProbeAndInsertNeverAllocateOnceWarm) {
  // 64-row batches cycled over 4x the capacity: every probe misses, every
  // insert evicts.  After the warm-up (the slabs and the batch's buffers)
  // a batch allocates nothing.
  le::obs::MetricsRegistry registry;
  LookupCache cache(small_cache(64, 4, 1e-12));
  cache.enable_metrics(registry, "alloc.batch");
  std::vector<double> inputs;
  for (int i = 0; i < 256; ++i) {
    for (double v : {0.25 * i, 1.0, -2.0, 3.0, 0.5}) inputs.push_back(v);
  }
  std::vector<std::size_t> rows(64);
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  const std::vector<double> values{1.0, 2.0, 3.0};
  LookupCache::Batch batch;
  const auto run = [&](int b) {
    const std::span<const double> block{
        inputs.data() + static_cast<std::size_t>(b % 4) * 64 * 5, 64 * 5};
    cache.find_batch(block, 5, rows, batch);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      batch.stage(i, values, 0.1);
    }
    return cache.insert_batch(batch, cache.epoch());
  };
  for (int b = 0; b < 8; ++b) (void)run(b);
  const auto before = cache.stats();
  g_allocations.store(0);
  g_count_allocations.store(true);
  std::size_t inserted = 0;
  for (int b = 0; b < 400; ++b) inserted += run(b);
  g_count_allocations.store(false);
  EXPECT_EQ(g_allocations.load(), 0u);
  EXPECT_EQ(inserted, 400u * 64u);
  EXPECT_EQ(cache.stats().hits, before.hits);
  EXPECT_EQ(cache.stats().evictions - before.evictions, 400u * 64u);
}

TEST(LookupCache, ConcurrentBatchCallsStayCoherent) {
  // Four threads probe and insert overlapping 16-row batches, each with
  // its own Batch, while a fifth clears now and then.  Under the _tsan
  // variant this is the batch path's race check; everywhere, a hit must
  // carry the value inserted for its key and the counters must add up.
  LookupCache cache(small_cache(32, 4, 1e-12));
  constexpr int kThreads = 4;
  constexpr int kBatches = 300;
  constexpr std::size_t kRows = 16;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> probed{0};
  std::thread clearer([&] {
    while (!done.load()) {
      cache.clear();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      LookupCache::Batch batch;
      std::vector<double> block(kRows);
      std::vector<std::size_t> rows(kRows);
      for (std::size_t i = 0; i < kRows; ++i) rows[i] = i;
      for (int b = 0; b < kBatches; ++b) {
        for (std::size_t i = 0; i < kRows; ++i) {
          block[i] = static_cast<double>((b * 3 + t + static_cast<int>(i)) % 48);
        }
        const std::uint64_t epoch = cache.epoch();
        cache.find_batch(block, 1, rows, batch);
        probed.fetch_add(kRows);
        for (std::size_t i = 0; i < kRows; ++i) {
          if (batch.hit(i)) {
            EXPECT_DOUBLE_EQ(batch.values(i)[0], block[i] * 2.0);
          } else {
            const double value = block[i] * 2.0;
            batch.stage(i, {&value, 1}, 0.0);
          }
        }
        (void)cache.insert_batch(batch, epoch);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  done.store(true);
  clearer.join();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, probed.load());
  EXPECT_LE(stats.entries, 32u);
  EXPECT_LE(stats.evictions, stats.insertions);
}

TEST(LookupCache, SteadyStateMissInsertEvictAndHitNeverAllocate) {
  // 256 keys cycled through 64 entries: every probe of the next key misses
  // and its insert evicts; the probe right after the insert hits.  The
  // warm-up gives every shard its first insert (the slabs' one allocation)
  // and sizes the thread-local key scratch.
  le::obs::MetricsRegistry registry;
  LookupCache cache(small_cache(64, 4, 1e-12));
  cache.enable_metrics(registry, "alloc.cache");
  std::vector<std::vector<double>> inputs;
  for (int i = 0; i < 256; ++i) {
    inputs.push_back({0.25 * i, 1.0, -2.0, 3.0, 0.5});
  }
  const std::vector<double> values{1.0, 2.0, 3.0};
  const CachedAnswer answer{values, 0.1};
  for (const auto& input : inputs) cache.insert(input, answer);
  CachedAnswer out{std::vector<double>(values.size()), 0.0};
  const auto before = cache.stats();

  std::size_t missed = 0, hit = 0;
  g_allocations.store(0);
  g_count_allocations.store(true);
  for (int i = 0; i < 10000; ++i) {
    const auto& input = inputs[static_cast<std::size_t>(i) % inputs.size()];
    if (!cache.find(input, out)) ++missed;
    (void)cache.try_insert(input, values, 0.1, cache.epoch());
    if (i % 2 == 0) {
      cache.insert(input, answer);  // a refresh through the CachedAnswer path
    }
    if (cache.find(input, out)) ++hit;
  }
  g_count_allocations.store(false);

  EXPECT_EQ(g_allocations.load(), 0u);
  EXPECT_EQ(missed, 10000u);
  EXPECT_EQ(hit, 10000u);
  EXPECT_EQ(cache.stats().evictions - before.evictions, 10000u);
  EXPECT_EQ(out.values, values);
}

TEST(LookupCache, WidthMismatchedInputIsUncacheable) {
  LookupCache cache(small_cache(8, 1, 1e-12));
  cache.insert(std::vector<double>{1.0, 2.0}, {{3.0}, 0.1});  // fixes 2 -> 1

  EXPECT_FALSE(cache.find(std::vector<double>{1.0}).has_value());
  EXPECT_FALSE(cache.find(std::vector<double>{1.0, 2.0, 0.0}).has_value());
  EXPECT_FALSE(cache.try_insert(std::vector<double>{1.0, 2.0, 0.0},
                                {{3.0}, 0.1}, cache.epoch()));
  EXPECT_FALSE(cache.try_insert(std::vector<double>{5.0, 6.0},
                                {{3.0, 4.0}, 0.1}, cache.epoch()));
  EXPECT_FALSE(cache.find(std::vector<double>{5.0, 6.0}).has_value());
  ASSERT_TRUE(cache.find(std::vector<double>{1.0, 2.0}).has_value());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.misses, 3u);
}

TEST(LookupCache, ClearLetsANewOutputWidthCacheAgain) {
  LookupCache cache(small_cache(8, 1, 1e-12));
  const std::vector<double> input{1.0, 2.0};
  cache.insert(input, {{3.0}, 0.1});
  cache.clear();

  EXPECT_TRUE(cache.try_insert(input, {{4.0, 5.0, 6.0}, 0.2}, cache.epoch()));
  const auto hit = cache.find(input);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->values, (std::vector<double>{4.0, 5.0, 6.0}));
  EXPECT_DOUBLE_EQ(hit->uncertainty, 0.2);
  // The old width is the mismatched one now.
  EXPECT_FALSE(cache.try_insert(input, {{3.0}, 0.1}, cache.epoch()));
}

// ---------------------------------------------------------------------------
// BatchQueue
// ---------------------------------------------------------------------------

// Doubles every element; the output row identifies the submitting query.
le::tensor::Matrix doubling_forward(const le::tensor::Matrix& inputs) {
  le::tensor::Matrix out(inputs.rows(), inputs.cols());
  for (std::size_t r = 0; r < inputs.rows(); ++r) {
    for (std::size_t c = 0; c < inputs.cols(); ++c) {
      out(r, c) = 2.0 * inputs(r, c);
    }
  }
  return out;
}

TEST(BatchQueue, ResolvesEachFutureWithItsOwnRow) {
  BatchQueueConfig config;
  config.max_batch = 8;
  config.input_dim = 2;
  BatchQueue queue(doubling_forward, config);

  std::vector<std::future<std::vector<double>>> futures;
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> input{static_cast<double>(i), 1.0};
    futures.push_back(queue.submit(input));
  }
  for (int i = 0; i < 20; ++i) {
    const auto result = futures[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(result.size(), 2u);
    EXPECT_DOUBLE_EQ(result[0], 2.0 * i);
    EXPECT_DOUBLE_EQ(result[1], 2.0);
  }
  EXPECT_EQ(queue.stats().queries, 20u);
}

TEST(BatchQueue, CoalescesConcurrentSubmissionsIntoFewerBatches) {
  BatchQueueConfig config;
  config.max_batch = 64;
  config.max_wait = std::chrono::microseconds(20000);
  config.input_dim = 1;
  BatchQueue queue(doubling_forward, config);

  constexpr int kQueries = 48;
  std::vector<std::future<std::vector<double>>> futures;
  futures.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    futures.push_back(queue.submit(std::vector<double>{static_cast<double>(i)}));
  }
  for (int i = 0; i < kQueries; ++i) {
    EXPECT_DOUBLE_EQ(futures[static_cast<std::size_t>(i)].get()[0], 2.0 * i);
  }

  const BatchQueueStats stats = queue.stats();
  EXPECT_EQ(stats.queries, static_cast<std::uint64_t>(kQueries));
  // Back-to-back submissions against a 20ms coalescing window must land
  // in strictly fewer dispatches than queries — that is the whole point.
  EXPECT_LT(stats.batches, static_cast<std::uint64_t>(kQueries));
  EXPECT_GT(stats.max_batch_observed, 1u);
  EXPECT_GT(stats.mean_batch(), 1.0);
}

TEST(BatchQueue, FullBatchDispatchesBeforeMaxWait) {
  BatchQueueConfig config;
  config.max_batch = 4;
  config.max_wait = std::chrono::microseconds(60'000'000);  // would time out
  config.input_dim = 1;
  BatchQueue queue(doubling_forward, config);

  std::vector<std::future<std::vector<double>>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(queue.submit(std::vector<double>{static_cast<double>(i)}));
  }
  // The batch filled, so it must dispatch now — long before max_wait.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(futures[static_cast<std::size_t>(i)].wait_for(
                  std::chrono::seconds(30)),
              std::future_status::ready);
    EXPECT_DOUBLE_EQ(futures[static_cast<std::size_t>(i)].get()[0], 2.0 * i);
  }
  EXPECT_EQ(queue.stats().batches, 1u);
}

TEST(BatchQueue, ForwardExceptionFansOutToEveryFutureInTheBatch) {
  BatchQueueConfig config;
  config.max_batch = 4;
  config.input_dim = 1;
  BatchQueue queue(
      [](const le::tensor::Matrix&) -> le::tensor::Matrix {
        throw std::runtime_error("model exploded");
      },
      config);

  std::vector<std::future<std::vector<double>>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(queue.submit(std::vector<double>{1.0}));
  }
  for (auto& fut : futures) {
    EXPECT_THROW((void)fut.get(), std::runtime_error);
  }
}

TEST(BatchQueue, WrongRowCountFromForwardIsAnError) {
  BatchQueueConfig config;
  config.max_batch = 2;
  config.input_dim = 1;
  BatchQueue queue(
      [](const le::tensor::Matrix&) { return le::tensor::Matrix(1, 1); },
      config);

  auto first = queue.submit(std::vector<double>{1.0});
  auto second = queue.submit(std::vector<double>{2.0});
  EXPECT_THROW((void)first.get(), std::runtime_error);
  EXPECT_THROW((void)second.get(), std::runtime_error);
}

TEST(BatchQueue, StopDrainsPendingRequests) {
  BatchQueueConfig config;
  config.max_batch = 1024;
  config.max_wait = std::chrono::microseconds(60'000'000);
  config.input_dim = 1;
  BatchQueue queue(doubling_forward, config);

  std::vector<std::future<std::vector<double>>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(queue.submit(std::vector<double>{static_cast<double>(i)}));
  }
  queue.stop();  // must flush the partial batch, not abandon it

  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(futures[static_cast<std::size_t>(i)].get()[0], 2.0 * i);
  }
  EXPECT_THROW((void)queue.submit(std::vector<double>{0.0}),
               std::runtime_error);
}

TEST(BatchQueue, SubmitValidatesInputDim) {
  BatchQueueConfig config;
  config.input_dim = 3;
  BatchQueue queue(doubling_forward, config);
  EXPECT_THROW((void)queue.submit(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(BatchQueue, ConstructorRejectsDegenerateConfigs) {
  BatchQueueConfig config;
  EXPECT_THROW(BatchQueue(BatchForwardFn{}, config), std::invalid_argument);
  EXPECT_THROW(BatchQueue(ShedAwareForwardFn{}, config), std::invalid_argument);
  config.max_batch = 0;
  EXPECT_THROW(BatchQueue(doubling_forward, config), std::invalid_argument);
  config.max_batch = 1;
  config.input_dim = 0;
  EXPECT_THROW(BatchQueue(doubling_forward, config), std::invalid_argument);
  config.input_dim = 1;
  config.max_wait = std::chrono::microseconds(-1);
  EXPECT_THROW(BatchQueue(doubling_forward, config), std::invalid_argument);
}

TEST(BatchQueue, ConcurrentSynchronousQueriesAllResolve) {
  // The TSan-facing traffic test: several submitter threads racing the
  // serving thread through the full submit -> dispatch -> resolve cycle.
  BatchQueueConfig config;
  config.max_batch = 16;
  config.max_wait = std::chrono::microseconds(500);
  config.input_dim = 1;
  BatchQueue queue(doubling_forward, config);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&queue, &failures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const double x = t * 1000.0 + i;
        const auto result = queue.query(std::vector<double>{x});
        if (result.size() != 1 || result[0] != 2.0 * x) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(queue.stats().queries,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(BatchQueue, MetricsCountQueriesAndBatches) {
  le::obs::MetricsRegistry registry;
  BatchQueueConfig config;
  config.max_batch = 4;
  config.input_dim = 1;
  BatchQueue queue(doubling_forward, config);
  queue.enable_metrics(registry, "test.bq");

  for (int i = 0; i < 4; ++i) {
    (void)queue.query(std::vector<double>{1.0});
  }
  const le::obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(counter_in(snap, "test.bq.queries"), 4u);
  EXPECT_GE(counter_in(snap, "test.bq.batches"), 1u);
}

// ---------------------------------------------------------------------------
// Quantized-key bin boundaries and the epoch invalidation protocol
// (the replace_surrogate/rollback cache-safety audit).
// ---------------------------------------------------------------------------

TEST(LookupCache, QuantizeRoundsHalfAwayFromZeroAtBinBoundaries) {
  // llround semantics: .5 boundaries move away from zero in both signs, so
  // bins are [k-0.5, k+0.5) for k > 0 and mirrored for k < 0 — adjacent
  // bins can never both claim a boundary point.
  const std::vector<double> input{0.5, -0.5, 0.4999999, -0.4999999,
                                  1.5,  -1.5, 2.49,      -2.49};
  const LookupCache::Key key = LookupCache::quantize(input, 1.0);
  const LookupCache::Key expected{1, -1, 0, 0, 2, -2, 2, -2};
  EXPECT_EQ(key, expected);
  // Sub-unit resolution: the boundary between bins 0 and 1 sits at
  // resolution/2, half-away-from-zero again.
  EXPECT_EQ(LookupCache::quantize(std::vector<double>{0.124}, 0.25),
            (LookupCache::Key{0}));
  EXPECT_EQ(LookupCache::quantize(std::vector<double>{0.126}, 0.25),
            (LookupCache::Key{1}));
  EXPECT_EQ(LookupCache::quantize(std::vector<double>{0.125}, 0.25),
            (LookupCache::Key{1}));
}

TEST(LookupCache, QuantizeIsLlroundOfTheScaledInput) {
  // The key is std::llround(v / resolution) inside the int64 range: ties
  // away from zero, the largest double below one half, the 2^52 edge
  // where every double becomes an integer, and seeded values over twenty
  // decades.
  const double below_half = std::nextafter(0.5, 0.0);
  std::vector<double> values{0.0,       -0.0,  0.5,         -0.5,
                             1.5,       -1.5,  2.5,         -2.5,
                             below_half, -below_half, std::nextafter(1.5, 2.0),
                             4503599627370495.5,  -4503599627370495.5,
                             4503599627370496.0,  9007199254740993.0,
                             9.2e18,    -9.2e18};
  std::mt19937_64 gen(52);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> decade(-10, 10);
  for (int i = 0; i < 100000; ++i) {
    values.push_back(unit(gen) * std::pow(10.0, decade(gen)));
  }
  for (const double resolution : {1.0, 0.25, 1e-9, 3.0}) {
    for (const double v : values) {
      const LookupCache::Key key = LookupCache::quantize({&v, 1}, resolution);
      const double scaled = v / resolution;
      if (std::abs(scaled) >= std::ldexp(1.0, 63)) {  // the edge keys
        ASSERT_EQ(key[0], scaled > 0 ? std::numeric_limits<std::int64_t>::max()
                                     : std::numeric_limits<std::int64_t>::min());
        continue;
      }
      ASSERT_EQ(key[0], std::llround(scaled))
          << v << " at resolution " << resolution;
    }
  }
}

TEST(LookupCache, BoundaryNeighborsLandInDistinctBins) {
  LookupCache cache(small_cache(8, 1, 0.25));
  cache.insert(std::vector<double>{0.124}, {{1.0}, 0.0});
  // Same bin (0.1/0.25 = 0.4 -> 0) hits; the far side of the 0.125
  // boundary (0.126 -> bin 1) must miss rather than alias the entry.
  EXPECT_TRUE(cache.find(std::vector<double>{0.1}).has_value());
  EXPECT_FALSE(cache.find(std::vector<double>{0.126}).has_value());
}

TEST(LookupCache, EpochAdvancesOnClearAndStaleInsertsDrop) {
  LookupCache cache(small_cache(8, 2, 1e-12));
  const std::vector<double> input{1.0, 2.0};
  const std::uint64_t era = cache.epoch();

  EXPECT_TRUE(cache.try_insert(input, {{3.0}, 0.1}, era));
  EXPECT_TRUE(cache.find(input).has_value());

  cache.clear();
  EXPECT_EQ(cache.epoch(), era + 1);
  // The in-flight insert from the retired era is dropped, not applied.
  EXPECT_FALSE(cache.try_insert(input, {{99.0}, 0.1}, era));
  EXPECT_FALSE(cache.find(input).has_value());
  EXPECT_EQ(cache.size(), 0u);

  // A current-era insert goes through.
  EXPECT_TRUE(cache.try_insert(input, {{4.0}, 0.1}, cache.epoch()));
  ASSERT_TRUE(cache.find(input).has_value());
  EXPECT_EQ(cache.find(input)->values, (std::vector<double>{4.0}));
}

TEST(LookupCache, StaleEraAnswerNeverOutlivesTheClear) {
  // Both interleavings of "insert under model A" vs "clear() retiring
  // model A" must end with no A-era entry: the insert either lands before
  // the sweep (and is swept) or observes the advanced epoch (and drops).
  const std::vector<double> input{7.0};
  {
    LookupCache cache(small_cache(8, 2, 1e-12));
    const std::uint64_t era = cache.epoch();
    EXPECT_TRUE(cache.try_insert(input, {{1.0}, 0.0}, era));  // before clear
    cache.clear();
    EXPECT_FALSE(cache.find(input).has_value());
  }
  {
    LookupCache cache(small_cache(8, 2, 1e-12));
    const std::uint64_t era = cache.epoch();
    cache.clear();                                             // clear first
    EXPECT_FALSE(cache.try_insert(input, {{1.0}, 0.0}, era));  // then insert
    EXPECT_FALSE(cache.find(input).has_value());
  }
}

TEST(BatchQueue, ConcurrentStopCallsAllDrainAndJoinCleanly) {
  // Regression for the stop()/stop() race: two callers could both pass the
  // joinable() check and double-join the serving thread (UB).  Now the
  // join is serialized; every stop() returns only after the drain, so
  // futures handed out before any stop() resolve for all callers.
  for (int round = 0; round < 8; ++round) {
    BatchQueueConfig config;
    config.max_batch = 4;
    config.max_wait = std::chrono::microseconds(50);
    config.input_dim = 1;
    BatchQueue queue(
        [](const le::tensor::Matrix& in) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          le::tensor::Matrix out(in.rows(), 1);
          for (std::size_t r = 0; r < in.rows(); ++r) out(r, 0) = in(r, 0);
          return out;
        },
        config);

    constexpr int kRequests = 12;
    std::vector<std::future<std::vector<double>>> futures;
    futures.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
      futures.push_back(queue.submit(std::vector<double>{double(i)}));
    }

    constexpr int kStoppers = 4;
    std::vector<std::thread> stoppers;
    stoppers.reserve(kStoppers);
    for (int t = 0; t < kStoppers; ++t) {
      stoppers.emplace_back([&queue] { queue.stop(); });
    }
    for (auto& thread : stoppers) thread.join();

    // Post-stop postcondition (for every caller): all futures resolved.
    for (int i = 0; i < kRequests; ++i) {
      const auto row = futures[static_cast<std::size_t>(i)].get();
      ASSERT_EQ(row.size(), 1u);
      EXPECT_DOUBLE_EQ(row[0], double(i));
    }
    EXPECT_THROW((void)queue.submit(std::vector<double>{0.0}),
                 std::runtime_error);
    queue.stop();  // still idempotent after the concurrent burst
  }
}

// ---------------------------------------------------------------------------
// AdmissionController (DESIGN.md section 14)
// ---------------------------------------------------------------------------

using le::serve::AdmissionConfig;
using le::serve::AdmissionController;
using le::serve::DeadlineExceededError;
using le::serve::DegradationConfig;
using le::serve::DegradationLadder;
using le::serve::LoadGenConfig;
using le::serve::LoadGenerator;
using le::serve::OverloadShedError;
using le::serve::QueueStoppedError;
using le::serve::ServiceLevel;
using le::serve::ShedError;
using le::serve::ShedReason;
using AdmissionClock = AdmissionController::Clock;

// Sojourn gate disabled so only the gate under test fires.
AdmissionConfig depth_only(std::size_t depth) {
  AdmissionConfig config;
  config.max_queue_depth = depth;
  config.max_concurrent = 0;
  config.target_sojourn = std::chrono::microseconds{0};
  return config;
}

TEST(AdmissionController, DepthGateShedsWhenTheQueueIsFull) {
  AdmissionController admission(depth_only(2));
  EXPECT_EQ(admission.try_admit(0), ShedReason::kNone);
  EXPECT_EQ(admission.try_admit(1), ShedReason::kNone);
  EXPECT_EQ(admission.try_admit(2), ShedReason::kQueueFull);
  const auto stats = admission.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed_queue_full, 1u);
  EXPECT_EQ(stats.shed_total(), 1u);
}

TEST(AdmissionController, ConcurrencyTokensBoundInFlightUntilReleased) {
  AdmissionConfig config = depth_only(0);
  config.max_concurrent = 2;
  AdmissionController admission(config);

  EXPECT_EQ(admission.try_admit(0), ShedReason::kNone);
  EXPECT_EQ(admission.try_admit(0), ShedReason::kNone);
  EXPECT_EQ(admission.try_admit(0), ShedReason::kConcurrency);
  EXPECT_EQ(admission.stats().in_flight, 2u);

  admission.release();
  EXPECT_EQ(admission.try_admit(0), ShedReason::kNone);
  admission.release(5);  // over-release saturates at zero, never wraps
  EXPECT_EQ(admission.stats().in_flight, 0u);
  EXPECT_EQ(admission.stats().shed_concurrency, 1u);
}

TEST(AdmissionController, SojournSheddingNeedsAFullIntervalAboveTarget) {
  AdmissionConfig config;
  config.max_queue_depth = 0;
  config.target_sojourn = std::chrono::microseconds{5000};
  config.interval = std::chrono::microseconds{100000};
  AdmissionController admission(config);
  const auto t0 = AdmissionClock::now();

  // Above target, but not yet for a full interval: a transient burst, not
  // a standing queue — still admitting.
  admission.record_sojourn(0.010, t0);
  admission.record_sojourn(0.010, t0 + std::chrono::milliseconds(50));
  EXPECT_FALSE(admission.stats().shedding);
  EXPECT_EQ(admission.try_admit(0, t0 + std::chrono::milliseconds(60)),
            ShedReason::kNone);
}

TEST(AdmissionController, StandingSojournEngagesSheddingWithProbes) {
  AdmissionConfig config;
  config.max_queue_depth = 0;
  config.target_sojourn = std::chrono::microseconds{5000};
  config.interval = std::chrono::microseconds{100000};
  AdmissionController admission(config);
  const auto t0 = AdmissionClock::now();

  admission.record_sojourn(0.010, t0);
  admission.record_sojourn(0.010, t0 + std::chrono::milliseconds(100));
  EXPECT_TRUE(admission.stats().shedding);

  // The first arrival while shedding is the immediate probe (measurement
  // never stops); the next one inside the probe spacing is shed.
  const auto t1 = t0 + std::chrono::milliseconds(101);
  EXPECT_EQ(admission.try_admit(0, t1), ShedReason::kNone);
  EXPECT_EQ(admission.try_admit(0, t1 + std::chrono::microseconds(10)),
            ShedReason::kOverload);
  // CoDel control law: the next probe opens interval/sqrt(2) later.
  EXPECT_EQ(admission.try_admit(0, t1 + std::chrono::milliseconds(90)),
            ShedReason::kNone);

  const auto stats = admission.stats();
  EXPECT_TRUE(stats.shedding);
  EXPECT_EQ(stats.probes, 2u);
  EXPECT_EQ(stats.shed_overload, 1u);
}

TEST(AdmissionController, OneGoodSojournEndsTheEpisode) {
  AdmissionConfig config;
  config.max_queue_depth = 0;
  config.target_sojourn = std::chrono::microseconds{5000};
  config.interval = std::chrono::microseconds{100000};
  AdmissionController admission(config);
  const auto t0 = AdmissionClock::now();

  admission.record_sojourn(0.010, t0);
  admission.record_sojourn(0.010, t0 + std::chrono::milliseconds(100));
  ASSERT_TRUE(admission.stats().shedding);

  // The queue drained: one below-target sojourn exits shedding immediately.
  admission.record_sojourn(0.001, t0 + std::chrono::milliseconds(150));
  EXPECT_FALSE(admission.stats().shedding);
  EXPECT_EQ(admission.try_admit(0, t0 + std::chrono::milliseconds(151)),
            ShedReason::kNone);
}

TEST(AdmissionController, MetricsMirrorStats) {
  le::obs::MetricsRegistry registry;
  AdmissionController admission(depth_only(1));
  admission.enable_metrics(registry, "test.adm");
  EXPECT_EQ(admission.try_admit(0), ShedReason::kNone);
  EXPECT_EQ(admission.try_admit(1), ShedReason::kQueueFull);
  const le::obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(counter_in(snap, "test.adm.admitted"), 1u);
  EXPECT_EQ(counter_in(snap, "test.adm.shed_queue_full"), 1u);
  EXPECT_DOUBLE_EQ(gauge_in(snap, "test.adm.in_flight").value(), 1.0);
}

TEST(AdmissionController, ConstructorRejectsZeroIntervalWithSojournGate) {
  AdmissionConfig config;
  config.target_sojourn = std::chrono::microseconds{5000};
  config.interval = std::chrono::microseconds{0};
  EXPECT_THROW(AdmissionController{config}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// DegradationLadder
// ---------------------------------------------------------------------------

// Tiny window (2 samples per evaluation) and well-separated thresholds so
// each record() pair deterministically drives one evaluation.
DegradationConfig tiny_ladder() {
  DegradationConfig config;
  config.window = 2;
  config.quantile = 1.0;  // max of the window: deterministic
  config.engage = {1e-3, 2e-3, 3e-3};
  config.release_fraction = 0.5;
  config.release_windows = 2;
  return config;
}

void feed_window(DegradationLadder& ladder, double seconds) {
  ladder.record(seconds);
  ladder.record(seconds);
}

TEST(DegradationLadder, EngagesTheLevelTheQuantileCrosses) {
  le::obs::MetricsRegistry registry;
  DegradationLadder ladder(tiny_ladder());
  ladder.enable_metrics(registry, "test.ladder");
  EXPECT_EQ(ladder.level(), ServiceLevel::kFull);

  feed_window(ladder, 1.5e-3);  // above engage[0], below engage[1]
  EXPECT_EQ(ladder.level(), ServiceLevel::kDegraded);
  EXPECT_EQ(ladder.stats().engages, 1u);
  const le::obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(gauge_in(snap, "test.ladder.level").value(), 1.0);
  EXPECT_EQ(counter_in(snap, "test.ladder.engages"), 1u);
}

TEST(DegradationLadder, SevereSpikeJumpsStraightToShedAll) {
  DegradationLadder ladder(tiny_ladder());
  feed_window(ladder, 0.5);  // far beyond engage[2]
  EXPECT_EQ(ladder.level(), ServiceLevel::kShedAll);
  EXPECT_EQ(ladder.stats().engages, 1u);  // one transition, three steps
}

TEST(DegradationLadder, ReleasesOneLevelPerDwellOfCalmWindows) {
  DegradationLadder ladder(tiny_ladder());
  feed_window(ladder, 2.5e-3);
  ASSERT_EQ(ladder.level(), ServiceLevel::kCacheOnly);

  // Release needs release_windows = 2 consecutive calm evaluations below
  // engage[1] * release_fraction = 1e-3, and steps down ONE level only.
  feed_window(ladder, 0.5e-3);
  EXPECT_EQ(ladder.level(), ServiceLevel::kCacheOnly);  // dwell not met yet
  feed_window(ladder, 0.5e-3);
  EXPECT_EQ(ladder.level(), ServiceLevel::kDegraded);
  EXPECT_EQ(ladder.stats().releases, 1u);

  // From kDegraded the release threshold is engage[0] * 0.5 = 0.5e-3:
  // 0.4e-3 qualifies; two more calm windows reach kFull.
  feed_window(ladder, 0.4e-3);
  feed_window(ladder, 0.4e-3);
  EXPECT_EQ(ladder.level(), ServiceLevel::kFull);
  EXPECT_EQ(ladder.stats().releases, 2u);
}

TEST(DegradationLadder, HysteresisHoldsBetweenReleaseAndEngage) {
  DegradationLadder ladder(tiny_ladder());
  feed_window(ladder, 1.5e-3);
  ASSERT_EQ(ladder.level(), ServiceLevel::kDegraded);

  // In the hysteresis gap (above release 0.5e-3, below engage 1e-3) the
  // ladder holds its level indefinitely — and an interleaved gap window
  // resets the calm dwell, so no release sneaks through.
  for (int i = 0; i < 4; ++i) feed_window(ladder, 0.8e-3);
  EXPECT_EQ(ladder.level(), ServiceLevel::kDegraded);
  feed_window(ladder, 0.4e-3);  // one calm window...
  feed_window(ladder, 0.8e-3);  // ...reset by a gap window
  feed_window(ladder, 0.4e-3);
  EXPECT_EQ(ladder.level(), ServiceLevel::kDegraded);
  EXPECT_EQ(ladder.stats().releases, 0u);
}

TEST(DegradationLadder, EngageAtLeastEscalatesAndReleasesNormally) {
  DegradationLadder ladder(tiny_ladder());
  ASSERT_EQ(ladder.level(), ServiceLevel::kFull);

  // External escalation — what an obs::SloTracker burn-rate alert does:
  // jump to the floor immediately, without a latency window crossing.
  ladder.engage_at_least(ServiceLevel::kCacheOnly);
  EXPECT_EQ(ladder.level(), ServiceLevel::kCacheOnly);
  EXPECT_EQ(ladder.stats().engages, 1u);

  // At-or-below the current level is a no-op, not a downgrade.
  ladder.engage_at_least(ServiceLevel::kDegraded);
  ladder.engage_at_least(ServiceLevel::kCacheOnly);
  EXPECT_EQ(ladder.level(), ServiceLevel::kCacheOnly);
  EXPECT_EQ(ladder.stats().engages, 1u);

  // Release from an escalated level walks the normal hysteresis path:
  // calm windows below engage[1] * 0.5 step down one level per dwell.
  feed_window(ladder, 0.5e-3);
  feed_window(ladder, 0.5e-3);
  EXPECT_EQ(ladder.level(), ServiceLevel::kDegraded);
  EXPECT_EQ(ladder.stats().releases, 1u);
}

TEST(DegradationLadder, SloAlertCallbackDrivesTheLadder) {
  // The wiring the observability plane uses end to end: a tracker over
  // deadline attainment browns the service out when the budget burns.
  DegradationLadder ladder(tiny_ladder());
  le::obs::SloConfig slo;
  slo.objective = 0.9;
  slo.fast_window = 4;
  slo.slow_window = 16;
  slo.fast_burn = 5.0;
  slo.slow_burn = 3.0;
  le::obs::SloTracker tracker(slo);
  tracker.set_alert_callback([&ladder](const le::obs::SloAlert& alert) {
    if (alert.firing) ladder.engage_at_least(ServiceLevel::kDegraded);
  });
  for (int i = 0; i < 4; ++i) tracker.record(false);  // burn the budget
  EXPECT_TRUE(tracker.stats().firing);
  EXPECT_EQ(ladder.level(), ServiceLevel::kDegraded);
}

TEST(DegradationLadder, ConstructorValidatesConfig) {
  DegradationConfig config = tiny_ladder();
  config.window = 0;
  EXPECT_THROW(DegradationLadder{config}, std::invalid_argument);
  config = tiny_ladder();
  config.quantile = 1.5;
  EXPECT_THROW(DegradationLadder{config}, std::invalid_argument);
  config = tiny_ladder();
  config.engage = {2e-3, 1e-3, 3e-3};  // not increasing
  EXPECT_THROW(DegradationLadder{config}, std::invalid_argument);
  config = tiny_ladder();
  config.release_fraction = 1.0;  // no hysteresis gap
  EXPECT_THROW(DegradationLadder{config}, std::invalid_argument);
  config = tiny_ladder();
  config.release_windows = 0;
  EXPECT_THROW(DegradationLadder{config}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// LoadGenerator (open-loop: no coordinated omission)
// ---------------------------------------------------------------------------

TEST(LoadGenerator, SameSeedSameScheduleDifferentSeedDiffers) {
  LoadGenConfig config;
  config.rate_qps = 500.0;
  config.duration_seconds = 1.0;
  const auto a = LoadGenerator(config).schedule();
  const auto b = LoadGenerator(config).schedule();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].t, b[i].t);
    EXPECT_EQ(a[i].key, b[i].key);
  }
  config.seed = 43;
  const auto c = LoadGenerator(config).schedule();
  EXPECT_TRUE(a.size() != c.size() || a.front().t != c.front().t);
}

TEST(LoadGenerator, ArrivalsAreSortedWithinDurationAtThePoissonRate) {
  LoadGenConfig config;
  config.rate_qps = 2000.0;
  config.duration_seconds = 2.0;
  const auto schedule = LoadGenerator(config).schedule();

  double prev = 0.0;
  for (const auto& arrival : schedule) {
    EXPECT_GE(arrival.t, prev);
    EXPECT_LT(arrival.t, config.duration_seconds);
    EXPECT_LT(arrival.key, config.key_pool);
    prev = arrival.t;
  }
  // 4000 expected arrivals, sd = sqrt(4000) ~ 63; +-8 sd is comfortable.
  EXPECT_NEAR(static_cast<double>(schedule.size()), 4000.0, 500.0);
}

TEST(LoadGenerator, BurstsMultiplyTheLocalIntensity) {
  LoadGenConfig config;
  config.rate_qps = 1000.0;
  config.duration_seconds = 4.0;
  config.burst_factor = 5.0;
  config.burst_period = 0.5;
  config.burst_length = 0.1;
  const LoadGenerator gen(config);
  const auto schedule = gen.schedule();

  std::size_t in_burst = 0;
  for (const auto& arrival : schedule) {
    if (gen.in_burst(arrival.t)) ++in_burst;
  }
  const std::size_t outside = schedule.size() - in_burst;
  // Burst windows cover 0.8s at 5000 qps (~4000 arrivals); the remaining
  // 3.2s at 1000 qps (~3200).  Per-second density must differ ~5x.
  const double burst_density = static_cast<double>(in_burst) / 0.8;
  const double base_density = static_cast<double>(outside) / 3.2;
  EXPECT_GT(burst_density, 3.0 * base_density);
  EXPECT_NEAR(burst_density / base_density, 5.0, 1.5);
}

TEST(LoadGenerator, HotKeySkewConcentratesTraffic) {
  LoadGenConfig config;
  config.rate_qps = 5000.0;
  config.duration_seconds = 1.0;
  config.key_pool = 1024;
  config.hot_keys = 8;
  config.hot_fraction = 0.8;
  const auto schedule = LoadGenerator(config).schedule();

  std::size_t hot = 0;
  for (const auto& arrival : schedule) {
    if (arrival.key < config.hot_keys) ++hot;
  }
  const double hot_fraction =
      static_cast<double>(hot) / static_cast<double>(schedule.size());
  // 80% explicit hot draws plus the cold draws that land in [0, 8) anyway.
  EXPECT_GT(hot_fraction, 0.72);
  EXPECT_LT(hot_fraction, 0.88);
}

TEST(LoadGenerator, ValidatesConfig) {
  LoadGenConfig config;
  config.rate_qps = 0.0;
  EXPECT_THROW(LoadGenerator{config}, std::invalid_argument);
  config = LoadGenConfig{};
  config.burst_factor = 0.5;
  EXPECT_THROW(LoadGenerator{config}, std::invalid_argument);
  config = LoadGenConfig{};
  config.burst_period = 1.0;  // bursts on, but zero burst_length
  EXPECT_THROW(LoadGenerator{config}, std::invalid_argument);
  config = LoadGenConfig{};
  config.hot_fraction = 0.5;  // skew on, but no hot set
  EXPECT_THROW(LoadGenerator{config}, std::invalid_argument);
  config = LoadGenConfig{};
  config.hot_keys = 2048;  // hot set larger than the pool
  EXPECT_THROW(LoadGenerator{config}, std::invalid_argument);
}

TEST(ReplayClock, DeadlinesAreEpochRelativeNotWallClockRelative) {
  // Regression: deadlines used to be computed as now() + budget at each
  // row's submission, so a replay that fell behind silently granted every
  // late request a fresh budget (coordinated deadline shift) — the exact
  // cousin of the coordinated omission the open-loop generator exists to
  // avoid.  ReplayClock anchors both submit times and deadlines to one
  // epoch chosen before the run: falling behind now eats into the budget.
  using le::serve::Arrival;
  using le::serve::ReplayClock;
  using SClock = std::chrono::steady_clock;

  const auto epoch = SClock::now();
  const ReplayClock clock(epoch);
  const Arrival a{/*t=*/0.250, /*key=*/7};

  const auto submit = clock.submit_time(a);
  EXPECT_EQ(submit - epoch, std::chrono::duration_cast<SClock::duration>(
                                std::chrono::duration<double>(0.250)));

  const auto deadline = clock.deadline(a, 0.030);
  ASSERT_TRUE(deadline.has_value());
  // The deadline is a pure function of (epoch, arrival, budget): recomputing
  // it later — e.g. after the replay thread fell behind — yields the same
  // instant, unlike the old now()-relative formula.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto recomputed = clock.deadline(a, 0.030);
  ASSERT_TRUE(recomputed.has_value());
  EXPECT_EQ(*deadline, *recomputed);
  EXPECT_EQ(*deadline - submit, std::chrono::duration_cast<SClock::duration>(
                                    std::chrono::duration<double>(0.030)));

  // Two clocks with different epochs produce identical offsets: the whole
  // schedule shifts rigidly, per-row spacing and budgets are untouched.
  const ReplayClock later(epoch + std::chrono::seconds(3));
  EXPECT_EQ(later.submit_time(a) - submit, std::chrono::seconds(3));
  EXPECT_EQ(*later.deadline(a, 0.030) - later.submit_time(a),
            *deadline - submit);
}

// ---------------------------------------------------------------------------
// BatchQueue under overload: deadlines, admission, shed-aware forwards
// ---------------------------------------------------------------------------

TEST(BatchQueueOverload, SubmitAfterStopThrowsQueueStoppedError) {
  // Regression for the documented fail-fast contract: previously this was
  // an unspecified std::runtime_error; now the type names the cause.
  BatchQueueConfig config;
  config.input_dim = 1;
  BatchQueue queue(doubling_forward, config);
  queue.stop();
  EXPECT_THROW((void)queue.submit(std::vector<double>{1.0}),
               QueueStoppedError);
  // QueueStoppedError derives from ShedError — catchable at the edge with
  // every other refusal.
  EXPECT_THROW((void)queue.query(std::vector<double>{1.0}), ShedError);
}

TEST(BatchQueueOverload, ExpiredOnArrivalShedsBeforeEnqueue) {
  BatchQueueConfig config;
  config.input_dim = 1;
  BatchQueue queue(doubling_forward, config);

  const auto past = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1);
  EXPECT_THROW((void)queue.submit(std::vector<double>{1.0}, past),
               DeadlineExceededError);
  const auto stats = queue.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.queries, 0u);  // never reached the model
}

TEST(BatchQueueOverload, RequestsExpiringWhileQueuedAreShedPreForward) {
  le::obs::MetricsRegistry registry;
  BatchQueueConfig config;
  config.max_batch = 1;  // serialize: each forward blocks the next
  config.max_wait = std::chrono::microseconds(100);
  config.input_dim = 1;
  BatchQueue queue(
      [](const le::tensor::Matrix& in) {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        return doubling_forward(in);
      },
      config);
  queue.enable_metrics(registry, "test.bq");

  // The first request occupies the 30ms forward; the rest carry 5ms
  // deadlines, so they expire while queued behind it and must be shed
  // before their own forward — never inside one.
  auto head = queue.submit(std::vector<double>{1.0});
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(5);
  std::vector<std::future<std::vector<double>>> doomed;
  for (int i = 0; i < 4; ++i) {
    doomed.push_back(queue.submit(std::vector<double>{2.0}, deadline));
  }

  EXPECT_DOUBLE_EQ(head.get()[0], 2.0);
  for (auto& fut : doomed) {
    EXPECT_THROW((void)fut.get(), DeadlineExceededError);
  }
  const auto stats = queue.stats();
  EXPECT_EQ(stats.expired, 4u);
  EXPECT_EQ(stats.queries, 1u);  // only the head row was ever forwarded
  EXPECT_EQ(stats.dead_request_forwards, 0u);
  const le::obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(counter_in(snap, "test.bq.expired"), 4u);
  EXPECT_EQ(counter_in(snap, "test.bq.dead_request_forwards"), 0u);
}

TEST(BatchQueueOverload, AdmissionDepthBoundShedsAtSubmit) {
  le::obs::MetricsRegistry registry;
  BatchQueueConfig config;
  config.max_batch = 1;
  config.max_wait = std::chrono::microseconds(100);
  config.input_dim = 1;
  std::atomic<bool> forward_started{false};
  BatchQueue queue(
      [&forward_started](const le::tensor::Matrix& in) {
        forward_started.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        return doubling_forward(in);
      },
      config);
  queue.set_admission(
      std::make_shared<AdmissionController>(depth_only(2)));
  queue.enable_metrics(registry, "test.bq");

  // Head occupies the forward for 200ms; two more fill the bounded queue;
  // the fourth must be turned away at the door.  Waiting for the forward
  // to start pins the queue depth the admission gate sees: 0, then 1,
  // then the shedding 2.
  auto head = queue.submit(std::vector<double>{1.0});
  while (!forward_started.load()) std::this_thread::yield();
  auto q1 = queue.submit(std::vector<double>{2.0});
  auto q2 = queue.submit(std::vector<double>{3.0});
  EXPECT_THROW((void)queue.submit(std::vector<double>{4.0}),
               OverloadShedError);

  EXPECT_DOUBLE_EQ(head.get()[0], 2.0);
  EXPECT_DOUBLE_EQ(q1.get()[0], 4.0);
  EXPECT_DOUBLE_EQ(q2.get()[0], 6.0);
  EXPECT_EQ(queue.stats().shed, 1u);
  EXPECT_EQ(counter_in(registry.snapshot(), "test.bq.shed"), 1u);
}

TEST(BatchQueueOverload, ShedAwareForwardFailsMarkedRowsOnly) {
  BatchQueueConfig config;
  config.max_batch = 2;
  config.max_wait = std::chrono::microseconds(50000);
  config.input_dim = 1;
  // Sheds every row whose input is negative; answers the rest.
  BatchQueue queue(
      [](const le::tensor::Matrix& inputs,
         std::span<const le::serve::Deadline> /*deadlines*/,
         std::span<ShedReason> shed) {
        le::tensor::Matrix out(inputs.rows(), 1);
        for (std::size_t r = 0; r < inputs.rows(); ++r) {
          if (inputs(r, 0) < 0.0) shed[r] = ShedReason::kOverload;
          out(r, 0) = 2.0 * inputs(r, 0);
        }
        return out;
      },
      config);

  auto served = queue.submit(std::vector<double>{3.0});
  auto refused = queue.submit(std::vector<double>{-1.0});
  EXPECT_DOUBLE_EQ(served.get()[0], 6.0);
  EXPECT_THROW((void)refused.get(), OverloadShedError);
  EXPECT_EQ(queue.stats().shed, 1u);
}

TEST(BatchQueueOverload, RowsTheForwardShedsAreNoDeadForwards) {
  // A forward that checks deadlines itself, as SurrogateDispatcher's
  // query_batch does, sheds every row that expired between the queue's
  // shed pass and the forward call: those rows never reach its model, so
  // they are no dead-request forwards.  Wide rows stretch that gap (the
  // queue packs them into the batch matrix), and deadlines 1 ms apart,
  // released into the queue around the middle of their span, land rows
  // inside it.  A stalled host can miss the span, so the scenario repeats
  // until the forward has shed a row; every round must charge none.
  constexpr std::size_t kDim = std::size_t{1} << 13;
  constexpr std::size_t kRows = 256;
  BatchQueueConfig config;
  config.max_batch = kRows;
  config.max_wait = std::chrono::milliseconds(1);
  config.input_dim = kDim;
  const std::vector<double> input(kDim, 1.0);
  std::uint64_t forward_shed_total = 0;
  for (int round = 0; round < 5 && forward_shed_total == 0; ++round) {
    std::atomic<bool> head_started{false};
    std::atomic<bool> release{false};
    std::atomic<std::uint64_t> forward_shed{0};
    BatchQueue queue(
        [&](const le::tensor::Matrix& inputs,
            std::span<const le::serve::Deadline> deadlines,
            std::span<ShedReason> shed) {
          if (!deadlines[0]) {  // the head request holds the serving thread
            head_started.store(true);
            while (!release.load()) std::this_thread::yield();
          }
          const auto entry = std::chrono::steady_clock::now();
          le::tensor::Matrix out(inputs.rows(), 1);
          for (std::size_t r = 0; r < inputs.rows(); ++r) {
            if (deadlines[r] && *deadlines[r] <= entry) {
              shed[r] = ShedReason::kDeadline;
              ++forward_shed;
            }
            out(r, 0) = inputs(r, 0);
          }
          return out;
        },
        config);

    auto head = queue.submit(input);
    while (!head_started.load()) std::this_thread::yield();
    const auto t0 = std::chrono::steady_clock::now();
    const auto deadline_of = [&](std::size_t i) {
      return t0 + std::chrono::milliseconds(50 + i);
    };
    std::vector<std::future<std::vector<double>>> futures;
    for (std::size_t i = 0; i < kRows; ++i) {
      try {
        futures.push_back(queue.submit(input, deadline_of(i)));
      } catch (const DeadlineExceededError&) {
        // Expired on arrival on a stalled host: counted in `expired`.
      }
    }
    std::this_thread::sleep_until(deadline_of(kRows / 2));
    release.store(true);
    (void)head.get();

    std::size_t answered = 0;
    for (auto& fut : futures) {
      try {
        (void)fut.get();
        ++answered;
      } catch (const DeadlineExceededError&) {
      }
    }
    const BatchQueueStats stats = queue.stats();
    EXPECT_EQ(stats.dead_request_forwards, 0u);
    EXPECT_EQ(stats.shed, forward_shed.load());
    EXPECT_EQ(answered + stats.shed + stats.expired, kRows);
    forward_shed_total += forward_shed.load();
  }
  EXPECT_GT(forward_shed_total, 0u);
}

TEST(BatchQueueOverload, ConcurrentExpiringSubmittersVsStopAllResolve) {
  // The race the TSan tier exists for: submitter threads with a mix of
  // live, tight and already-expired deadlines vs concurrent stop() vs the
  // serving thread.  Every submitted future must resolve (row or typed
  // shed), every submit() must either enqueue or throw a typed error, and
  // no forward may ever include a dead row.
  for (int round = 0; round < 4; ++round) {
    BatchQueueConfig config;
    config.max_batch = 8;
    config.max_wait = std::chrono::microseconds(200);
    config.input_dim = 1;
    BatchQueue queue(
        [](const le::tensor::Matrix& in) {
          std::this_thread::sleep_for(std::chrono::microseconds(300));
          return doubling_forward(in);
        },
        config);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 30;
    std::atomic<int> resolved{0};
    std::atomic<int> anomalies{0};
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&queue, &resolved, &anomalies, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const auto now = std::chrono::steady_clock::now();
          le::serve::Deadline deadline;
          switch ((t + i) % 3) {
            case 0: deadline = now + std::chrono::microseconds(200); break;
            case 1: deadline = now - std::chrono::microseconds(1); break;
            default: break;  // no deadline
          }
          const double x = t * 1000.0 + i;
          try {
            auto fut = queue.submit(std::vector<double>{x}, deadline);
            try {
              const auto row = fut.get();
              if (row.size() != 1 || row[0] != 2.0 * x) {
                anomalies.fetch_add(1, std::memory_order_relaxed);
              }
            } catch (const ShedError&) {
              // expired while queued — a legitimate typed outcome
            }
            resolved.fetch_add(1, std::memory_order_relaxed);
          } catch (const ShedError&) {
            resolved.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    std::thread stopper([&queue] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      queue.stop();
    });
    for (auto& worker : workers) worker.join();
    stopper.join();

    EXPECT_EQ(resolved.load(), kThreads * kPerThread);
    EXPECT_EQ(anomalies.load(), 0);
    // No dead_request_forwards == 0 assertion here: the 200us deadlines
    // are deliberately inside the shed-pass-to-forward gap under TSan on
    // a loaded machine, so the instrument may honestly count a boundary
    // crosser.  The invariant is pinned where deadlines have real margin
    // (the deterministic tests above and bench_overload's E17 gate).
  }
}

// ---------------------------------------------------------------------------
// One book per count: the registry reads each component's own stats()
// ---------------------------------------------------------------------------

/// A forward that answers through `cache`: hits replay the cached value,
/// misses are doubled and inserted.  Runs on the queue's serving thread.
BatchForwardFn cached_doubling(LookupCache& cache, LookupCache::Batch& probe) {
  return [&cache, &probe](const le::tensor::Matrix& in) {
    std::vector<std::size_t> rows(in.rows());
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    const std::uint64_t epoch = cache.epoch();
    cache.find_batch({in.data(), in.size()}, in.cols(), rows, probe);
    le::tensor::Matrix out = doubling_forward(in);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (probe.hit(i)) {
        out(i, 0) = probe.values(i)[0];
      } else {
        probe.stage(i, out.row(i), 0.0);
      }
    }
    (void)cache.insert_batch(probe, epoch);
    return out;
  };
}

/// Submits `n` seeded keys from [0, keys) in bursts of `burst` submits,
/// waiting for each burst's admitted requests before the next, so the
/// queue drains between bursts however slowly it is served; every 9th
/// carries an already-expired deadline.  Sheds at submit and in flight are
/// swallowed: only the books are under test.
void drive_queue(BatchQueue& queue, int n, int burst, int keys,
                 unsigned seed) {
  std::mt19937 gen(seed);
  const auto past = std::chrono::steady_clock::now() - std::chrono::hours(1);
  std::vector<std::future<std::vector<double>>> pending;
  for (int i = 0; i < n; ++i) {
    const double key = static_cast<double>(gen() % static_cast<unsigned>(keys));
    try {
      pending.push_back(queue.submit(
          std::vector<double>{key},
          i % 9 == 0 ? le::serve::Deadline{past} : le::serve::Deadline{}));
    } catch (const ShedError&) {
    }
    if ((i + 1) % burst == 0 || i + 1 == n) {
      for (auto& f : pending) {
        try {
          (void)f.get();
        } catch (const ShedError&) {
        }
      }
      pending.clear();
    }
  }
}

TEST(OneBook, ServeComponentsExportExactlyTheirStats) {
  le::obs::MetricsRegistry registry;
  auto admission = std::make_shared<AdmissionController>(depth_only(3));
  auto ladder = std::make_shared<DegradationLadder>(tiny_ladder());
  LookupCache cache(small_cache(16, 2, 1e-9));
  LookupCache::Batch probe;
  BatchQueueConfig config;
  config.max_batch = 4;
  config.input_dim = 1;
  BatchQueue queue(cached_doubling(cache, probe), config);
  queue.set_admission(admission);
  queue.set_degradation(ladder);
  queue.enable_metrics(registry, "bq");
  admission->enable_metrics(registry, "adm");
  ladder->enable_metrics(registry, "lad");
  cache.enable_metrics(registry, "cache");
  drive_queue(queue, 300, 6, 40, 3);
  // Engage, then calm windows release.  The queue's waits may have left
  // half a window, so one more calm pair than the two the dwell needs.
  feed_window(*ladder, 1.5e-3);
  for (int i = 0; i < 3; ++i) feed_window(*ladder, 1e-4);
  queue.stop();

  const le::obs::MetricsSnapshot snap = registry.snapshot();
  const BatchQueueStats q = queue.stats();
  EXPECT_EQ(counter_in(snap, "bq.queries"), q.queries);
  EXPECT_EQ(counter_in(snap, "bq.batches"), q.batches);
  EXPECT_EQ(counter_in(snap, "bq.expired"), q.expired);
  EXPECT_EQ(counter_in(snap, "bq.shed"), q.shed);
  EXPECT_EQ(counter_in(snap, "bq.dead_request_forwards"),
            q.dead_request_forwards);
  EXPECT_EQ(gauge_in(snap, "bq.batch_fill"),
            static_cast<double>(q.last_batch));
  const le::serve::AdmissionStats a = admission->stats();
  EXPECT_EQ(counter_in(snap, "adm.admitted"), a.admitted);
  EXPECT_EQ(counter_in(snap, "adm.shed_queue_full"), a.shed_queue_full);
  EXPECT_EQ(counter_in(snap, "adm.shed_concurrency"), a.shed_concurrency);
  EXPECT_EQ(counter_in(snap, "adm.shed_overload"), a.shed_overload);
  EXPECT_EQ(gauge_in(snap, "adm.in_flight"), static_cast<double>(a.in_flight));
  EXPECT_EQ(gauge_in(snap, "adm.shedding"), a.shedding ? 1.0 : 0.0);
  const le::serve::DegradationStats l = ladder->stats();
  EXPECT_EQ(counter_in(snap, "lad.engages"), l.engages);
  EXPECT_EQ(counter_in(snap, "lad.releases"), l.releases);
  EXPECT_EQ(gauge_in(snap, "lad.level"), static_cast<double>(l.level));
  EXPECT_EQ(gauge_in(snap, "lad.pressure_quantile"), l.last_quantile);
  const le::serve::LookupCacheStats c = cache.stats();
  EXPECT_EQ(counter_in(snap, "cache.hits"), c.hits);
  EXPECT_EQ(counter_in(snap, "cache.misses"), c.misses);
  EXPECT_EQ(counter_in(snap, "cache.insertions"), c.insertions);
  EXPECT_EQ(counter_in(snap, "cache.evictions"), c.evictions);
  EXPECT_EQ(gauge_in(snap, "cache.entries"), static_cast<double>(c.entries));
  // The traffic reached every kind of count.
  EXPECT_GT(q.expired, 0u);
  EXPECT_GT(c.hits, 0u);
  EXPECT_GT(c.evictions, 0u);
  EXPECT_GE(l.engages, 1u);
  EXPECT_GE(l.releases, 1u);
  EXPECT_EQ(c.hits + c.misses, q.queries);
}

TEST(OneBook, TwoComponentsOnOnePrefixSumAndADestroyedOneKeepsItsCounts) {
  le::obs::MetricsRegistry registry;
  LookupCache a(small_cache(8, 1, 1e-12));
  a.enable_metrics(registry, "shared");
  a.insert(std::vector<double>{1.0}, {{1.0}, 0.0});
  (void)a.find(std::vector<double>{1.0});
  (void)a.find(std::vector<double>{2.0});
  {
    LookupCache b(small_cache(8, 1, 1e-12));
    b.enable_metrics(registry, "shared");
    b.insert(std::vector<double>{1.0}, {{1.0}, 0.0});
    b.insert(std::vector<double>{2.0}, {{2.0}, 0.0});
    for (int i = 0; i < 3; ++i) (void)b.find(std::vector<double>{2.0});
    const le::obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(counter_in(snap, "shared.hits"), 1u + 3u);
    EXPECT_EQ(counter_in(snap, "shared.misses"), 1u);
    EXPECT_EQ(counter_in(snap, "shared.insertions"), 1u + 2u);
    EXPECT_EQ(gauge_in(snap, "shared.entries"), 2.0);  // b attached last
  }
  (void)a.find(std::vector<double>{1.0});
  const le::obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(counter_in(snap, "shared.hits"), 2u + 3u);  // b's 3 retained
  EXPECT_EQ(counter_in(snap, "shared.insertions"), 1u + 2u);
  EXPECT_EQ(gauge_in(snap, "shared.entries"), 1.0);  // a is the live one
}

TEST(OneBook, ScrapeWhileServing) {
  // Two client threads drive a BatchQueue with admission control whose
  // forward answers through a LookupCache, while a third thread snapshots
  // the registry in a loop: every read of the books is race-free (the
  // _tsan build proves it) and no counter ever goes down.
  le::obs::MetricsRegistry registry;
  auto admission = std::make_shared<AdmissionController>(depth_only(8));
  LookupCache cache(small_cache(32, 4, 1e-9));
  LookupCache::Batch probe;
  BatchQueueConfig config;
  config.max_batch = 8;
  config.input_dim = 1;
  BatchQueue queue(cached_doubling(cache, probe), config);
  queue.set_admission(admission);
  queue.enable_metrics(registry, "bq");
  admission->enable_metrics(registry, "adm");
  cache.enable_metrics(registry, "cache");

  std::atomic<int> clients_done{0};
  std::vector<std::thread> clients;
  for (unsigned t = 0; t < 2; ++t) {
    clients.emplace_back([&queue, &clients_done, t] {
      drive_queue(queue, 400, 8, 64, 11 + t);
      clients_done.fetch_add(1);
    });
  }
  std::map<std::string, std::uint64_t> last;
  std::size_t scrapes = 0;
  while (clients_done.load() < 2) {
    const le::obs::MetricsSnapshot snap = registry.snapshot();
    for (const auto& c : snap.counters) {
      EXPECT_GE(c.value, last[c.name]) << c.name;
      last[c.name] = c.value;
    }
    ++scrapes;
  }
  for (auto& c : clients) c.join();
  queue.stop();
  const le::obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(counter_in(snap, "bq.queries"), queue.stats().queries);
  EXPECT_EQ(counter_in(snap, "adm.admitted"), admission->stats().admitted);
  EXPECT_EQ(counter_in(snap, "cache.hits"), cache.stats().hits);
  EXPECT_EQ(counter_in(snap, "cache.hits").value_or(0) +
                counter_in(snap, "cache.misses").value_or(0),
            queue.stats().queries);
  EXPECT_GT(scrapes, 0u);
}

}  // namespace
