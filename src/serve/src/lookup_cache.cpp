#include "le/serve/lookup_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "le/obs/metrics.hpp"

namespace le::serve {

namespace {

bool all_finite(std::span<const double> input) noexcept {
  for (double v : input) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

// 64-bit avalanche hash of a quantized key.
std::uint64_t hash_key(std::span<const std::int64_t> key) noexcept {
  // splitmix64-style avalanche per component: far cheaper than byte-wise
  // FNV on the lookup hot path while mixing every bit of the result, so
  // the high half (shard pick) and the low half (slot probe) are
  // independent.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ key.size();
  for (std::int64_t v : key) {
    auto u = static_cast<std::uint64_t>(v);
    u ^= u >> 30;
    u *= 0xbf58476d1ce4e5b9ULL;
    u ^= u >> 27;
    u *= 0x94d049bb133111ebULL;
    u ^= u >> 31;
    h ^= u + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

// The quantized key of the current find or insert.  Thread-local and
// shared by both, so its capacity is reused across calls and a thread's
// first insert leaves nothing for a later lookup to allocate.
thread_local LookupCache::Key scratch_key;

}  // namespace

/// One mutex stripe: a fixed-capacity slab.  Slot s holds its key at
/// keys[s * key_width], its values at values[s * (value_width + 1)] with the
/// uncertainty as the last element, and its LRU links prev[s] / next[s].
/// Slots [0, used) are live; once used reaches the capacity, the LRU tail's
/// slot is recycled.  The index is a power-of-two table of at least twice
/// the capacity, so a probe stays short and always ends at an empty cell.
/// prev/next/index are sized at construction and keys/values by the first
/// insert, so no member function below touches the heap; all of them run
/// under `mutex`.
struct LookupCache::Shard {
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// One index cell: the slot it names (kNil = empty) and the low 32 bits
  /// of that slot's key hash, compared before the key.
  struct IndexCell {
    std::uint32_t slot = kNil;
    std::uint32_t hash = 0;
  };

  std::mutex mutex;
  bool widths_fixed = false;  // by the first insert; clear() resets
  std::size_t key_width = 0;
  std::size_t value_width = 0;
  std::uint32_t used = 0;
  std::uint32_t head = kNil;  // most recently used
  std::uint32_t tail = kNil;  // least recently used
  std::vector<std::int64_t> keys;
  std::vector<double> values;
  std::vector<std::uint32_t> prev;
  std::vector<std::uint32_t> next;
  std::vector<IndexCell> index;

  std::span<std::int64_t> key_at(std::uint32_t slot) noexcept {
    return {keys.data() + slot * key_width, key_width};
  }

  double* values_at(std::uint32_t slot) noexcept {
    return values.data() + slot * (value_width + 1);
  }

  /// The index cell holding `key`, or the empty cell that ends its probe.
  std::size_t probe(std::span<const std::int64_t> key,
                    std::uint32_t hash) noexcept {
    const std::size_t mask = index.size() - 1;
    for (std::size_t pos = hash & mask;; pos = (pos + 1) & mask) {
      const IndexCell& cell = index[pos];
      if (cell.slot == kNil) return pos;
      if (cell.hash == hash && std::ranges::equal(key_at(cell.slot), key)) {
        return pos;
      }
    }
  }

  /// Empties index cell `pos` by backward-shift deletion: each later cell
  /// of the probe run moves into the hole unless that would carry it in
  /// front of its home cell.  No tombstones, so probe length depends only
  /// on the load.
  void erase_cell(std::size_t pos) noexcept {
    const std::size_t mask = index.size() - 1;
    std::size_t hole = pos;
    for (std::size_t j = (pos + 1) & mask; index[j].slot != kNil;
         j = (j + 1) & mask) {
      const std::size_t home = index[j].hash & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        index[hole] = index[j];
        hole = j;
      }
    }
    index[hole].slot = kNil;
  }

  void unlink(std::uint32_t slot) noexcept {
    const std::uint32_t p = prev[slot], n = next[slot];
    (p == kNil ? head : next[p]) = n;
    (n == kNil ? tail : prev[n]) = p;
  }

  void push_front(std::uint32_t slot) noexcept {
    prev[slot] = kNil;
    next[slot] = head;
    (head == kNil ? tail : prev[head]) = slot;
    head = slot;
  }

  void touch(std::uint32_t slot) noexcept {
    if (head == slot) return;
    unlink(slot);
    push_front(slot);
  }
};

LookupCache::LookupCache(const LookupCacheConfig& config) : config_(config) {
  if (config_.capacity == 0) {
    throw std::invalid_argument("LookupCache: capacity must be positive");
  }
  if (config_.shards == 0) {
    throw std::invalid_argument("LookupCache: shards must be positive");
  }
  if (!(config_.resolution > 0.0) || !std::isfinite(config_.resolution)) {
    throw std::invalid_argument("LookupCache: resolution must be positive");
  }
  per_shard_capacity_ =
      (config_.capacity + config_.shards - 1) / config_.shards;
  if (per_shard_capacity_ >= (std::size_t{1} << 31)) {
    throw std::invalid_argument("LookupCache: per-shard capacity >= 2^31");
  }
  const std::size_t index_size = std::bit_ceil(2 * per_shard_capacity_);
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->prev.resize(per_shard_capacity_);
    shard->next.resize(per_shard_capacity_);
    shard->index.resize(index_size);
    shards_.push_back(std::move(shard));
  }
}

LookupCache::~LookupCache() = default;

LookupCache::Key LookupCache::quantize(std::span<const double> input,
                                       double resolution) {
  Key key;
  quantize_into(input, resolution, key);
  return key;
}

void LookupCache::quantize_into(std::span<const double> input,
                                double resolution, Key& key) {
  key.clear();
  key.reserve(input.size());
  // llround saturates UB-free only inside the representable range; clamp
  // first so absurd magnitudes still produce a stable (edge) key.
  const double lo = static_cast<double>(std::numeric_limits<std::int64_t>::min());
  const double hi = static_cast<double>(std::numeric_limits<std::int64_t>::max());
  for (double v : input) {
    const double scaled = v / resolution;
    if (scaled <= lo) {
      key.push_back(std::numeric_limits<std::int64_t>::min());
    } else if (scaled >= hi) {
      key.push_back(std::numeric_limits<std::int64_t>::max());
    } else {
      key.push_back(std::llround(scaled));
    }
  }
}

std::size_t LookupCache::shard_index(std::uint64_t hash) const noexcept {
  return (hash >> 32) % shards_.size();
}

std::size_t LookupCache::shard_for(std::span<const double> input) const {
  return shard_index(hash_key(quantize(input, config_.resolution)));
}

std::optional<CachedAnswer> LookupCache::find(std::span<const double> input) {
  CachedAnswer out;
  if (find(input, out)) return out;
  return std::nullopt;
}

bool LookupCache::find(std::span<const double> input, CachedAnswer& out) {
  if (all_finite(input)) {
    Key& key = scratch_key;
    quantize_into(input, config_.resolution, key);
    const std::uint64_t hash = hash_key(key);
    Shard& shard = *shards_[shard_index(hash)];
    std::lock_guard lock(shard.mutex);
    if (shard.widths_fixed && key.size() == shard.key_width) {
      const std::uint32_t slot =
          shard.index[shard.probe(key, static_cast<std::uint32_t>(hash))]
              .slot;
      if (slot != Shard::kNil) {
        shard.touch(slot);
        const double* hit = shard.values_at(slot);
        out.values.assign(hit, hit + shard.value_width);
        out.uncertainty = hit[shard.value_width];
        hits_.fetch_add(1, std::memory_order_relaxed);
        if (metric_hits_) metric_hits_->add();
        return true;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (metric_misses_) metric_misses_->add();
  return false;
}

void LookupCache::insert(std::span<const double> input,
                         const CachedAnswer& answer) {
  (void)try_insert(input, answer, epoch_.load(std::memory_order_acquire));
}

bool LookupCache::try_insert(std::span<const double> input,
                             const CachedAnswer& answer,
                             std::uint64_t expected_epoch) {
  return try_insert(input, answer.values, answer.uncertainty, expected_epoch);
}

bool LookupCache::try_insert(std::span<const double> input,
                             std::span<const double> values,
                             double uncertainty,
                             std::uint64_t expected_epoch) {
  if (!all_finite(input)) return false;
  Key& key = scratch_key;
  quantize_into(input, config_.resolution, key);
  const std::uint64_t hash = hash_key(key);
  const auto hash32 = static_cast<std::uint32_t>(hash);
  Shard& shard = *shards_[shard_index(hash)];
  bool evicted = false;
  {
    std::lock_guard lock(shard.mutex);
    // Epoch check inside the shard lock: either this insert precedes
    // clear()'s sweep of this shard (and the sweep removes it), or the
    // sweep's preceding epoch bump is visible here and the insert drops.
    if (epoch_.load(std::memory_order_acquire) != expected_epoch) {
      return false;
    }
    if (!shard.widths_fixed) {
      // The shard's only allocation: size the slabs for these widths.
      shard.widths_fixed = true;
      shard.key_width = key.size();
      shard.value_width = values.size();
      shard.keys.assign(per_shard_capacity_ * shard.key_width, 0);
      shard.values.assign(per_shard_capacity_ * (shard.value_width + 1), 0.0);
    } else if (key.size() != shard.key_width ||
               values.size() != shard.value_width) {
      return false;  // uncacheable: not this shard's widths
    }
    std::size_t pos = shard.probe(key, hash32);
    std::uint32_t slot = shard.index[pos].slot;
    if (slot != Shard::kNil) {
      shard.touch(slot);
    } else {
      if (shard.used < per_shard_capacity_) {
        slot = shard.used++;
        entries_.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Full: recycle the LRU tail's slot.  Its index cell goes first,
        // and the backward shift may move cells, so re-probe after.
        slot = shard.tail;
        const std::span<const std::int64_t> old_key = shard.key_at(slot);
        shard.erase_cell(
            shard.probe(old_key, static_cast<std::uint32_t>(hash_key(old_key))));
        shard.unlink(slot);
        pos = shard.probe(key, hash32);
        evicted = true;
      }
      std::ranges::copy(key, shard.key_at(slot).begin());
      shard.index[pos] = Shard::IndexCell{slot, hash32};
      shard.push_front(slot);
    }
    double* dst = shard.values_at(slot);
    std::ranges::copy(values, dst);
    dst[shard.value_width] = uncertainty;
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
  if (evicted) evictions_.fetch_add(1, std::memory_order_relaxed);
  if (metric_insertions_) metric_insertions_->add();
  if (evicted && metric_evictions_) metric_evictions_->add();
  if (metric_entries_) {
    metric_entries_->set(static_cast<double>(size()));
  }
  return true;
}

LookupCacheStats LookupCache::stats() const {
  LookupCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.entries = size();
  return s;
}

void LookupCache::clear() {
  // Epoch advances BEFORE the sweep: any try_insert still carrying the old
  // epoch either lands before its shard is swept (removed below) or sees
  // the new epoch under the shard lock and drops itself.
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    std::ranges::fill(shard->index, Shard::IndexCell{});
    shard->used = 0;
    shard->head = shard->tail = Shard::kNil;
    shard->widths_fixed = false;  // the next first insert may re-width
  }
  entries_.store(0, std::memory_order_relaxed);
  if (metric_entries_) metric_entries_->set(0.0);
}

void LookupCache::enable_metrics(obs::MetricsRegistry& registry,
                                 const std::string& prefix) {
  metric_hits_ = &registry.counter(prefix + ".hits");
  metric_misses_ = &registry.counter(prefix + ".misses");
  metric_insertions_ = &registry.counter(prefix + ".insertions");
  metric_evictions_ = &registry.counter(prefix + ".evictions");
  metric_entries_ = &registry.gauge(prefix + ".entries");
}

}  // namespace le::serve
