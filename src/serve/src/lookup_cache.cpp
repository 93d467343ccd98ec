#include "le/serve/lookup_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>

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

// The one-row batch of the single-row find() and try_insert().
// Thread-local and shared by both, so its capacity is reused across calls
// and a thread's first insert leaves nothing for a later lookup to
// allocate.
thread_local LookupCache::Batch one_row;

constexpr std::size_t kRowZero = 0;

}  // namespace

/// One mutex stripe: a fixed-capacity slab.  Slot s holds its key at
/// keys[s * key_width], its values at values[s * (value_width + 1)] with the
/// uncertainty as the last element, its LRU links prev[s] / next[s] and its
/// key's hash in slot_hash[s].
/// Slots [0, used) are live; once used reaches the capacity, the LRU tail's
/// slot is recycled.  The index is a power-of-two table of at least twice
/// the capacity, so a probe stays short and always ends at an empty cell.
/// prev/next/slot_hash/index are sized at construction and keys/values by
/// the first insert, so no member function below touches the heap; all of
/// them run under `mutex`.
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
  /// The low 32 bits of each slot's key hash: where its probe starts.
  std::vector<std::uint32_t> slot_hash;
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

  /// The index cell naming live slot `slot`: its probe run, walked from
  /// its home cell, compares slot numbers only.
  std::size_t cell_of(std::uint32_t slot) const noexcept {
    const std::size_t mask = index.size() - 1;
    std::size_t pos = slot_hash[slot] & mask;
    while (index[pos].slot != slot) pos = (pos + 1) & mask;
    return pos;
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
    shard->slot_hash.resize(per_shard_capacity_);
    shard->index.resize(index_size);
    shards_.push_back(std::move(shard));
  }
}

LookupCache::~LookupCache() = default;

LookupCache::Key LookupCache::quantize(std::span<const double> input,
                                       double resolution) {
  Key key;
  key.reserve(input.size());
  quantize_append(input, resolution, key);
  return key;
}

void LookupCache::quantize_append(std::span<const double> input,
                                  double resolution, Key& key) {
  // Conversion is defined only inside the representable range; clamp first
  // so absurd magnitudes still produce a stable (edge) key.
  const double lo = static_cast<double>(std::numeric_limits<std::int64_t>::min());
  const double hi = static_cast<double>(std::numeric_limits<std::int64_t>::max());
  for (double v : input) {
    const double scaled = v / resolution;
    if (scaled <= lo) {
      key.push_back(std::numeric_limits<std::int64_t>::min());
    } else if (scaled >= hi) {
      key.push_back(std::numeric_limits<std::int64_t>::max());
    } else {
      // std::llround(scaled), inline: truncate, then step away from zero
      // when the exact remainder is at least one half.  Below 2^52 the
      // truncated value and the remainder are exact; from 2^52 on every
      // double is an integer and the remainder is 0.
      auto rounded = static_cast<std::int64_t>(scaled);
      const double rest = scaled - static_cast<double>(rounded);
      if (rest >= 0.5) ++rounded;
      if (rest <= -0.5) --rounded;
      key.push_back(rounded);
    }
  }
}

std::size_t LookupCache::shard_index(std::uint64_t hash) const noexcept {
  return (hash >> 32) % shards_.size();
}

std::size_t LookupCache::shard_for(std::span<const double> input) const {
  return shard_index(hash_key(quantize(input, config_.resolution)));
}

void LookupCache::Batch::stage(std::size_t i, std::span<const double> values,
                               double uncertainty) {
  staged_.push_back({i, values_.size(), values.size(), uncertainty});
  values_.insert(values_.end(), values.begin(), values.end());
}

void LookupCache::load(std::span<const double> inputs, std::size_t width,
                       std::span<const std::size_t> rows, Batch& batch) const {
  batch.key_width_ = width;
  batch.rows_.clear();
  batch.keys_.clear();
  batch.values_.clear();
  batch.staged_.clear();
  for (const std::size_t r : rows) {
    const std::span<const double> input = inputs.subspan(r * width, width);
    Batch::Row row;
    row.cacheable = all_finite(input);
    if (row.cacheable) {
      row.key_at = batch.keys_.size();
      quantize_append(input, config_.resolution, batch.keys_);
      row.hash = hash_key({batch.keys_.data() + row.key_at, width});
    }
    batch.rows_.push_back(row);
  }
}

template <typename RowOf>
void LookupCache::group_by_shard(Batch& batch, std::size_t count,
                                 RowOf row_of) const {
  // A stable counting sort: shard_begin_[s + 1] first counts shard s's
  // entries, then the prefix sums turn the counts into bounds.
  batch.shard_begin_.assign(shards_.size() + 1, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const Batch::Row& row = batch.rows_[row_of(i)];
    if (row.cacheable) ++batch.shard_begin_[shard_index(row.hash) + 1];
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    batch.shard_begin_[s + 1] += batch.shard_begin_[s];
  }
  batch.by_shard_.resize(batch.shard_begin_.back());
  for (std::size_t i = 0; i < count; ++i) {
    const Batch::Row& row = batch.rows_[row_of(i)];
    if (!row.cacheable) continue;
    // shard_begin_[s] serves as shard s's fill cursor here ...
    batch.by_shard_[batch.shard_begin_[shard_index(row.hash)]++] = i;
  }
  // ... so it ends at shard s's end, which is shard s + 1's begin.
  for (std::size_t s = shards_.size(); s > 0; --s) {
    batch.shard_begin_[s] = batch.shard_begin_[s - 1];
  }
  batch.shard_begin_[0] = 0;
}

void LookupCache::find_batch(std::span<const double> inputs, std::size_t width,
                             std::span<const std::size_t> rows, Batch& batch) {
  load(inputs, width, rows, batch);
  const std::size_t n = batch.rows_.size();
  group_by_shard(batch, n, [](std::size_t i) { return i; });
  std::uint64_t hits = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::size_t begin = batch.shard_begin_[s];
    const std::size_t end = batch.shard_begin_[s + 1];
    if (begin == end) continue;
    Shard& shard = *shards_[s];
    std::lock_guard lock(shard.mutex);
    if (!shard.widths_fixed || width != shard.key_width) continue;
    for (std::size_t e = begin; e < end; ++e) {
      Batch::Row& row = batch.rows_[batch.by_shard_[e]];
      const std::span<const std::int64_t> key{batch.keys_.data() + row.key_at,
                                              width};
      const std::uint32_t slot =
          shard.index[shard.probe(key, static_cast<std::uint32_t>(row.hash))]
              .slot;
      if (slot == Shard::kNil) continue;
      shard.touch(slot);
      const double* found = shard.values_at(slot);
      row.hit = true;
      row.found_at = batch.values_.size();
      row.found_width = shard.value_width;
      row.uncertainty = found[shard.value_width];
      batch.values_.insert(batch.values_.end(), found,
                           found + shard.value_width);
      ++hits;
    }
  }
  const std::uint64_t misses = n - hits;
  if (hits != 0) hits_.fetch_add(hits, std::memory_order_relaxed);
  if (misses != 0) misses_.fetch_add(misses, std::memory_order_relaxed);
}

std::size_t LookupCache::insert_batch(Batch& batch,
                                      std::uint64_t expected_epoch) {
  const std::size_t width = batch.key_width_;
  group_by_shard(batch, batch.staged_.size(),
                 [&](std::size_t i) { return batch.staged_[i].row; });
  std::uint64_t inserted = 0, evicted = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::size_t begin = batch.shard_begin_[s];
    const std::size_t end = batch.shard_begin_[s + 1];
    if (begin == end) continue;
    Shard& shard = *shards_[s];
    std::lock_guard lock(shard.mutex);
    // Epoch check inside the shard lock: either these inserts precede
    // clear()'s sweep of this shard (and the sweep removes them), or the
    // sweep's preceding epoch bump is visible here and they drop.
    if (epoch_.load(std::memory_order_acquire) != expected_epoch) continue;
    // New slots are counted under the lock too, so clear()'s reset of the
    // entry count, which follows its sweep, never precedes them.
    std::uint64_t added = 0;
    for (std::size_t e = begin; e < end; ++e) {
      const Batch::Staged& staged = batch.staged_[batch.by_shard_[e]];
      const Batch::Row& row = batch.rows_[staged.row];
      const std::span<const std::int64_t> key{batch.keys_.data() + row.key_at,
                                              width};
      const std::span<const double> values{
          batch.values_.data() + staged.values_at, staged.width};
      const auto hash32 = static_cast<std::uint32_t>(row.hash);
      if (!shard.widths_fixed) {
        // The shard's only allocation: size the slabs for these widths.
        shard.widths_fixed = true;
        shard.key_width = width;
        shard.value_width = values.size();
        shard.keys.assign(per_shard_capacity_ * shard.key_width, 0);
        shard.values.assign(per_shard_capacity_ * (shard.value_width + 1),
                            0.0);
      } else if (width != shard.key_width ||
                 values.size() != shard.value_width) {
        continue;  // uncacheable: not this shard's widths
      }
      std::size_t pos = shard.probe(key, hash32);
      std::uint32_t slot = shard.index[pos].slot;
      if (slot != Shard::kNil) {
        shard.touch(slot);
      } else {
        if (shard.used < per_shard_capacity_) {
          slot = shard.used++;
          ++added;
        } else {
          // Full: recycle the LRU tail's slot.  Its index cell goes first,
          // and the backward shift may move cells, so re-probe after.
          slot = shard.tail;
          shard.erase_cell(shard.cell_of(slot));
          shard.unlink(slot);
          pos = shard.probe(key, hash32);
          ++evicted;
        }
        std::ranges::copy(key, shard.key_at(slot).begin());
        shard.slot_hash[slot] = hash32;
        shard.index[pos] = Shard::IndexCell{slot, hash32};
        shard.push_front(slot);
      }
      double* dst = shard.values_at(slot);
      std::ranges::copy(values, dst);
      dst[shard.value_width] = staged.uncertainty;
      ++inserted;
    }
    if (added != 0) entries_.fetch_add(added, std::memory_order_relaxed);
  }
  batch.staged_.clear();
  if (inserted != 0) {
    insertions_.fetch_add(inserted, std::memory_order_relaxed);
  }
  if (evicted != 0) evictions_.fetch_add(evicted, std::memory_order_relaxed);
  return inserted;
}

std::optional<CachedAnswer> LookupCache::find(std::span<const double> input) {
  CachedAnswer out;
  if (find(input, out)) return out;
  return std::nullopt;
}

bool LookupCache::find(std::span<const double> input, CachedAnswer& out) {
  find_batch(input, input.size(), {&kRowZero, 1}, one_row);
  if (!one_row.hit(0)) return false;
  const std::span<const double> values = one_row.values(0);
  out.values.assign(values.begin(), values.end());
  out.uncertainty = one_row.uncertainty(0);
  return true;
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
  load(input, input.size(), {&kRowZero, 1}, one_row);
  one_row.stage(0, values, uncertainty);
  return insert_batch(one_row, expected_epoch) == 1;
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
}

void LookupCache::export_metrics(obs::MetricsSnapshot& out,
                                 const std::string& prefix) const {
  const LookupCacheStats s = stats();
  out.add(prefix,
          {{"hits", s.hits}, {"misses", s.misses},
           {"insertions", s.insertions}, {"evictions", s.evictions}},
          {{"entries", static_cast<double>(s.entries)}});
}

}  // namespace le::serve
