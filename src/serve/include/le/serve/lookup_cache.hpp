/// @file
/// The paper's "learned lookup table" made literal (Section III-D).
///
/// The effective-speedup equation rewards driving T_lookup toward zero;
/// sweeps and autotune grids re-ask the same state points over and over, so
/// the cheapest lookup of all is remembering an answer the surrogate already
/// produced.  LookupCache is a sharded, mutex-striped LRU keyed by quantized
/// input vectors: inputs that agree to within `resolution` in every
/// component share one entry, repeated queries hit in O(1) with no forward
/// pass at all, and stripe-level locking keeps concurrent serving threads
/// out of each other's way.
///
/// Each stripe is a fixed-capacity slab: key and value slots of a width
/// fixed by the stripe's first insert, an exact LRU doubly linked by 32-bit
/// slot index, and an open-addressed index (linear probing, backward-shift
/// delete).  After a stripe's first insert no find, insert, eviction or hit
/// touches the heap.
///
/// The serving path works per batch: find_batch() quantizes and hashes each
/// row once and takes each stripe's lock once for all of its rows, and
/// insert_batch() writes the batch's accepted answers with the keys and
/// hashes the probe computed, again one lock per stripe.  Counters and
/// metrics move once per batch.  The single-row find() and try_insert() are
/// one-row batches through the same code.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "le/obs/metrics.hpp"

namespace le::serve {

struct LookupCacheConfig {
  /// Total entries across all shards; the per-shard bound is
  /// ceil(capacity / shards), enforced independently per shard (and below
  /// 2^31, the slab's 32-bit slot index).
  std::size_t capacity = 4096;
  /// Mutex stripes.  Each input hashes to one shard, so concurrent
  /// queries contend only when they land on the same stripe.
  std::size_t shards = 8;
  /// Quantization step per input component: inputs within `resolution` of
  /// each other in every component share a cache key.  Pick it below the
  /// surrogate's input sensitivity; the default treats inputs as exact.
  double resolution = 1e-12;
};

/// A cached accepted answer: the surrogate's mean and the uncertainty
/// score it carried when the UQ gate admitted it.
struct CachedAnswer {
  std::vector<double> values;
  double uncertainty = 0.0;
};

struct LookupCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class LookupCache {
 public:
  /// Quantized input vector; equal keys mean "same state point at the
  /// configured resolution".
  using Key = std::vector<std::int64_t>;

  /// One batch of rows as the cache sees them.  find_batch() fills it with
  /// each row's key, hash and lookup result; stage() queues answers for
  /// insert_batch(), which reuses those keys and hashes.  Keep one per
  /// thread and reuse it: its buffers keep their capacity, so after the
  /// first batches a probe and an insert allocate nothing.
  class Batch {
   public:
    /// Rows loaded by the last find_batch().
    [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
    /// True when find_batch() found row i (i indexes the `rows` it was
    /// given).
    [[nodiscard]] bool hit(std::size_t i) const noexcept {
      return rows_[i].hit;
    }
    /// Row i's cached values; empty unless hit(i).
    [[nodiscard]] std::span<const double> values(std::size_t i) const noexcept {
      return {values_.data() + rows_[i].found_at, rows_[i].found_width};
    }
    /// Row i's cached uncertainty; 0 unless hit(i).
    [[nodiscard]] double uncertainty(std::size_t i) const noexcept {
      return rows_[i].uncertainty;
    }
    /// Queues an answer for row i (copied) for the next insert_batch().
    void stage(std::size_t i, std::span<const double> values,
               double uncertainty);

   private:
    friend class LookupCache;
    struct Row {
      std::uint64_t hash = 0;
      std::size_t key_at = 0;  ///< offset of the key in keys_
      bool cacheable = false;  ///< every component finite
      bool hit = false;
      std::size_t found_at = 0;  ///< offset of the hit's values in values_
      std::size_t found_width = 0;
      double uncertainty = 0.0;
    };
    struct Staged {
      std::size_t row = 0;
      std::size_t values_at = 0;  ///< offset in values_
      std::size_t width = 0;
      double uncertainty = 0.0;
    };
    std::size_t key_width_ = 0;
    std::vector<Row> rows_;
    std::vector<std::int64_t> keys_;
    /// The hits' values, then the staged answers' values: one buffer, so
    /// a thread whose one-row batches have only inserted so far still
    /// finds its first hit without allocating.
    std::vector<double> values_;
    std::vector<Staged> staged_;
    /// Row (or staged-entry) indices grouped by shard, stable within one,
    /// and each shard's [begin, end) in it.
    std::vector<std::size_t> by_shard_;
    std::vector<std::size_t> shard_begin_;
  };

  explicit LookupCache(const LookupCacheConfig& config);
  ~LookupCache();

  /// Quantizes one input vector at `resolution`.  All components must be
  /// finite (non-finite inputs are uncacheable and handled by the callers).
  [[nodiscard]] static Key quantize(std::span<const double> input,
                                    double resolution);

  /// O(1) lookup; a hit refreshes the entry's LRU position.  Non-finite
  /// inputs, and inputs whose width differs from the one the shard's first
  /// insert fixed, always miss.
  [[nodiscard]] std::optional<CachedAnswer> find(std::span<const double> input);

  /// Allocation-free variant for the serving hot path: on a hit, fills
  /// `out` reusing its buffers and returns true.  `out` is untouched on a
  /// miss.  Steady-state this allocates nothing (it is a one-row
  /// find_batch() into a thread-local Batch), which is what keeps a cache
  /// hit an order of magnitude cheaper than a forward pass.
  [[nodiscard]] bool find(std::span<const double> input, CachedAnswer& out);

  /// Looks up rows `rows` of `inputs`, a row-major block of rows `width`
  /// wide, into `batch` (cleared first): batch row i is input row rows[i].
  /// Each row is quantized and hashed once and each shard locked once;
  /// within a shard the rows are probed in order, so hits, LRU order and
  /// counters end as row-by-row find() calls would leave them.
  void find_batch(std::span<const double> inputs, std::size_t width,
                  std::span<const std::size_t> rows, Batch& batch);

  /// Writes the answers staged in `batch` and clears the staging, unless
  /// the cache has left `expected_epoch` (see try_insert(), whose
  /// semantics each staged answer gets, in staging order within a shard).
  /// Returns how many were written.
  std::size_t insert_batch(Batch& batch, std::uint64_t expected_epoch);

  /// Inserts (or refreshes) the entry for `input`, evicting the shard's
  /// least-recently-used entry when the stripe is full.  Non-finite and
  /// width-mismatched inputs are ignored.
  void insert(std::span<const double> input, const CachedAnswer& answer);

  /// The cache's invalidation era: clear() advances it.  A caller that
  /// snapshots a model and will insert that model's answers later should
  /// capture the epoch FIRST (before the model snapshot) and insert through
  /// try_insert(); the ordering guarantees a stale-era answer can never
  /// outlive the clear() that retired its model.
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  /// insert(), but dropped (returning false) unless the cache is still in
  /// `expected_epoch`.  The check runs inside the shard lock, closing the
  /// race where an in-flight query computed an answer under a surrogate
  /// that replace_surrogate()/rollback has since retired: such an insert
  /// either lands before clear()'s sweep (and is swept), or observes the
  /// advanced epoch and is dropped.  Used by the dispatcher's gate-accepted
  /// insert path.
  ///
  /// The first insert into a shard fixes that shard's input and value
  /// widths until clear(); an input or `values` of any other width is
  /// uncacheable and the insert is dropped (returning false).  Non-finite
  /// inputs are dropped too.  `values` is copied into the shard's slab.
  bool try_insert(std::span<const double> input,
                  std::span<const double> values, double uncertainty,
                  std::uint64_t expected_epoch);
  bool try_insert(std::span<const double> input, const CachedAnswer& answer,
                  std::uint64_t expected_epoch);

  /// The shard (mutex stripe) `input` maps to: the high half of the key
  /// hash, so it never correlates with the slot probe, which uses the low
  /// half.  Exposed for tests and diagnostics of shard balance.
  [[nodiscard]] std::size_t shard_for(std::span<const double> input) const;

  [[nodiscard]] LookupCacheStats stats() const;
  /// Live entry count over all shards.
  [[nodiscard]] std::size_t size() const noexcept {
    return entries_.load(std::memory_order_relaxed);
  }
  void clear();

  [[nodiscard]] const LookupCacheConfig& config() const noexcept {
    return config_;
  }

  /// Writes stats() as "<prefix>.*": hits/misses/insertions/evictions
  /// counters and an entries gauge.
  void export_metrics(obs::MetricsSnapshot& out,
                      const std::string& prefix) const;

  /// Attaches export_metrics() to `registry` for the cache's lifetime.
  void enable_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "serve.cache") {
    metrics_ = registry.attach(*this, prefix);
  }

 private:
  /// Appends the quantized `input` to `key`.
  static void quantize_append(std::span<const double> input,
                              double resolution, Key& key);

  /// One mutex stripe: a fixed-capacity slab (layout in lookup_cache.cpp).
  struct Shard;
  /// Shard pick from the high 32 bits of a key hash.
  [[nodiscard]] std::size_t shard_index(std::uint64_t hash) const noexcept;
  /// Clears `batch` and gives it rows `rows` of `inputs`, each quantized
  /// and hashed once.
  void load(std::span<const double> inputs, std::size_t width,
            std::span<const std::size_t> rows, Batch& batch) const;
  /// Fills batch.by_shard_/shard_begin_ with the `count` entries whose row
  /// is row_of(i), grouped by their row's shard; uncacheable rows go
  /// nowhere.
  template <typename RowOf>
  void group_by_shard(Batch& batch, std::size_t count, RowOf row_of) const;

  LookupCacheConfig config_;
  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Invalidation era; clear() advances it before sweeping the shards.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> entries_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};

  obs::MetricsSource metrics_;  ///< last member: detaches first
};

}  // namespace le::serve
