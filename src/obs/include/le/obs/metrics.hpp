/// @file
/// Observability primitives for the MLaroundHPC runtime (le::obs).
///
/// The paper's effective-speedup model (Section III-D) is only actionable
/// if a running campaign can see where its time goes; "Understanding ML
/// driven HPC" (Fox & Jha, 2019) calls monitoring of coupled ML+simulation
/// loops first-class infrastructure.  This header provides the low-level
/// pieces: counters, gauges and log-linear latency histograms collected
/// in a MetricsRegistry, all safe for concurrent update.
///
/// One book per count: a component (dispatcher, cache, queue, ...) keeps
/// its counts once, in its own stats(), and attach()es an exporter that
/// writes them into each snapshot; the registry's own counters, gauges and
/// histograms serve free-function instrumentation and the latency
/// histograms no component keeps.  Registry updates are lock-free atomics;
/// the registry mutex is touched when a handle is first acquired by name,
/// when a component attaches or detaches, and when a snapshot is taken.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace le::obs {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace detail

/// Global on/off switch for all metric collection (default off).
[[nodiscard]] inline bool metrics_enabled() noexcept {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
inline void set_metrics_enabled(bool on) noexcept {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Latency histogram over a fixed log-linear layout of nanosecond buckets
/// (HdrHistogram / DDSketch style; Masson et al., VLDB 2019).
///
/// A duration of d ns with 2^e <= d < 2^(e+1) lands in octave e, split into
/// kSubBuckets equal sub-buckets picked by the top mantissa bits of d:
/// index = e * kSubBuckets + mantissa[51:46].  kOctaves octaves cover 1 ns
/// to 2^40 ns (~18 min); values outside clamp to the end buckets.  Every
/// bucket is 1/64 of its octave wide, so its midpoint is within 1/128
/// (~0.8%) of any value in it — the whole relative-error budget of
/// quantile().  Buckets of two histograms with this layout add exactly,
/// which is what makes fleet merges (MetricsSnapshot::merge) lossless.
///
/// record() is wait-free on the bucket (one fetch_add) and lock-free on
/// sum/min/max (CAS).  Non-finite values are ignored: a NaN or inf must not
/// poison the sum or break JSON export.
class Histogram {
 public:
  static constexpr std::size_t kSubBucketBits = 6;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBucketBits;
  static constexpr std::size_t kOctaves = 40;
  static constexpr std::size_t kBucketCount = kOctaves * kSubBuckets;

  /// One non-empty bucket of a sparse bucket list (sorted by index).
  struct Bucket {
    std::uint32_t index = 0;
    std::uint64_t count = 0;
    friend bool operator==(const Bucket&, const Bucket&) = default;
  };

  /// Value-type view of a histogram: what snapshots and benches report.
  struct Summary {
    std::uint64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  /// Bucket index a duration in seconds lands in.
  [[nodiscard]] static std::size_t bucket_index(double seconds) noexcept;
  /// Midpoint (seconds) of bucket i — the value quantile() reports for it.
  [[nodiscard]] static double bucket_midpoint(std::size_t i) noexcept;

  /// The one quantile function: the midpoint of the bucket holding the
  /// lower-rank order statistic floor(q * (n - 1)) of the n samples in
  /// `buckets`, clamped to [min, max].  q <= 0 returns min and q >= 1
  /// returns max exactly; an empty list returns 0.
  [[nodiscard]] static double quantile(std::span<const Bucket> buckets,
                                       double min, double max,
                                       double q) noexcept;
  /// count/mean/p50/p95/p99 of `buckets`, via quantile().
  [[nodiscard]] static Summary summarize(std::span<const Bucket> buckets,
                                         double sum, double min, double max);

  void record(double seconds) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] Summary summary() const;
  /// Non-empty buckets, sorted by index.
  [[nodiscard]] std::vector<Bucket> buckets() const;
  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Two snapshots disagree structurally (a histogram bucket index outside
/// this build's layout) — merging them would file counts under buckets
/// that do not exist.  Typed so a telemetry pipeline can distinguish
/// "schema skew between processes" from any other failure.
class SnapshotMergeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Point-in-time copy of every registered metric, ready for export.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    double value = 0.0;
  };
  /// A histogram's Summary plus the sparse buckets it was derived from, so
  /// snapshots from different processes merge exactly.
  struct HistogramEntry : Histogram::Summary {
    std::string name;
    std::vector<Histogram::Bucket> buckets;  ///< sorted by index
  };
  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;

  /// Accumulates `other` into this snapshot — the aggregation primitive
  /// for the distributed telemetry plane, where every worker process
  /// snapshots its own registry and the router folds the per-shard
  /// snapshots into one fleet view.  By name: counters add; gauges take
  /// `other`'s value (last write wins — the incoming snapshot is newer);
  /// histograms add their sparse buckets and sums, keep min/min and
  /// max/max, and re-derive count/mean/p50/p95/p99 with
  /// Histogram::summarize — so the merged quantiles equal those of one
  /// registry that recorded everything.  Disjoint metric sets union; an
  /// empty snapshot on either side is the identity.  A bucket index outside
  /// Histogram's layout throws SnapshotMergeError (typed, never silent
  /// misaccounting).
  void merge(const MetricsSnapshot& other);

  /// Appends counters and gauges named "<prefix>.<name>", unsorted: a
  /// component exporter's output, which snapshot() merge()s.
  void add(const std::string& prefix,
           std::initializer_list<std::pair<const char*, std::uint64_t>> c,
           std::initializer_list<std::pair<const char*, double>> g = {});
};

/// Writes a component's current counters and gauges into a snapshot.
using MetricsExporter = std::function<void(MetricsSnapshot&)>;

namespace detail {
/// A registry's attached exporters, shared with their attachments so one
/// that outlives the registry detaches into nothing.
struct MetricsSources {
  std::mutex mutex;
  std::uint64_t next_id = 1;
  std::map<std::uint64_t, MetricsExporter> live;  ///< by id: attach order
  MetricsSnapshot retained;  ///< final counts of the detached exporters
};
struct MetricsAttachment {
  std::weak_ptr<MetricsSources> sources;
  std::uint64_t id = 0;
};
struct MetricsDetach {
  void operator()(MetricsAttachment* attachment) const noexcept;
};
}  // namespace detail

/// A component's attachment to a MetricsRegistry (see attach()).  While it
/// lives, every snapshot() includes what its exporter writes; destroying
/// or reassigning it detaches, and the registry folds the exporter's final
/// counters and histograms into a retained total, so a counter never goes
/// down when its component does.  Outliving the registry, or a reset() of
/// it, is safe: detaching is then a no-op.
using MetricsSource =
    std::unique_ptr<detail::MetricsAttachment, detail::MetricsDetach>;

/// Named metric store.  Handles returned by counter()/gauge()/histogram()
/// are stable for the registry's lifetime: acquire once, update lock-free
/// forever after.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  /// Adds a component's exporter to every snapshot until the returned
  /// source is destroyed.  The exporter runs on the snapshotting thread, so
  /// it must read state that thread may read; it must not call back into
  /// this registry.
  [[nodiscard]] MetricsSource attach(MetricsExporter exporter);

  /// attach() of `component.export_metrics(out, prefix)`.
  template <typename Component>
  [[nodiscard]] MetricsSource attach(const Component& component,
                                     std::string prefix) {
    return attach([&component, prefix](MetricsSnapshot& out) {
      component.export_metrics(out, prefix);
    });
  }

  /// Copies every metric, sorted by name within each kind: the registry's
  /// own, then the retained totals of detached sources, then each live
  /// exporter's output, merged by MetricsSnapshot::merge in attach order
  /// (so of two sources exporting one gauge, the later-attached wins).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every metric; registrations (and handles) stay valid.  Attached
  /// sources and retained totals are dropped: a forked worker starts from
  /// a fresh slate, not from the counts of the components it inherited.
  void reset();

  /// The process-wide registry the built-in instrumentation reports to.
  [[nodiscard]] static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::shared_ptr<detail::MetricsSources> sources_ =
      std::make_shared<detail::MetricsSources>();
};

/// Renders a snapshot as a single-line JSON object (locale-independent:
/// always '.' decimal point, so exports are portable between hosts).
[[nodiscard]] std::string to_json(const MetricsSnapshot& snapshot);

/// Renders a snapshot as an aligned human-readable table.
[[nodiscard]] std::string to_text(const MetricsSnapshot& snapshot);

/// Renders a snapshot in the Prometheus text exposition format: metric
/// names sanitized to [a-zA-Z0-9_:] with an "le_" prefix, counters as
/// `counter` with an `_total` suffix, gauges as `gauge`, histograms as
/// `summary` (quantile-labelled series plus `_sum`/`_count`).  One
/// "scrape" of the plane for anyone pointing standard tooling at it.
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snapshot);

}  // namespace le::obs
