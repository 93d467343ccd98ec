#include "le/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>
#include <locale>
#include <sstream>

namespace le::obs {

namespace detail {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace detail

std::size_t Histogram::bucket_index(double seconds) noexcept {
  const double ns = seconds * 1e9;
  if (!(ns >= 1.0)) return 0;  // sub-ns, zero, negative
  // IEEE-754 double: the biased exponent is the octave, the top mantissa
  // bits pick the sub-bucket — no log() on the record path.
  const auto bits = std::bit_cast<std::uint64_t>(ns);
  const auto octave = static_cast<std::size_t>(bits >> 52) - 1023;
  if (octave >= kOctaves) return kBucketCount - 1;
  const auto sub = static_cast<std::size_t>(bits >> (52 - kSubBucketBits)) &
                   (kSubBuckets - 1);
  return octave * kSubBuckets + sub;
}

double Histogram::bucket_midpoint(std::size_t i) noexcept {
  const double sub = static_cast<double>(i % kSubBuckets) + 0.5;
  return std::ldexp(1.0 + sub / static_cast<double>(kSubBuckets),
                    static_cast<int>(i / kSubBuckets)) *
         1e-9;
}

double Histogram::quantile(std::span<const Bucket> buckets, double min,
                           double max, double q) noexcept {
  std::uint64_t n = 0;
  for (const Bucket& b : buckets) n += b.count;
  if (n == 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  const auto rank =
      static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
  std::uint64_t cumulative = 0;
  for (const Bucket& b : buckets) {
    cumulative += b.count;
    if (cumulative > rank) {
      return std::min(std::max(bucket_midpoint(b.index), min), max);
    }
  }
  return max;
}

Histogram::Summary Histogram::summarize(std::span<const Bucket> buckets,
                                        double sum, double min, double max) {
  Summary s;
  for (const Bucket& b : buckets) s.count += b.count;
  if (s.count == 0) return s;
  s.sum = sum;
  s.mean = sum / static_cast<double>(s.count);
  s.min = min;
  s.max = max;
  s.p50 = quantile(buckets, min, max, 0.50);
  s.p95 = quantile(buckets, min, max, 0.95);
  s.p99 = quantile(buckets, min, max, 0.99);
  return s;
}

void Histogram::record(double seconds) noexcept {
  if (!std::isfinite(seconds)) return;
  sum_.fetch_add(seconds, std::memory_order_relaxed);
  double cur = min_.load(std::memory_order_relaxed);
  while (seconds < cur &&
         !min_.compare_exchange_weak(cur, seconds, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (seconds > cur &&
         !max_.compare_exchange_weak(cur, seconds, std::memory_order_relaxed)) {
  }
  // The bucket is published last (release; buckets() loads acquire): a
  // reader that counts this sample also sees its sum/min/max, so a racing
  // snapshot never pairs a non-empty bucket with the +/-inf sentinels.
  buckets_[bucket_index(seconds)].fetch_add(1, std::memory_order_release);
}

void Histogram::record_batch(std::span<const double> seconds) noexcept {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  bool any = false;
  for (const double v : seconds) {
    if (!std::isfinite(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    any = true;
  }
  if (!any) return;
  double cur = sum_.load(std::memory_order_relaxed);
  double next;
  do {
    next = cur;
    for (const double v : seconds) {
      if (std::isfinite(v)) next += v;
    }
  } while (!sum_.compare_exchange_weak(cur, next, std::memory_order_relaxed));
  cur = min_.load(std::memory_order_relaxed);
  while (lo < cur &&
         !min_.compare_exchange_weak(cur, lo, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (hi > cur &&
         !max_.compare_exchange_weak(cur, hi, std::memory_order_relaxed)) {
  }
  // Buckets last, as in record(): a reader that counts these samples also
  // sees their sum/min/max.
  std::size_t run_bucket = 0;
  std::uint64_t run = 0;
  for (const double v : seconds) {
    if (!std::isfinite(v)) continue;
    const std::size_t bucket = bucket_index(v);
    if (run != 0 && bucket != run_bucket) {
      buckets_[run_bucket].fetch_add(run, std::memory_order_release);
      run = 0;
    }
    run_bucket = bucket;
    ++run;
  }
  buckets_[run_bucket].fetch_add(run, std::memory_order_release);
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_acquire);
  return n;
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::min() const noexcept {
  const double m = min_.load(std::memory_order_relaxed);
  return std::isfinite(m) ? m : 0.0;
}

double Histogram::max() const noexcept {
  const double m = max_.load(std::memory_order_relaxed);
  return std::isfinite(m) ? m : 0.0;
}

double Histogram::quantile(double q) const {
  const std::vector<Bucket> b = buckets();
  return quantile(b, min(), max(), q);
}

Histogram::Summary Histogram::summary() const {
  const std::vector<Bucket> b = buckets();
  return summarize(b, sum(), min(), max());
}

std::vector<Histogram::Bucket> Histogram::buckets() const {
  std::vector<Bucket> out;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    const std::uint64_t n = buckets_[i].load(std::memory_order_acquire);
    if (n != 0) out.push_back({static_cast<std::uint32_t>(i), n});
  }
  return out;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

void detail::MetricsDetach::operator()(
    MetricsAttachment* attachment) const noexcept {
  const std::unique_ptr<MetricsAttachment> owned(attachment);
  const std::shared_ptr<MetricsSources> sources = attachment->sources.lock();
  if (!sources) return;
  std::lock_guard lock(sources->mutex);
  const auto it = sources->live.find(attachment->id);
  if (it == sources->live.end()) return;  // dropped by reset()
  MetricsSnapshot last;
  it->second(last);
  sources->live.erase(it);
  last.gauges.clear();  // a gauge describes a live component only
  sources->retained.merge(last);
}

MetricsSource MetricsRegistry::attach(MetricsExporter exporter) {
  std::lock_guard lock(sources_->mutex);
  const std::uint64_t id = sources_->next_id++;
  sources_->live.emplace(id, std::move(exporter));
  return MetricsSource(new detail::MetricsAttachment{sources_, id});
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  {
    std::lock_guard lock(mutex_);
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) {
      snap.counters.push_back({name, c->value()});
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) {
      snap.gauges.push_back({name, g->value()});
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      MetricsSnapshot::HistogramEntry e;
      e.buckets = h->buckets();
      static_cast<Histogram::Summary&>(e) =
          Histogram::summarize(e.buckets, h->sum(), h->min(), h->max());
      e.name = name;
      snap.histograms.push_back(std::move(e));
    }
  }
  std::lock_guard lock(sources_->mutex);
  snap.merge(sources_->retained);
  for (const auto& [id, exporter] : sources_->live) {
    MetricsSnapshot part;
    exporter(part);
    snap.merge(part);
  }
  return snap;
}

void MetricsRegistry::reset() {
  {
    std::lock_guard lock(mutex_);
    for (auto& [name, c] : counters_) c->reset();
    for (auto& [name, g] : gauges_) g->reset();
    for (auto& [name, h] : histograms_) h->reset();
  }
  std::lock_guard lock(sources_->mutex);
  sources_->live.clear();
  sources_->retained = {};
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

namespace {

void check_layout(const MetricsSnapshot::HistogramEntry& h) {
  for (const Histogram::Bucket& b : h.buckets) {
    if (b.index >= Histogram::kBucketCount) {
      throw SnapshotMergeError(
          "MetricsSnapshot::merge: histogram '" + h.name + "' has bucket " +
          std::to_string(b.index) + " but the layout has " +
          std::to_string(Histogram::kBucketCount) +
          " (layout skew between processes)");
    }
  }
}

/// Merges `src` into `dst` (same metric name on both sides): a sorted add
/// of the sparse buckets, then the summary re-derived from them.
void merge_histogram_entry(MetricsSnapshot::HistogramEntry& dst,
                           const MetricsSnapshot::HistogramEntry& src) {
  if (src.count == 0) return;  // empty side is the identity
  if (dst.count == 0) {
    const std::string name = dst.name;
    dst = src;
    dst.name = name;
    return;
  }
  std::vector<Histogram::Bucket> merged;
  merged.reserve(dst.buckets.size() + src.buckets.size());
  auto a = dst.buckets.begin();
  auto b = src.buckets.begin();
  while (a != dst.buckets.end() || b != src.buckets.end()) {
    if (b == src.buckets.end() ||
        (a != dst.buckets.end() && a->index < b->index)) {
      merged.push_back(*a++);
    } else if (a == dst.buckets.end() || b->index < a->index) {
      merged.push_back(*b++);
    } else {
      merged.push_back({a->index, a->count + b->count});
      ++a;
      ++b;
    }
  }
  dst.buckets = std::move(merged);
  static_cast<Histogram::Summary&>(dst) =
      Histogram::summarize(dst.buckets, dst.sum + src.sum,
                           std::min(dst.min, src.min),
                           std::max(dst.max, src.max));
}

}  // namespace

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  // Entries are sorted by name within each kind (registry snapshot order);
  // merge preserves that invariant so repeated merges stay deterministic.
  for (const CounterEntry& c : other.counters) {
    const auto it = std::lower_bound(
        counters.begin(), counters.end(), c.name,
        [](const CounterEntry& e, const std::string& n) { return e.name < n; });
    if (it != counters.end() && it->name == c.name) {
      it->value += c.value;
    } else {
      counters.insert(it, c);
    }
  }
  for (const GaugeEntry& g : other.gauges) {
    const auto it = std::lower_bound(
        gauges.begin(), gauges.end(), g.name,
        [](const GaugeEntry& e, const std::string& n) { return e.name < n; });
    if (it != gauges.end() && it->name == g.name) {
      it->value = g.value;  // the incoming snapshot is newer
    } else {
      gauges.insert(it, g);
    }
  }
  for (const HistogramEntry& h : other.histograms) {
    check_layout(h);
    const auto it = std::lower_bound(histograms.begin(), histograms.end(),
                                     h.name,
                                     [](const HistogramEntry& e,
                                        const std::string& n) {
                                       return e.name < n;
                                     });
    if (it != histograms.end() && it->name == h.name) {
      merge_histogram_entry(*it, h);
    } else {
      histograms.insert(it, h);
    }
  }
}

void MetricsSnapshot::add(
    const std::string& prefix,
    std::initializer_list<std::pair<const char*, std::uint64_t>> c,
    std::initializer_list<std::pair<const char*, double>> g) {
  for (const auto& [name, value] : c) {
    counters.push_back({prefix + "." + name, value});
  }
  for (const auto& [name, value] : g) {
    gauges.push_back({prefix + "." + name, value});
  }
}

namespace {

/// Locale-pinned numeric formatting: JSON must not grow ',' decimal
/// points under a European global locale.
class JsonWriter {
 public:
  JsonWriter() {
    out_.imbue(std::locale::classic());
    out_ << std::setprecision(12);
  }
  template <typename T>
  JsonWriter& operator<<(const T& v) {
    out_ << v;
    return *this;
  }
  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string to_json(const MetricsSnapshot& snapshot) {
  JsonWriter w;
  w << "{\"counters\":{";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const auto& c = snapshot.counters[i];
    w << (i ? "," : "") << '"' << escape(c.name) << "\":" << c.value;
  }
  w << "},\"gauges\":{";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const auto& g = snapshot.gauges[i];
    w << (i ? "," : "") << '"' << escape(g.name) << "\":" << g.value;
  }
  w << "},\"histograms\":{";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& h = snapshot.histograms[i];
    w << (i ? "," : "") << '"' << escape(h.name) << "\":{"
      << "\"count\":" << h.count << ",\"sum\":" << h.sum
      << ",\"mean\":" << h.mean << ",\"min\":" << h.min << ",\"max\":" << h.max
      << ",\"p50\":" << h.p50 << ",\"p95\":" << h.p95 << ",\"p99\":" << h.p99
      << '}';
  }
  w << "}}";
  return w.str();
}

std::string to_text(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << std::setprecision(5);
  if (!snapshot.counters.empty()) {
    out << "counters:\n";
    for (const auto& c : snapshot.counters) {
      out << "  " << std::left << std::setw(44) << c.name << ' ' << c.value
          << '\n';
    }
  }
  if (!snapshot.gauges.empty()) {
    out << "gauges:\n";
    for (const auto& g : snapshot.gauges) {
      out << "  " << std::left << std::setw(44) << g.name << ' ' << g.value
          << '\n';
    }
  }
  if (!snapshot.histograms.empty()) {
    out << "histograms (seconds):\n";
    for (const auto& h : snapshot.histograms) {
      out << "  " << std::left << std::setw(44) << h.name << " count "
          << h.count << "  sum " << h.sum << "  mean " << h.mean << "  p50 "
          << h.p50 << "  p95 " << h.p95 << "  max " << h.max << '\n';
    }
  }
  return out.str();
}

namespace {

/// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*; dotted le names
/// map dots (and anything else) to underscores under an "le_" prefix.
std::string prom_name(const std::string& name) {
  std::string out = "le_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << std::setprecision(12);
  for (const auto& c : snapshot.counters) {
    const std::string name = prom_name(c.name) + "_total";
    out << "# TYPE " << name << " counter\n"
        << name << ' ' << c.value << '\n';
  }
  for (const auto& g : snapshot.gauges) {
    const std::string name = prom_name(g.name);
    out << "# TYPE " << name << " gauge\n" << name << ' ' << g.value << '\n';
  }
  for (const auto& h : snapshot.histograms) {
    const std::string name = prom_name(h.name) + "_seconds";
    out << "# TYPE " << name << " summary\n"
        << name << "{quantile=\"0.5\"} " << h.p50 << '\n'
        << name << "{quantile=\"0.95\"} " << h.p95 << '\n'
        << name << "{quantile=\"0.99\"} " << h.p99 << '\n'
        << name << "_sum " << h.sum << '\n'
        << name << "_count " << h.count << '\n';
  }
  return std::move(out).str();
}

}  // namespace le::obs
