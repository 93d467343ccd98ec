#include "le/net/telemetry.hpp"

#include <unistd.h>

namespace le::net {

namespace {

void put_string(WireWriter& w, std::string_view s) {
  w.put_u32(static_cast<std::uint32_t>(s.size()));
  w.put_bytes(s);
}

std::string read_string(WireReader& r) {
  const std::uint32_t n = r.u32();
  return std::string(r.bytes(n));
}

/// Reads an element count and rejects it before any allocation when the
/// remaining payload cannot hold that many elements of `min_bytes` each
/// (an element's fixed fields, with its strings empty).
std::uint32_t read_count(WireReader& r, std::size_t min_bytes,
                         const char* what) {
  const std::uint32_t n = r.u32();
  if (r.remaining() / min_bytes < n) {
    throw WireError(std::string("le-net: ") + what + " longer than payload");
  }
  return n;
}

/// Sparse histogram buckets: strictly increasing in-layout indices, each
/// with a non-zero count, summing to the entry's count.
std::vector<obs::Histogram::Bucket> read_buckets(WireReader& r,
                                                 std::uint64_t count) {
  const std::uint32_t n = read_count(r, 4 + 8, "histogram buckets");
  std::vector<obs::Histogram::Bucket> buckets;
  buckets.reserve(n);
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const obs::Histogram::Bucket b{r.u32(), r.u64()};
    if (b.index >= obs::Histogram::kBucketCount) {
      throw WireError("le-net: histogram bucket index outside the layout");
    }
    if (!buckets.empty() && b.index <= buckets.back().index) {
      throw WireError("le-net: histogram bucket indices not increasing");
    }
    if (b.count == 0) {
      throw WireError("le-net: empty histogram bucket on the wire");
    }
    if (b.count > count - total) {  // also rules out u64 wrap-around
      throw WireError("le-net: histogram bucket counts exceed count");
    }
    total += b.count;
    buckets.push_back(b);
  }
  if (total != count) {
    throw WireError("le-net: histogram bucket counts fall short of count");
  }
  return buckets;
}

}  // namespace

void put_meter_snapshot(WireWriter& w,
                        const obs::EffectiveSpeedupMeter::Snapshot& s) {
  w.put_u64(s.n_lookup);
  w.put_u64(s.n_train);
  w.put_u64(s.seq_samples);
  w.put_f64(s.lookup_seconds);
  w.put_f64(s.train_seconds);
  w.put_f64(s.learn_seconds);
  w.put_f64(s.seq_seconds);
}

obs::EffectiveSpeedupMeter::Snapshot read_meter_snapshot(WireReader& r) {
  obs::EffectiveSpeedupMeter::Snapshot s;
  s.n_lookup = static_cast<std::size_t>(r.u64());
  s.n_train = static_cast<std::size_t>(r.u64());
  s.seq_samples = static_cast<std::size_t>(r.u64());
  s.lookup_seconds = r.f64();
  s.train_seconds = r.f64();
  s.learn_seconds = r.f64();
  s.seq_seconds = r.f64();
  return s;
}

// Telemetry payload layout (all little-endian, strings u32-length-prefixed):
//   u32 pid | string process_name | meter snapshot |
//   u32 n_counters    | per: string name | u64 value
//   u32 n_gauges      | per: string name | f64 value
//   u32 n_histograms  | per: string name | u64 count | f64 sum | f64 mean |
//                       f64 min | f64 max | f64 p50 | f64 p95 | f64 p99 |
//                       u32 n_buckets | per non-empty bucket, ascending:
//                       u32 index | u64 count
//   u32 n_spans       | per: string name | u32 thread | u32 depth |
//                       u32 pid | f64 start_seconds | f64 seconds |
//                       u64 trace_id | u64 span_id | u64 parent_span_id

std::string encode_telemetry(const TelemetryFrame& frame) {
  WireWriter w;
  w.put_u32(frame.pid);
  put_string(w, frame.process_name);
  put_meter_snapshot(w, frame.meter);

  w.put_u32(static_cast<std::uint32_t>(frame.metrics.counters.size()));
  for (const auto& c : frame.metrics.counters) {
    put_string(w, c.name);
    w.put_u64(c.value);
  }
  w.put_u32(static_cast<std::uint32_t>(frame.metrics.gauges.size()));
  for (const auto& g : frame.metrics.gauges) {
    put_string(w, g.name);
    w.put_f64(g.value);
  }
  w.put_u32(static_cast<std::uint32_t>(frame.metrics.histograms.size()));
  for (const auto& h : frame.metrics.histograms) {
    put_string(w, h.name);
    w.put_u64(h.count);
    w.put_f64(h.sum);
    w.put_f64(h.mean);
    w.put_f64(h.min);
    w.put_f64(h.max);
    w.put_f64(h.p50);
    w.put_f64(h.p95);
    w.put_f64(h.p99);
    w.put_u32(static_cast<std::uint32_t>(h.buckets.size()));
    for (const obs::Histogram::Bucket& b : h.buckets) {
      w.put_u32(b.index);
      w.put_u64(b.count);
    }
  }

  w.put_u32(static_cast<std::uint32_t>(frame.spans.size()));
  for (const obs::SpanRecord& s : frame.spans) {
    put_string(w, s.name);
    w.put_u32(s.thread);
    w.put_u32(s.depth);
    w.put_u32(s.pid);
    w.put_f64(s.start_seconds);
    w.put_f64(s.seconds);
    w.put_u64(s.trace_id);
    w.put_u64(s.span_id);
    w.put_u64(s.parent_span_id);
  }
  return w.take();
}

TelemetryFrame decode_telemetry(std::string_view payload) {
  WireReader r(payload);
  TelemetryFrame frame;
  frame.pid = r.u32();
  frame.process_name = read_string(r);
  frame.meter = read_meter_snapshot(r);

  const std::uint32_t n_counters = read_count(r, 4 + 8, "counters");
  frame.metrics.counters.reserve(n_counters);
  for (std::uint32_t i = 0; i < n_counters; ++i) {
    obs::MetricsSnapshot::CounterEntry c;
    c.name = read_string(r);
    c.value = r.u64();
    frame.metrics.counters.push_back(std::move(c));
  }
  const std::uint32_t n_gauges = read_count(r, 4 + 8, "gauges");
  frame.metrics.gauges.reserve(n_gauges);
  for (std::uint32_t i = 0; i < n_gauges; ++i) {
    obs::MetricsSnapshot::GaugeEntry g;
    g.name = read_string(r);
    g.value = r.f64();
    frame.metrics.gauges.push_back(std::move(g));
  }
  const std::uint32_t n_histograms = read_count(r, 4 + 8 + 7 * 8 + 4, "histograms");
  frame.metrics.histograms.reserve(n_histograms);
  for (std::uint32_t i = 0; i < n_histograms; ++i) {
    obs::MetricsSnapshot::HistogramEntry h;
    h.name = read_string(r);
    h.count = r.u64();
    h.sum = r.f64();
    h.mean = r.f64();
    h.min = r.f64();
    h.max = r.f64();
    h.p50 = r.f64();
    h.p95 = r.f64();
    h.p99 = r.f64();
    h.buckets = read_buckets(r, h.count);
    frame.metrics.histograms.push_back(std::move(h));
  }

  const std::uint32_t n_spans = read_count(r, 4 + 3 * 4 + 5 * 8, "spans");
  frame.spans.reserve(n_spans);
  for (std::uint32_t i = 0; i < n_spans; ++i) {
    obs::SpanRecord s;
    s.name = read_string(r);
    s.thread = r.u32();
    s.depth = r.u32();
    s.pid = r.u32();
    s.start_seconds = r.f64();
    s.seconds = r.f64();
    s.trace_id = r.u64();
    s.span_id = r.u64();
    s.parent_span_id = r.u64();
    frame.spans.push_back(std::move(s));
  }
  r.expect_end();
  return frame;
}

TelemetryFrame collect_local_telemetry(obs::EffectiveSpeedupMeter& meter) {
  TelemetryFrame frame;
  frame.pid = static_cast<std::uint32_t>(::getpid());
  frame.process_name = obs::process_name();
  frame.meter = meter.snapshot();
  frame.metrics = obs::MetricsRegistry::global().snapshot();
  frame.spans = obs::TraceLog::global().drain();
  return frame;
}

}  // namespace le::net
