#include "le/net/telemetry.hpp"

#include <unistd.h>

namespace le::net {

namespace {

/// Sparse histogram buckets: strictly increasing in-layout indices, each
/// with a non-zero count, summing to the entry's count.
std::vector<obs::Histogram::Bucket> read_buckets(WireReader& r,
                                                 std::uint64_t count) {
  const std::uint32_t n = r.count(4 + 8);
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
  w.put_string(frame.process_name);
  obs::put_meter_snapshot(w, frame.meter);

  w.put_u32(static_cast<std::uint32_t>(frame.metrics.counters.size()));
  for (const auto& c : frame.metrics.counters) {
    w.put_string(c.name);
    w.put_u64(c.value);
  }
  w.put_u32(static_cast<std::uint32_t>(frame.metrics.gauges.size()));
  for (const auto& g : frame.metrics.gauges) {
    w.put_string(g.name);
    w.put_f64(g.value);
  }
  w.put_u32(static_cast<std::uint32_t>(frame.metrics.histograms.size()));
  for (const auto& h : frame.metrics.histograms) {
    w.put_string(h.name);
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
    w.put_string(s.name);
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
  frame.process_name = r.string();
  frame.meter = obs::read_meter_snapshot(r);

  const std::uint32_t n_counters = r.count(4 + 8);
  frame.metrics.counters.reserve(n_counters);
  for (std::uint32_t i = 0; i < n_counters; ++i) {
    obs::MetricsSnapshot::CounterEntry c;
    c.name = r.string();
    c.value = r.u64();
    frame.metrics.counters.push_back(std::move(c));
  }
  const std::uint32_t n_gauges = r.count(4 + 8);
  frame.metrics.gauges.reserve(n_gauges);
  for (std::uint32_t i = 0; i < n_gauges; ++i) {
    obs::MetricsSnapshot::GaugeEntry g;
    g.name = r.string();
    g.value = r.f64();
    frame.metrics.gauges.push_back(std::move(g));
  }
  const std::uint32_t n_histograms = r.count(4 + 8 + 7 * 8 + 4);
  frame.metrics.histograms.reserve(n_histograms);
  for (std::uint32_t i = 0; i < n_histograms; ++i) {
    obs::MetricsSnapshot::HistogramEntry h;
    h.name = r.string();
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

  const std::uint32_t n_spans = r.count(4 + 3 * 4 + 5 * 8);
  frame.spans.reserve(n_spans);
  for (std::uint32_t i = 0; i < n_spans; ++i) {
    obs::SpanRecord s;
    s.name = r.string();
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
