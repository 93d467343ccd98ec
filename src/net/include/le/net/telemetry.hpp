/// @file
/// Telemetry frames: how a worker's observability state crosses the wire.
///
/// The observability plane needs worker state at the router — metrics
/// snapshots for fleet-wide gauges, Section III-D meter snapshots for
/// per-shard S_eff, and completed trace spans so one merged Chrome trace
/// shows a request descending from the router into a worker and back.  A
/// TelemetryFrame bundles all three plus the worker's identity (pid,
/// process name) into one `le-net` v3 payload.
///
/// Delivery respects the shard protocol's strict request/response shape —
/// a worker never sends an unsolicited frame (that would desync the
/// router's exchange bookkeeping).  Instead telemetry travels two ways:
///   1. piggybacked on every Nth kAnswer (ShardLoopOptions::telemetry_every)
///      — the steady-state path, amortized to ~zero extra round trips;
///   2. pulled explicitly with kTelemetry -> kTelemetryReply — the
///      on-demand path (ShardedService::poll_telemetry) for dashboards and
///      tests that cannot wait for the cadence.
/// Spans ship via TraceLog::drain(), so each span is delivered exactly
/// once; metrics and meter snapshots are absolute (last write wins at the
/// router).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "le/net/wire.hpp"
#include "le/obs/metrics.hpp"
#include "le/obs/speedup_meter.hpp"
#include "le/obs/timer.hpp"

namespace le::net {

/// One worker's observability state at a point in time.
struct TelemetryFrame {
  std::uint32_t pid = 0;
  std::string process_name;
  obs::EffectiveSpeedupMeter::Snapshot meter;
  obs::MetricsSnapshot metrics;
  std::vector<obs::SpanRecord> spans;  ///< drained: delivered exactly once
};

/// Serializes / parses a TelemetryFrame payload.  decode_telemetry
/// validates exhaustively (WireError on any overrun or trailing bytes).
[[nodiscard]] std::string encode_telemetry(const TelemetryFrame& frame);
[[nodiscard]] TelemetryFrame decode_telemetry(std::string_view payload);

/// Snapshots THIS process's observability state into a frame: pid, process
/// name, `meter`, the global MetricsRegistry, and the global TraceLog
/// (drained).  What a worker calls to build its push.
[[nodiscard]] TelemetryFrame collect_local_telemetry(
    obs::EffectiveSpeedupMeter& meter);

}  // namespace le::net
