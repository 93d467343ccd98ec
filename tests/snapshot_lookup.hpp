// Name lookups into an obs::MetricsSnapshot, shared by the tests that read
// a component's exported counters and gauges.  Components export through
// MetricsRegistry::attach, so their counts are only visible in a snapshot,
// never through registry.counter(name).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "le/obs/metrics.hpp"

namespace le::testing_support {

/// The named counter's value, or nullopt when the snapshot has none.
inline std::optional<std::uint64_t> counter_in(
    const obs::MetricsSnapshot& snap, std::string_view name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return std::nullopt;
}

/// The named gauge's value, or nullopt when the snapshot has none.
inline std::optional<double> gauge_in(const obs::MetricsSnapshot& snap,
                                      std::string_view name) {
  for (const auto& g : snap.gauges) {
    if (g.name == name) return g.value;
  }
  return std::nullopt;
}

}  // namespace le::testing_support
