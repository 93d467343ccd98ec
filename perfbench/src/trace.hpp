/// @file
/// The benchmark's own span recorder: spans are recorded around calls into
/// the library's public functions (never inside them), kept in memory, and
/// written as one Chrome trace when the run ends.  The per-layer self-time
/// table is computed from the same spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock instants.
[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One recorded interval.  `parent` is 0 for a root span; ids start at 1.
struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint64_t request = 0;
};

/// Per-name aggregate of the self-time table.
struct SpanTotals {
  std::size_t count = 0;
  double total_seconds = 0.0;
  /// Duration minus the part of the span's interval its children cover.
  double self_seconds = 0.0;
};

/// Records spans from ONE thread.  Disabled recorders cost one branch per
/// call and record nothing, so untraced runs measure the bare stack.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = false) : enabled_(enabled) {}

  /// Opens a span whose parent is the innermost open span; returns its id
  /// (0 when disabled).
  std::uint32_t begin(const char* name, std::uint64_t request);
  /// Closes the innermost open span, which must be `id`.
  void end(std::uint32_t id);

  /// Self-time aggregates keyed by span name.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;

  /// Share of the root spans' total duration that no child span covers.
  [[nodiscard]] double root_uncovered_share() const;

  /// Writes every span as a Chrome trace-event JSON array ("X" events, one
  /// pid, microsecond timestamps relative to the first span; args carry id,
  /// parent and request).  Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Prints the self-time table: per span name, count, total and self
/// seconds, and self time as a share of the root spans' duration.
void print_self_time_table(const std::map<std::string, SpanTotals>& totals);

}  // namespace perfbench
