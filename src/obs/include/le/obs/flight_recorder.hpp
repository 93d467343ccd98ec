/// @file
/// Crash flight recorder: a fixed-size lock-free ring of recent events that
/// can be dumped to disk from a fatal-signal handler.
///
/// Metrics say *how much*; traces say *where time went*; neither survives a
/// SIGSEGV.  The flight recorder is the black box: every worker keeps the
/// last N interesting events (span completions, protocol milestones,
/// degradation transitions) in a preallocated ring, and on the way down —
/// fatal signal, router disappearance, or a periodic telemetry push — dumps
/// the ring to a CRC-framed file the router harvests for postmortems.
/// SIGKILL cannot be caught, so the periodic dump cadence is the honesty
/// mechanism: after a kill -9 the harvested file is as fresh as the last
/// cadence point, never absent.
///
/// Constraints that shape the design:
///  - record() is noexcept, allocation-free and lock-free (one relaxed
///    fetch_add + a seqlock-stamped 64-byte slot write) so it is safe on
///    hot paths and cheap enough to leave on in production.
///  - dump() is async-signal-safe: no malloc, no locks, no stdio — it
///    serializes the ring into a buffer preallocated by configure() and
///    uses raw ::open/::write/::close.  Slots caught mid-write by the
///    seqlock check are skipped, not torn.
///  - The on-disk format (`le-frec-v2`) is one frame of the shared codec
///    (le/obs/codec.hpp): a CRC32 over the payload and an exact length, so
///    a dump truncated by the dying process is detected, not misparsed.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace le::obs {

/// One ring slot: a timestamp, a 31-char label and two free-form payload
/// words (span ids, durations, shard indices — caller's choice).
struct FlightEvent {
  static constexpr std::size_t kNameBytes = 32;

  double t_seconds = 0.0;    ///< process_clock_seconds() at record time
  std::uint64_t a = 0;       ///< payload word A (e.g. span_id)
  std::uint64_t b = 0;       ///< payload word B (e.g. duration in ns)
  std::uint32_t pid = 0;     ///< recording process
  std::uint32_t thread = 0;  ///< this_thread_ordinal() of the recorder
  char name[kNameBytes] = {};  ///< NUL-terminated label (truncated to fit)
};

/// A parsed `le-frec-v2` dump file.
struct FlightDump {
  std::uint32_t pid = 0;
  std::vector<FlightEvent> events;  ///< oldest first
};

/// A dump file failed validation (bad magic/version, truncation, CRC
/// mismatch).  Typed so the harvesting router can count corrupt dumps
/// separately from missing ones.
class FlightDumpError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class FlightRecorder {
 public:
  static constexpr std::uint32_t kDefaultCapacity = 1024;

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  ~FlightRecorder();

  /// Arms the recorder: preallocates the ring (`capacity` slots) and the
  /// dump buffer, and remembers `path` (copied into fixed storage — dump()
  /// must not touch std::string).  Calling again reconfigures (drops prior
  /// events).  Not thread-safe against concurrent record(); call before
  /// the threads that record.
  void configure(const std::string& path,
                 std::uint32_t capacity = kDefaultCapacity);

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_acquire);
  }

  /// Appends one event (lock-free, allocation-free, noexcept; no-op when
  /// unconfigured).  `name` is truncated to 31 bytes.
  void record(const char* name, std::uint64_t a = 0,
              std::uint64_t b = 0) noexcept;

  /// Serializes the ring to the configured path (async-signal-safe).
  /// Returns false when unconfigured or any syscall fails.  Safe to call
  /// repeatedly — each call writes a staging file ("<path>.tmp") and
  /// ::rename()s it into place, so a reader (or a SIGKILL landing
  /// mid-dump) sees either the previous complete dump or the new one,
  /// never a truncated in-between.
  bool dump() noexcept;

  /// Events currently in the ring, oldest first (for tests/telemetry; NOT
  /// signal-safe — may observe slots mid-write and skip them).
  [[nodiscard]] std::vector<FlightEvent> events() const;

  /// Total record() calls since configure().
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return cursor_.load(std::memory_order_relaxed);
  }

  /// The process-wide recorder the built-in hooks (TraceSpan completions,
  /// ShardedService workers) report to.
  [[nodiscard]] static FlightRecorder& global();

 private:
  struct Slot {
    /// Seqlock stamp, odd while a write is in progress.  Mutable because
    /// readers re-check it with a read-modify-write (see dump()).
    mutable std::atomic<std::uint64_t> seq{0};
    FlightEvent event;
  };

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> cursor_{0};
  std::vector<Slot> slots_;
  std::vector<unsigned char> dump_buffer_;  ///< preallocated by configure()
  char path_[256] = {};                     ///< C string for ::rename in handler
  char tmp_path_[264] = {};                 ///< staging file; see dump()
};

/// Installs fatal-signal handlers (SIGSEGV, SIGABRT, SIGBUS, SIGILL,
/// SIGFPE) that dump FlightRecorder::global() and then re-raise with the
/// default disposition, so the process still dies with the original signal
/// (and exit-status reporting upstream stays truthful).  Idempotent.
void install_flight_signal_handlers();

/// When enabled, every completed TraceSpan also records a flight event
/// ("span:<name>", a = span_id, b = duration in microseconds) into
/// FlightRecorder::global() — the black box then holds the tail of the
/// trace without a second instrumentation pass.  Off by default.
void set_flight_span_hook_enabled(bool on) noexcept;
[[nodiscard]] bool flight_span_hook_enabled() noexcept;

/// Parses a `le-frec-v2` dump file; throws FlightDumpError on bad magic,
/// version skew, truncation or CRC mismatch.
[[nodiscard]] FlightDump read_flight_dump(const std::string& path);

}  // namespace le::obs
