#include "le/obs/flight_recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>

#include "le/obs/codec.hpp"
#include "le/obs/timer.hpp"

namespace le::obs {

namespace {

// `le-frec-v2`: one codec frame (magic "LEFR", version 2, type 1) whose
// payload is
//   u32 pid | u32 count | count * 64-byte entries:
//     f64 t_seconds | u64 a | u64 b | u32 pid | u32 thread | char name[32]
constexpr FrameFormat kFlightFormat{"le-frec", 0x5246454Cu, 2, 0xFFFFFFFFu};
constexpr std::uint16_t kFlightDumpType = 1;
constexpr std::size_t kFlightPrefixBytes = 8;
constexpr std::size_t kFlightEntryBytes = 64;

void serialize_event(unsigned char* p, const FlightEvent& e) noexcept {
  store_le(p + 0, std::bit_cast<std::uint64_t>(e.t_seconds), 8);
  store_le(p + 8, e.a, 8);
  store_le(p + 16, e.b, 8);
  store_le(p + 24, e.pid, 4);
  store_le(p + 28, e.thread, 4);
  std::memcpy(p + 32, e.name, FlightEvent::kNameBytes);
}

/// Full ::write loop tolerant of EINTR/short writes (async-signal-safe).
bool write_all(int fd, const unsigned char* data, std::size_t len) noexcept {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::atomic<bool> g_flight_span_hook{false};

}  // namespace

FlightRecorder::~FlightRecorder() = default;

void FlightRecorder::configure(const std::string& path,
                               std::uint32_t capacity) {
  enabled_.store(false, std::memory_order_release);
  if (capacity == 0) capacity = 1;
  slots_ = std::vector<Slot>(capacity);
  dump_buffer_.assign(kFrameHeaderBytes + kFlightPrefixBytes +
                          static_cast<std::size_t>(capacity) *
                              kFlightEntryBytes,
                      0);
  std::memset(path_, 0, sizeof(path_));
  std::strncpy(path_, path.c_str(), sizeof(path_) - 1);
  std::memset(tmp_path_, 0, sizeof(tmp_path_));
  std::strncpy(tmp_path_, path_, sizeof(tmp_path_) - 5);
  std::strcat(tmp_path_, ".tmp");
  cursor_.store(0, std::memory_order_relaxed);
  // Warm the clock epoch now: dump() timestamps may be read inside a signal
  // handler, where a first-use static initialization (and its guard lock)
  // would not be safe.  (The CRC table is constexpr — nothing to warm.)
  (void)process_clock_seconds();
  enabled_.store(true, std::memory_order_release);
}

void FlightRecorder::record(const char* name, std::uint64_t a,
                            std::uint64_t b) noexcept {
  if (!enabled()) return;
  const std::uint64_t idx = cursor_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[idx % slots_.size()];
  // Seqlock stamp: odd while the slot is being written.  Two writers
  // lapping onto the same slot could in principle interleave; the ring is
  // sized far above writer count, and dump() only skips, never tears.
  slot.seq.fetch_add(1, std::memory_order_acq_rel);
  slot.event.t_seconds = process_clock_seconds();
  slot.event.a = a;
  slot.event.b = b;
  slot.event.pid = static_cast<std::uint32_t>(::getpid());
  slot.event.thread = this_thread_ordinal();
  if (name != nullptr) {
    std::strncpy(slot.event.name, name, FlightEvent::kNameBytes - 1);
    slot.event.name[FlightEvent::kNameBytes - 1] = '\0';
  } else {
    slot.event.name[0] = '\0';
  }
  slot.seq.fetch_add(1, std::memory_order_release);
}

bool FlightRecorder::dump() noexcept {
  if (!enabled()) return false;
  unsigned char* buf = dump_buffer_.data();
  unsigned char* payload = buf + kFrameHeaderBytes;
  const std::uint64_t end = cursor_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  const std::uint64_t begin = end > cap ? end - cap : 0;

  std::size_t len = kFlightPrefixBytes;
  std::uint32_t count = 0;
  for (std::uint64_t i = begin; i < end; ++i) {
    Slot& slot = slots_[i % cap];
    const std::uint64_t seq1 = slot.seq.load(std::memory_order_acquire);
    if (seq1 & 1) continue;  // mid-write: skip rather than tear
    FlightEvent copy = slot.event;
    // Adding 0 with release order keeps the copy before the re-check and
    // reads the newest stamp.  An acquire fence would also do, but
    // ThreadSanitizer cannot model fences.
    if (slot.seq.fetch_add(0, std::memory_order_acq_rel) != seq1) continue;
    serialize_event(payload + len, copy);
    len += kFlightEntryBytes;
    ++count;
  }
  store_le(payload + 0, static_cast<std::uint32_t>(::getpid()), 4);
  store_le(payload + 4, count, 4);
  store_frame_header(buf, kFlightFormat, kFlightDumpType,
                     {reinterpret_cast<const char*>(payload), len});
  // Stage-then-rename: a dump interrupted mid-write (the process can be
  // SIGKILLed at any instant) must never clobber the previous complete
  // dump — the black box's newest intact recording is the whole point.
  // Both ::open/::write and ::rename are async-signal-safe.
  const int fd = ::open(tmp_path_, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool ok = write_all(fd, buf, kFrameHeaderBytes + len);
  ::close(fd);
  if (!ok) return false;
  return ::rename(tmp_path_, path_) == 0;
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::vector<FlightEvent> out;
  if (!enabled()) return out;
  const std::uint64_t end = cursor_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  const std::uint64_t begin = end > cap ? end - cap : 0;
  out.reserve(static_cast<std::size_t>(end - begin));
  for (std::uint64_t i = begin; i < end; ++i) {
    const Slot& slot = slots_[i % cap];
    const std::uint64_t seq1 = slot.seq.load(std::memory_order_acquire);
    if (seq1 & 1) continue;
    FlightEvent copy = slot.event;
    if (slot.seq.fetch_add(0, std::memory_order_acq_rel) != seq1) continue;
    out.push_back(copy);
  }
  return out;
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

namespace {

extern "C" void flight_fatal_handler(int sig) {
  FlightRecorder::global().dump();
  // SA_RESETHAND restored the default disposition; re-raise so the process
  // dies with the original signal and wait-status reporting stays truthful.
  ::raise(sig);
}

}  // namespace

void install_flight_signal_handlers() {
  static std::atomic<bool> installed{false};
  if (installed.exchange(true)) return;
  (void)FlightRecorder::global();  // force static init outside handlers
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = flight_fatal_handler;
  sa.sa_flags = SA_RESETHAND;
  sigemptyset(&sa.sa_mask);
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGILL, SIGFPE}) {
    ::sigaction(sig, &sa, nullptr);
  }
}

void set_flight_span_hook_enabled(bool on) noexcept {
  g_flight_span_hook.store(on, std::memory_order_relaxed);
}

bool flight_span_hook_enabled() noexcept {
  return g_flight_span_hook.load(std::memory_order_relaxed);
}

FlightDump read_flight_dump(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw FlightDumpError("flight dump unreadable: " + path);
  const std::string bytes{std::istreambuf_iterator<char>(file),
                          std::istreambuf_iterator<char>()};
  try {
    ByteReader r(decode_frame(bytes, kFlightFormat, kFlightDumpType));
    FlightDump dump;
    dump.pid = r.u32();
    dump.events.resize(r.count(kFlightEntryBytes));
    for (FlightEvent& e : dump.events) {
      e.t_seconds = r.f64();
      e.a = r.u64();
      e.b = r.u64();
      e.pid = r.u32();
      e.thread = r.u32();
      std::memcpy(e.name, r.bytes(FlightEvent::kNameBytes).data(),
                  FlightEvent::kNameBytes);
      e.name[FlightEvent::kNameBytes - 1] = '\0';
    }
    r.expect_end();
    return dump;
  } catch (const CodecError& e) {
    throw FlightDumpError(std::string(e.what()) + ": " + path);
  }
}

}  // namespace le::obs
