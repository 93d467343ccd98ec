/// @file
/// The `le-net-v1` wire format: CRC-framed, versioned, fail-closed.
///
/// The sharded serving service is the repo's first process boundary, and a
/// process boundary is where silent corruption becomes possible: a torn
/// write on a socket, a version-skewed worker parsing a router's frame, a
/// flipped bit in transit.  This header applies the `le-ckpt-v1` framing
/// discipline (DESIGN.md section 9) to the network: every message travels
/// as one frame of
///
///   magic (u32) | version (u16) | type (u16) | payload_len (u32) |
///   payload_crc32 (u32) | payload bytes
///
/// with all integers little-endian, serialized byte-wise (no struct
/// punning, so the format is identical on any host).  A reader validates
/// magic, version, a bounded length and the payload CRC before a single
/// payload byte is interpreted; anything unexpected throws — an old worker
/// facing a new router fails closed with VersionSkewError instead of
/// misparsing (the DESIGN.md section 15 contract).  WireWriter/WireReader
/// provide the bounds-checked primitive encoding the payloads are built
/// from; doubles travel as IEEE-754 bit patterns, so values (including
/// NaN deadline sentinels) round-trip bit-exactly.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace le::net {

/// "LEN1" as little-endian bytes 'L','E','N','1' — first bytes on the
/// wire, so a stray peer speaking anything else is rejected immediately.
inline constexpr std::uint32_t kWireMagic = 0x314E454CU;
/// Bumped on ANY incompatible change to framing or payload encodings.
/// History:
///   1  initial shard protocol (kHello..kError)
///   2  observability plane: kQuery carries a trailing TraceContext
///      (u64 trace_id | u64 parent span_id), kAnswer carries a trailing
///      telemetry section (u8 has_telemetry | telemetry payload), and the
///      kTelemetry/kTelemetryReply pull pair exists.  Version skew in
///      EITHER direction fails closed with VersionSkewError — an old
///      reader must never interpret the new trailing fields as garbage,
///      and a new reader must never invent zeros for fields an old writer
///      did not send.
///   3  telemetry histograms carry sparse log-linear buckets
///      (u32 n | n x (u32 index | u64 count)) instead of 40 dense
///      power-of-two bucket counts.
inline constexpr std::uint16_t kWireVersion = 3;
/// Upper bound on one frame's payload: rejects absurd lengths (a corrupt
/// header must not make the receiver try to allocate gigabytes).
inline constexpr std::size_t kMaxPayloadBytes = std::size_t{1} << 26;
/// Bytes of the fixed frame header preceding the payload.
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// Malformed wire data: bad magic, bad framing, CRC mismatch, truncated or
/// oversized payload, or a payload decode that ran past its end.  Fail
/// closed: a frame that throws must be treated as a dead peer, never
/// retried against the same bytes.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The peer speaks a different `le-net` version.  Deliberately distinct
/// from WireError so operators can tell "rolling upgrade mixed versions"
/// (redeploy the laggard) from "corruption" (investigate the transport).
class VersionSkewError : public WireError {
 public:
  using WireError::WireError;
};

/// Frame types of the shard protocol (router <-> worker).
enum class MsgType : std::uint16_t {
  kHello = 1,       ///< worker -> router at startup: recovery flag + meter
  kQuery = 2,       ///< router -> worker: input batch + deadline budgets
  kAnswer = 3,      ///< worker -> router: per-row answers
  kSyncPull = 4,    ///< router -> worker: request replica parameters
  kParams = 5,      ///< worker -> router: flat parameter vector
  kSyncPush = 6,    ///< router -> worker: merged parameters to adopt
  kAck = 7,         ///< generic success acknowledgement
  kStats = 8,       ///< router -> worker: request meter snapshot
  kStatsReply = 9,  ///< worker -> router: EffectiveSpeedupMeter snapshot
  kCheckpoint = 10, ///< router -> worker: persist state via le::ckpt now
  kShutdown = 11,   ///< router -> worker: finish up and exit cleanly
  kError = 12,      ///< worker -> router: request failed; payload = reason
  kTelemetry = 13,      ///< router -> worker: push your telemetry now (v2)
  kTelemetryReply = 14, ///< worker -> router: TelemetryFrame payload (v2)
};

/// One decoded frame: its type and the CRC-verified payload bytes.
struct Frame {
  MsgType type = MsgType::kError;
  std::string payload;
};

/// Serializes a complete frame (header + payload) ready to write to a
/// transport.  Throws WireError when `payload` exceeds kMaxPayloadBytes.
[[nodiscard]] std::string encode_frame(MsgType type, std::string_view payload);

/// Parsed and validated fixed header of an incoming frame.
struct FrameHeader {
  MsgType type = MsgType::kError;
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

/// Validates the 16 header bytes: magic (WireError), version
/// (VersionSkewError — fail closed on skew, both older and newer), and a
/// bounded payload length.  The payload itself is validated separately by
/// check_payload once its bytes have arrived.
[[nodiscard]] FrameHeader decode_frame_header(
    std::span<const std::uint8_t, kFrameHeaderBytes> bytes);

/// Verifies `payload` against the header's length and CRC32; throws
/// WireError on mismatch.
void check_payload(const FrameHeader& header, std::string_view payload);

/// Bounds-unchecked-free little-endian payload builder.  All multi-byte
/// values are emitted byte-wise so the encoding is host-independent.
class WireWriter {
 public:
  void put_u8(std::uint8_t v);
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  /// IEEE-754 bit pattern; NaNs round-trip (used as "no deadline").
  void put_f64(double v);
  /// Raw bytes, no length prefix (caller frames them).
  void put_bytes(std::string_view bytes);
  /// u32 element count followed by the doubles.
  void put_f64_vec(std::span<const double> values);

  [[nodiscard]] const std::string& bytes() const noexcept { return out_; }
  [[nodiscard]] std::string take() noexcept { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked little-endian payload parser: every read validates the
/// remaining length and throws WireError on overrun, so a truncated or
/// adversarial payload can never read out of bounds.
class WireReader {
 public:
  explicit WireReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string_view bytes(std::size_t n);
  [[nodiscard]] std::vector<double> f64_vec();

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  /// Throws WireError unless the payload was consumed exactly — trailing
  /// garbage means the sender and receiver disagree on the encoding.
  void expect_end() const;

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace le::net
