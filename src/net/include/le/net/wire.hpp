/// @file
/// The `le-net` wire format: CRC-framed, versioned, fail-closed.
///
/// The sharded serving service is the repo's first process boundary, and a
/// process boundary is where silent corruption becomes possible: a torn
/// write on a socket, a version-skewed worker parsing a router's frame, a
/// flipped bit in transit.  Every message travels as one frame of the
/// repo's shared codec (le/obs/codec.hpp, DESIGN.md section 15):
///
///   magic (u32) | version (u16) | type (u16) | payload_len (u32) |
///   payload_crc32 (u32) | payload bytes
///
/// A reader validates magic, version, a bounded length and the payload CRC
/// before a single payload byte is interpreted; anything unexpected throws
/// — an old worker facing a new router fails closed with VersionSkewError
/// instead of misparsing.  Payloads are built with the codec's
/// bounds-checked ByteWriter/ByteReader (aliased here as WireWriter and
/// WireReader); doubles travel as IEEE-754 bit patterns, so values
/// (including NaN deadline sentinels) round-trip bit-exactly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "le/obs/codec.hpp"

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
using obs::kFrameHeaderBytes;
/// The codec parameters of an `le-net` frame.
inline constexpr obs::FrameFormat kWireFormat{"le-net", kWireMagic,
                                              kWireVersion, kMaxPayloadBytes};

/// Malformed wire data: bad magic, bad framing, CRC mismatch, truncated or
/// oversized payload, or a payload decode that ran past its end.  Fail
/// closed: a frame that throws must be treated as a dead peer, never
/// retried against the same bytes.
using WireError = obs::CodecError;

/// The peer speaks a different `le-net` version.  Deliberately distinct
/// from WireError (a subclass of it) so operators can tell "rolling
/// upgrade mixed versions" (redeploy the laggard) from "corruption"
/// (investigate the transport).
using VersionSkewError = obs::VersionSkewError;

/// Payload builder and bounds-checked parser (the shared codec's).
using WireWriter = obs::ByteWriter;
using WireReader = obs::ByteReader;

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

}  // namespace le::net
