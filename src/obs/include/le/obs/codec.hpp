/// @file
/// The repo's one byte codec, shared by `le-net` (the shard wire),
/// `le-ckpt-v2` (checkpoint files) and `le-frec-v2` (flight dumps).  Each
/// is one frame of
///
///   magic (u32) | version (u16) | type (u16) | payload_len (u32) |
///   payload_crc32 (u32) | payload bytes
///
/// with every integer little-endian and written byte-wise (no struct
/// punning, so the bytes are identical on any host).  A decoder checks,
/// in order: magic, version (a skew throws the distinct VersionSkewError),
/// that the length fits the format's maximum or the bytes present, then
/// the CRC — before one payload byte is interpreted.  Payload reads are
/// bounds-checked, and every element count is checked against the
/// remaining bytes before anything is allocated.  store_le, load_le and
/// store_frame_header are noexcept and never allocate: the flight recorder
/// serializes its dump with them inside a fatal-signal handler.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "le/obs/crc32.hpp"

namespace le::obs {

/// Malformed bytes: bad magic, bad length, CRC mismatch, a read past the
/// end, an impossible count, or trailing bytes.  Formats with their own
/// public error type translate at their read entry point.
class CodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The frame carries another version than this build reads: "mixed
/// versions, redeploy the laggard", not "corruption".
class VersionSkewError : public CodecError {
 public:
  using CodecError::CodecError;
};

/// Writes the low `n` bytes of `v` at `p`, least significant first.
constexpr void store_le(unsigned char* p, std::uint64_t v,
                        std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<unsigned char>(v >> (8 * i));
  }
}

/// Reads `n` little-endian bytes at `p`.
constexpr std::uint64_t load_le(const unsigned char* p,
                                std::size_t n) noexcept {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

inline constexpr std::size_t kFrameHeaderBytes = 16;

/// What distinguishes one framed format from another.
struct FrameFormat {
  const char* name;         ///< error-message prefix, e.g. "le-net"
  std::uint32_t magic;      ///< first four bytes
  std::uint16_t version;    ///< exact match required
  std::size_t max_payload;  ///< larger lengths fail before any allocation
};

/// The header fields left to the format once magic, version and the
/// length bound have been checked.
struct FrameHeader {
  std::uint16_t type = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

/// Writes the 16 header bytes for `payload` at `out`, CRC included; the
/// caller guarantees payload.size() <= format.max_payload.
inline void store_frame_header(unsigned char* out, const FrameFormat& format,
                               std::uint16_t type,
                               std::string_view payload) noexcept {
  store_le(out + 0, format.magic, 4);
  store_le(out + 4, format.version, 2);
  store_le(out + 6, type, 2);
  store_le(out + 8, payload.size(), 4);
  store_le(out + 12, crc32(payload), 4);
}

[[noreturn]] inline void codec_fail(const FrameFormat& format,
                                    const std::string& what) {
  throw CodecError(std::string(format.name) + ": " + what);
}

/// Header + payload as one string (CodecError above the maximum).
[[nodiscard]] inline std::string encode_frame(const FrameFormat& format,
                                              std::uint16_t type,
                                              std::string_view payload) {
  if (payload.size() > format.max_payload) {
    codec_fail(format, "payload exceeds the format's maximum length");
  }
  std::string out(kFrameHeaderBytes, '\0');
  store_frame_header(reinterpret_cast<unsigned char*>(out.data()), format,
                     type, payload);
  return out.append(payload);
}

/// Checks magic (CodecError), version (VersionSkewError, older and newer
/// alike) and the length bound (CodecError).
[[nodiscard]] inline FrameHeader decode_frame_header(
    std::span<const unsigned char, kFrameHeaderBytes> bytes,
    const FrameFormat& format) {
  const unsigned char* p = bytes.data();
  if (load_le(p, 4) != format.magic) codec_fail(format, "bad frame magic");
  if (const std::uint64_t version = load_le(p + 4, 2);
      version != format.version) {
    throw VersionSkewError(std::string(format.name) + ": frame version " +
                           std::to_string(version) + ", this build reads " +
                           std::to_string(format.version) +
                           " (failing closed)");
  }
  const FrameHeader header{static_cast<std::uint16_t>(load_le(p + 6, 2)),
                           static_cast<std::uint32_t>(load_le(p + 8, 4)),
                           static_cast<std::uint32_t>(load_le(p + 12, 4))};
  if (header.payload_len > format.max_payload) {
    codec_fail(format, "frame payload length exceeds the format's maximum");
  }
  return header;
}

/// Verifies `payload` against the header's length and CRC (CodecError).
inline void check_frame_payload(const FrameFormat& format,
                                const FrameHeader& header,
                                std::string_view payload) {
  if (payload.size() != header.payload_len) {
    codec_fail(format, "payload length mismatch");
  }
  if (crc32(payload) != header.payload_crc) {
    codec_fail(format, "payload CRC mismatch");
  }
}

/// Decodes `bytes` (a whole file) as exactly one frame of `type` and
/// returns a view of its payload: the header checks, then the length must
/// equal the bytes present (truncation and trailing garbage both fail),
/// then the CRC, then the type.
[[nodiscard]] inline std::string_view decode_frame(std::string_view bytes,
                                                   const FrameFormat& format,
                                                   std::uint16_t type) {
  if (bytes.size() < kFrameHeaderBytes) codec_fail(format, "truncated header");
  const FrameHeader header = decode_frame_header(
      std::span<const unsigned char, kFrameHeaderBytes>(
          reinterpret_cast<const unsigned char*>(bytes.data()),
          kFrameHeaderBytes),
      format);
  const std::string_view payload = bytes.substr(kFrameHeaderBytes);
  check_frame_payload(format, header, payload);
  if (header.type != type) codec_fail(format, "unexpected frame type");
  return payload;
}

/// Little-endian payload builder.
class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { put_le(v, 1); }
  void put_u16(std::uint16_t v) { put_le(v, 2); }
  void put_u32(std::uint32_t v) { put_le(v, 4); }
  void put_u64(std::uint64_t v) { put_le(v, 8); }
  /// IEEE-754 bit pattern: NaN payloads, -0.0 and denormals round-trip.
  void put_f64(double v) { put_le(std::bit_cast<std::uint64_t>(v), 8); }
  /// Raw bytes, no length prefix (caller frames them).
  void put_bytes(std::string_view bytes) { out_.append(bytes); }
  /// u32 element count followed by the doubles.
  void put_f64_vec(std::span<const double> values) {
    put_u32(static_cast<std::uint32_t>(values.size()));
    for (const double v : values) put_f64(v);
  }
  /// u32 byte length followed by the bytes.
  void put_string(std::string_view s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    put_bytes(s);
  }

  [[nodiscard]] const std::string& bytes() const noexcept { return out_; }
  [[nodiscard]] std::string take() noexcept { return std::move(out_); }

 private:
  void put_le(std::uint64_t v, std::size_t n) {
    out_.resize(out_.size() + n);
    store_le(reinterpret_cast<unsigned char*>(out_.data() + out_.size() - n),
             v, n);
  }

  std::string out_;
};

/// Bounds-checked little-endian payload parser: every read validates the
/// remaining length and throws CodecError on overrun.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  [[nodiscard]] std::uint16_t u16() {
    return static_cast<std::uint16_t>(le(2));
  }
  [[nodiscard]] std::uint32_t u32() {
    return static_cast<std::uint32_t>(le(4));
  }
  [[nodiscard]] std::uint64_t u64() { return le(8); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(le(8)); }
  [[nodiscard]] std::string_view bytes(std::size_t n) {
    if (remaining() < n) throw CodecError("codec: read past end of payload");
    pos_ += n;
    return bytes_.substr(pos_ - n, n);
  }
  [[nodiscard]] std::string string() { return std::string(bytes(u32())); }
  [[nodiscard]] std::vector<double> f64_vec() {
    std::vector<double> values(count(8));
    for (double& v : values) v = f64();
    return values;
  }
  /// A u32 element count, rejected before any allocation when the
  /// remaining bytes cannot hold that many elements of `min_bytes` each.
  [[nodiscard]] std::uint32_t count(std::size_t min_bytes) {
    const std::uint32_t n = u32();
    if (remaining() / std::max<std::size_t>(min_bytes, 1) < n) {
      throw CodecError("codec: element count exceeds remaining payload");
    }
    return n;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  /// Throws unless the payload was consumed exactly: trailing bytes mean
  /// writer and reader disagree on the encoding.
  void expect_end() const {
    if (pos_ != bytes_.size()) throw CodecError("codec: trailing bytes");
  }

 private:
  std::uint64_t le(std::size_t n) {
    return load_le(reinterpret_cast<const unsigned char*>(bytes(n).data()), n);
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace le::obs
