/// @file
/// The repo's one CRC-32: IEEE 802.3, reflected polynomial 0xEDB88320.
/// It lives in obs, the lowest module that the flight recorder (obs), the
/// checkpoint container (ckpt, which re-exports it as ckpt::crc32) and the
/// `le-net` wire (net) all link.  The table is built at compile time, so
/// crc32() has no first-use guard and never allocates: it is
/// async-signal-safe, which the flight recorder's crash dump needs.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace le::obs {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    make_crc32_table();

}  // namespace detail

/// CRC-32 over a byte string; crc32("123456789") == 0xCBF43926.
[[nodiscard]] inline std::uint32_t crc32(std::string_view bytes) noexcept {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const unsigned char byte : bytes) {
    c = detail::kCrc32Table[(c ^ byte) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace le::obs
