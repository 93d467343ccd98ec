// Seeded byte-string mutator shared by the decoder fuzz tests: a fixed
// splitmix64 stream drives one of four mutation kinds per case — bit
// flips, truncation, a splice of the original over another offset, or a
// 4- or 8-byte run overwritten with a boundary value (0, 0x7FFFFFFF,
// 0xFFFFFFFF) or ASCII garbage — so length fields, counts, CRCs and
// payload bytes are all hit, reproducibly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace le::testing_support {

class ByteMutator {
 public:
  explicit ByteMutator(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

  /// Case `c` of the fuzz loop applied to `good` (mutation kind c % 4).
  std::string mutate(const std::string& good, int c) {
    std::string bytes = good;
    switch (c % 4) {
      case 0:  // 1-4 bit flips
        for (std::size_t f = 0, n = 1 + below(4); f < n; ++f) {
          bytes[below(bytes.size())] ^= static_cast<char>(1U << below(8));
        }
        break;
      case 1:  // truncation
        bytes.resize(below(bytes.size()));
        break;
      case 2: {  // splice: a slice of the original pasted over another offset
        const std::size_t from = below(good.size());
        const std::size_t len =
            1 + below(std::min<std::size_t>(32, good.size() - from));
        const std::size_t to = below(bytes.size());
        bytes.replace(to, std::min(len, bytes.size() - to),
                      good.substr(from, len));
        break;
      }
      default: {  // a 4- or 8-byte run overwritten
        const std::size_t run = below(2) == 0 ? 4 : 8;
        const std::size_t at = below(bytes.size() - run + 1);
        const std::uint32_t values[] = {0U, 0x7FFFFFFFU, 0xFFFFFFFFU};
        const std::size_t pick = below(4);
        for (std::size_t k = 0; k < run; k += 4) {
          if (pick < 3) {
            std::memcpy(bytes.data() + at + k, &values[pick], 4);
          } else {
            for (std::size_t i = 0; i < 4; ++i) {
              bytes[at + k + i] = static_cast<char>(' ' + below(95));
            }
          }
        }
        break;
      }
    }
    return bytes;
  }

 private:
  std::uint64_t state_;
};

}  // namespace le::testing_support
