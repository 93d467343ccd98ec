#include "le/stats/rng.hpp"

#include <algorithm>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LE_MT_AVX2 __attribute__((target("avx2")))
#endif

namespace le::stats {

namespace {

// ---------------------------------------------------------------------------
// The MT19937-64 twist and tempering, scalar and on four AVX2 lanes.  Both
// are integer-only (shifts, ands, xors, one subtract), so the lanes give the
// scalar loop's words exactly.

constexpr std::size_t kN = Mt19937_64::state_size;
constexpr std::size_t kShift = 156;
constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLower = ~kUpper;
constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9ULL;

inline std::uint64_t twist(std::uint64_t upper, std::uint64_t lower,
                           std::uint64_t shifted) noexcept {
  const std::uint64_t y = (upper & kUpper) | (lower & kLower);
  // Branch-free: the low bit is a coin flip, so a branch on it mispredicts
  // every other word.
  return shifted ^ (y >> 1) ^ (kMatrix & (0 - (y & 1U)));
}

void refill_scalar(std::uint64_t* x) noexcept {
  std::size_t k = 0;
  for (; k < kN - kShift; ++k) x[k] = twist(x[k], x[k + 1], x[k + kShift]);
  for (; k < kN - 1; ++k) x[k] = twist(x[k], x[k + 1], x[k + kShift - kN]);
  x[kN - 1] = twist(x[kN - 1], x[0], x[kShift - 1]);
}

#if defined(LE_MT_AVX2)
LE_MT_AVX2 inline __m256i twist4(__m256i upper, __m256i lower,
                                 __m256i shifted) noexcept {
  const __m256i y = _mm256_or_si256(
      _mm256_and_si256(upper, _mm256_set1_epi64x(static_cast<long long>(kUpper))),
      _mm256_and_si256(lower, _mm256_set1_epi64x(static_cast<long long>(kLower))));
  const __m256i odd = _mm256_sub_epi64(
      _mm256_setzero_si256(), _mm256_and_si256(y, _mm256_set1_epi64x(1)));
  return _mm256_xor_si256(
      shifted,
      _mm256_xor_si256(
          _mm256_srli_epi64(y, 1),
          _mm256_and_si256(odd, _mm256_set1_epi64x(
                                    static_cast<long long>(kMatrix)))));
}

LE_MT_AVX2 inline __m256i load4(const std::uint64_t* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

LE_MT_AVX2 inline void store4(std::uint64_t* p, __m256i v) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

// The scalar loop, four words per iteration.  Word k reads x[k + 1] and
// x[k + 156] before they are rewritten (lanes k..k+3 load x[k+1..k+4] before
// storing x[k..k+3]) and, past the middle, x[k - 156] after it was rewritten
// (156 words back, far behind the four-word store), so each lane reads what
// the scalar loop reads.
LE_MT_AVX2 void refill_avx2(std::uint64_t* x) noexcept {
  std::size_t k = 0;
  static_assert((kN - kShift) % 4 == 0);
  for (; k < kN - kShift; k += 4) {
    store4(x + k, twist4(load4(x + k), load4(x + k + 1), load4(x + k + kShift)));
  }
  for (; k + 4 < kN; k += 4) {
    store4(x + k, twist4(load4(x + k), load4(x + k + 1), load4(x + k - kShift)));
  }
  for (; k < kN - 1; ++k) x[k] = twist(x[k], x[k + 1], x[k - kShift]);
  x[kN - 1] = twist(x[kN - 1], x[0], x[kShift - 1]);
}

// Mt19937_64::temper on four lanes; returns how many words it wrote (n
// rounded down to a multiple of 4).
LE_MT_AVX2 std::size_t temper_avx2(const std::uint64_t* x, std::uint64_t* out,
                                   std::size_t n) noexcept {
  const __m256i b = _mm256_set1_epi64x(0x5555555555555555LL);
  const __m256i c = _mm256_set1_epi64x(0x71d67fffeda60000LL);
  const __m256i d =
      _mm256_set1_epi64x(static_cast<long long>(0xfff7eee000000000ULL));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i z = load4(x + i);
    z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_srli_epi64(z, 29), b));
    z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 17), c));
    z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 37), d));
    store4(out + i, _mm256_xor_si256(z, _mm256_srli_epi64(z, 43)));
  }
  return i;
}
#endif

bool cpu_has_avx2() noexcept {
#if defined(LE_MT_AVX2)
  // A static initializer elsewhere may draw before libgcc's own CPU probe
  // has run; the explicit init makes the answer valid either way.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

// Whether the refill and generate() run four words per AVX2 instruction:
// when the CPU has AVX2 and LE_KERNEL is not "scalar".  Read once.
bool avx2_active() noexcept {
  static const bool active = [] {
    const char* env = std::getenv("LE_KERNEL");
    return cpu_has_avx2() &&
           !(env != nullptr && std::string_view(env) == "scalar");
  }();
  return active;
}

/// An engine that returns one fixed output and counts how often it is asked.
/// Its range is Mt19937_64's, so the library maps its output to the same
/// canonical double.
struct FixedOutput {
  using result_type = Mt19937_64::result_type;
  static constexpr result_type min() noexcept { return Mt19937_64::min(); }
  static constexpr result_type max() noexcept { return Mt19937_64::max(); }
  result_type operator()() noexcept {
    ++calls;
    return value;
  }
  result_type value;
  int calls = 0;
};

bool library_draw(double p, std::uint64_t output) {
  FixedOutput engine{output};
  const bool hit = std::bernoulli_distribution(p)(engine);
  if (engine.calls != 1) {
    throw std::logic_error(
        "BernoulliCut: the library draw takes other than one engine output");
  }
  return hit;
}

// The largest engine output for which the library draw at p is true.
std::uint64_t last_true_output(double p) {
  if (!(p > 0.0 && p <= 1.0)) {
    throw std::invalid_argument("BernoulliCut: p must be in (0,1]");
  }
  std::uint64_t lo = Mt19937_64::min();
  std::uint64_t hi = Mt19937_64::max();
  if (!library_draw(p, lo)) {
    throw std::logic_error("BernoulliCut: the library draw is false at 0");
  }
  if (library_draw(p, hi)) return hi;
  // The draw is true at lo and false at hi.
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (library_draw(p, mid) ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace

void Mt19937_64::refill() noexcept {
#if defined(LE_MT_AVX2)
  if (avx2_active()) {
    refill_avx2(x_.data());
    p_ = 0;
    return;
  }
#endif
  refill_scalar(x_.data());
  p_ = 0;
}

void Mt19937_64::generate(std::span<result_type> out) noexcept {
  [[maybe_unused]] const bool avx2 = avx2_active();
  std::size_t done = 0;
  while (done < out.size()) {
    if (p_ >= state_size) refill();
    const std::size_t n = std::min(out.size() - done, state_size - p_);
    const result_type* words = x_.data() + p_;
    result_type* dst = out.data() + done;
    std::size_t i = 0;
#if defined(LE_MT_AVX2)
    if (avx2) i = temper_avx2(words, dst, n);
#endif
    for (; i < n; ++i) dst[i] = temper(words[i]);
    p_ += n;
    done += n;
  }
}

BernoulliCut::BernoulliCut(double p) : last_true_(last_true_output(p)) {}

}  // namespace le::stats
