/// @file
/// Deterministic random-number streams.
///
/// Everything stochastic in the repository (MD thermostats, SEIR transitions,
/// NN initialization, dropout masks, samplers) draws from le::stats::Rng so
/// that every experiment is reproducible from a single seed.  Substreams are
/// derived with split(), which uses SplitMix64 on the parent state so sibling
/// streams are statistically independent.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <random>
#include <span>

namespace le::stats {

/// MT19937-64, written out here.  Its seeding, outputs and stream text are
/// those of std::mt19937_64 as libstdc++ implements it (312 state words, then
/// the position index), so checkpointed streams read back either way.  It
/// exists because libstdc++ declares std::mt19937_64 an extern template:
/// every draw through it is an out-of-line library call, which costs several
/// times the draw itself.  operator() is inline; only the refill, once per
/// 312 words, and the block draw generate() are out of line, where they run
/// on four AVX2 lanes when the CPU has AVX2 and the LE_KERNEL environment
/// variable is not "scalar".  Both paths give the same words and leave the
/// same state (DESIGN.md section 13).
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t state_size = 312;
  static constexpr result_type default_seed = 5489U;

  explicit Mt19937_64(result_type seed = default_seed) noexcept {
    x_[0] = seed;
    for (std::size_t i = 1; i < state_size; ++i) {
      x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (p_ >= state_size) refill();
    return temper(x_[p_++]);
  }

  /// Writes the next out.size() outputs: the words that many calls of
  /// operator() would return, leaving the same state (and stream text)
  /// behind.  Under AVX2 it tempers four words per instruction; a caller
  /// that needs a block of draws gets them at a fraction of the per-call
  /// cost (DESIGN.md section 13).
  void generate(std::span<result_type> out) noexcept;

  friend bool operator==(const Mt19937_64&, const Mt19937_64&) = default;

  friend std::ostream& operator<<(std::ostream& os, const Mt19937_64& e) {
    const std::ios_base::fmtflags flags = os.flags();
    const char fill = os.fill();
    os.flags(std::ios_base::dec | std::ios_base::fixed | std::ios_base::left);
    os.fill(' ');
    for (const result_type word : e.x_) os << word << ' ';
    os << e.p_;
    os.flags(flags);
    os.fill(fill);
    return os;
  }

  /// Reads what operator<< writes.  A position index above state_size
  /// (which no engine can hold) sets failbit; on failure the engine is left
  /// unchanged.
  friend std::istream& operator>>(std::istream& is, Mt19937_64& e) {
    const std::ios_base::fmtflags flags = is.flags();
    is.flags(std::ios_base::dec | std::ios_base::skipws);
    Mt19937_64 read;
    for (result_type& word : read.x_) is >> word;
    is >> read.p_;
    if (is && read.p_ > state_size) is.setstate(std::ios_base::failbit);
    if (is) e = read;
    is.flags(flags);
    return is;
  }

 private:
  /// The MT19937-64 output transform of one state word.
  static constexpr result_type temper(result_type z) noexcept {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  /// Regenerates all 312 state words and rewinds the position; the one
  /// twist under both operator() and generate(), four words at a time
  /// under AVX2 (src/stats/src/rng.cpp).
  void refill() noexcept;

  std::array<result_type, state_size> x_{};
  std::size_t p_ = state_size;
};

/// std::bernoulli_distribution(p) over Mt19937_64 as one integer compare.
/// The library draw turns one engine output into a double in [0, 1) and
/// compares it with p, so it is monotone in that output: true exactly up to
/// some cut.  The constructor finds the cut by bisection over the library's
/// own distribution; operator() then consumes the same single output and
/// returns the same answer.
class BernoulliCut {
 public:
  /// Throws std::invalid_argument unless p lies in (0, 1], and
  /// std::logic_error if the library draw does not take exactly one engine
  /// output.
  explicit BernoulliCut(double p);

  [[nodiscard]] bool operator()(Mt19937_64& engine) const noexcept {
    return engine() <= last_true_;
  }

  /// The largest engine output for which the draw is true.
  [[nodiscard]] std::uint64_t last_true() const noexcept { return last_true_; }

 private:
  std::uint64_t last_true_;
};

/// Seeded random stream: a thin, value-semantic wrapper over Mt19937_64
/// with the draw helpers the rest of the codebase needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : engine_(seed), seed_(seed) {}

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Standard normal (or scaled) draw.
  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n).  n must be > 0.
  [[nodiscard]] std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(
        std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_));
  }

  /// Bernoulli trial with success probability p.  A caller that draws
  /// many times at one p gets the same answers faster from BernoulliCut.
  [[nodiscard]] bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Poisson draw with the given mean.
  [[nodiscard]] int poisson(double mean) {
    return std::poisson_distribution<int>(mean)(engine_);
  }

  /// Exponential draw with the given rate (lambda).
  [[nodiscard]] double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Geometric draw: number of failures before first success.
  [[nodiscard]] int geometric(double p) {
    return std::geometric_distribution<int>(p)(engine_);
  }

  /// Fisher–Yates shuffle of an index span.
  template <typename T>
  void shuffle(std::span<T> values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[index(i)]);
    }
  }

  /// Derives an independent child stream; deterministic in (seed, salt).
  [[nodiscard]] Rng split(std::uint64_t salt) const {
    // SplitMix64 over seed ^ salt.
    std::uint64_t z = seed_ ^ (salt + 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return Rng(z ^ (z >> 31));
  }

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  [[nodiscard]] Mt19937_64& engine() noexcept { return engine_; }
  [[nodiscard]] const Mt19937_64& engine() const noexcept { return engine_; }

 private:
  Mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace le::stats
