#include "le/stats/rng.hpp"

#include <random>
#include <stdexcept>

namespace le::stats {

namespace {

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

BernoulliCut::BernoulliCut(double p) : last_true_(last_true_output(p)) {}

}  // namespace le::stats
