/// @file
/// The correctness oracle.  Every attempted request ends in exactly one
/// outcome; answers are compared with references computed in set-up, in a
/// way that depends neither on timing nor on which GEMM kernel served them:
///   - surrogate and cached answers must lie within kSurrogateTolerance of
///     the scalar-kernel ensemble prediction for the exact key (the
///     DESIGN.md section 13 end-to-end kernel bound);
///   - simulation answers must equal the MD result for the key bitwise;
///   - a key's gate decision must match its reference (pools exclude keys
///     whose reference uncertainty sits near the threshold, so a kernel
///     difference cannot flip it).
/// Shed and error outcomes are not wrong answers, but they count as failed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

enum class Outcome : std::uint8_t {
  kSurrogate,
  kCached,
  kSimulation,
  kShed,
  kError,
};

/// What the key's reference says a correct answer is.
struct KeyReference {
  std::vector<double> values;
  /// True when the gate must accept the key (surrogate or cached answer);
  /// false when it must fall back to the simulation.
  bool accepted = true;
};

inline constexpr double kSurrogateTolerance = 1e-5;

struct OracleReport {
  std::uint64_t attempted = 0;
  std::uint64_t surrogate = 0;
  std::uint64_t cached = 0;
  std::uint64_t simulation = 0;
  std::uint64_t shed = 0;
  std::uint64_t error = 0;
  /// Answers whose values or gate decision disagree with the reference.
  std::uint64_t wrong = 0;
  /// Attempted requests that never recorded an outcome.
  std::uint64_t missing = 0;
  /// Outcomes recorded for a request that already had one, or for a
  /// request id outside the attempted range.
  std::uint64_t double_counted = 0;

  [[nodiscard]] std::uint64_t answered() const noexcept {
    return surrogate + cached + simulation;
  }
  /// Shed, errored and wrong requests: everything not correctly answered.
  [[nodiscard]] std::uint64_t failed() const noexcept {
    return shed + error + wrong;
  }
  /// The ledger balances and no answer is wrong.
  [[nodiscard]] bool correct() const noexcept {
    return wrong == 0 && missing == 0 && double_counted == 0 &&
           answered() + shed + error == attempted;
  }
  [[nodiscard]] std::string summary() const;

  /// Adds another ledger's counts (a workload checking in chunks).
  OracleReport& operator+=(const OracleReport& other) noexcept;
};

class Oracle {
 public:
  /// Expects request ids [0, attempted).  `references` is indexed by key id
  /// and must outlive the oracle.
  Oracle(std::span<const KeyReference> references, std::uint64_t attempted)
      : references_(references), seen_(attempted, 0) {
    report_.attempted = attempted;
  }

  /// Records request `request`'s outcome for key `key`; `values` is ignored
  /// for shed and error outcomes.  Returns true when the answer is right.
  bool record(std::uint64_t request, std::size_t key, Outcome outcome,
              std::span<const double> values);

  /// Counts the requests that never recorded an outcome and returns the
  /// final report.
  [[nodiscard]] OracleReport finish();

 private:
  std::span<const KeyReference> references_;
  std::vector<std::uint8_t> seen_;
  OracleReport report_;
};

}  // namespace perfbench
