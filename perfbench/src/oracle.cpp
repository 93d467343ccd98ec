#include "oracle.hpp"

#include <cmath>
#include <cstring>
#include <sstream>

namespace perfbench {

std::string OracleReport::summary() const {
  std::ostringstream out;
  out << "attempted=" << attempted << " surrogate=" << surrogate
      << " cached=" << cached << " simulation=" << simulation
      << " shed=" << shed << " error=" << error << " wrong=" << wrong
      << " missing=" << missing << " double_counted=" << double_counted
      << (correct() ? " -> CORRECT" : " -> INCORRECT");
  return out.str();
}

OracleReport& OracleReport::operator+=(const OracleReport& other) noexcept {
  attempted += other.attempted;
  surrogate += other.surrogate;
  cached += other.cached;
  simulation += other.simulation;
  shed += other.shed;
  error += other.error;
  wrong += other.wrong;
  missing += other.missing;
  double_counted += other.double_counted;
  return *this;
}

bool Oracle::record(std::uint64_t request, std::size_t key, Outcome outcome,
                    std::span<const double> values) {
  if (request >= seen_.size() || seen_[request] != 0) {
    ++report_.double_counted;
    return false;
  }
  seen_[request] = 1;
  switch (outcome) {
    case Outcome::kShed:
      ++report_.shed;
      return true;
    case Outcome::kError:
      ++report_.error;
      return true;
    case Outcome::kSurrogate:
      ++report_.surrogate;
      break;
    case Outcome::kCached:
      ++report_.cached;
      break;
    case Outcome::kSimulation:
      ++report_.simulation;
      break;
  }
  bool right = key < references_.size();
  if (right) {
    const KeyReference& ref = references_[key];
    const bool simulated = outcome == Outcome::kSimulation;
    right = simulated != ref.accepted && values.size() == ref.values.size();
    for (std::size_t i = 0; right && i < values.size(); ++i) {
      right = simulated
                  ? std::memcmp(&values[i], &ref.values[i], sizeof(double)) == 0
                  : std::fabs(values[i] - ref.values[i]) <= kSurrogateTolerance;
    }
  }
  if (!right) ++report_.wrong;
  return right;
}

OracleReport Oracle::finish() {
  report_.missing = 0;
  for (const std::uint8_t s : seen_) report_.missing += s == 0 ? 1 : 0;
  return report_;
}

}  // namespace perfbench
