// The oracle's own test: a correct ledger passes, and each injected fault
// class (swapped row, perturbed value, missing row, double-counted row,
// flipped gate decision, one-ulp simulation drift) is caught.
#include <cmath>
#include <cstdio>
#include <vector>

#include "oracle.hpp"

namespace {

using perfbench::KeyReference;
using perfbench::Oracle;
using perfbench::OracleReport;
using perfbench::Outcome;

const std::vector<KeyReference> kRefs = {
    {{1.0, 2.0, 3.0}, true},
    {{1.5, 2.5, 3.5}, true},
    {{0.25, 0.5, 0.75}, false},
};

struct Row {
  std::size_t key;
  Outcome outcome;
  std::vector<double> values;
};

// A correct ledger: surrogate, cached and simulation answers plus a shed.
std::vector<Row> good_rows() {
  return {{0, Outcome::kSurrogate, {1.0 + 4e-6, 2.0, 3.0 - 4e-6}},
          {1, Outcome::kCached, kRefs[1].values},
          {2, Outcome::kSimulation, kRefs[2].values},
          {0, Outcome::kShed, {}}};
}

OracleReport run(const std::vector<Row>& rows, std::size_t attempted,
                 const std::vector<std::size_t>& order) {
  Oracle oracle(kRefs, attempted);
  for (const std::size_t i : order) {
    (void)oracle.record(i, rows[i].key, rows[i].outcome, rows[i].values);
  }
  return oracle.finish();
}

int failures = 0;

void check(bool ok, const char* what, const OracleReport& r) {
  std::printf("%-28s %s  (%s)\n", what, ok ? "ok" : "FAILED",
              r.summary().c_str());
  if (!ok) ++failures;
}

}  // namespace

int main() {
  const std::vector<Row> good = good_rows();
  const std::vector<std::size_t> all = {0, 1, 2, 3};

  const OracleReport clean = run(good, 4, all);
  check(clean.correct() && clean.failed() == 1 && clean.shed == 1,
        "correct ledger passes", clean);

  std::vector<Row> swapped = good;
  std::swap(swapped[0].values, swapped[1].values);
  swapped[1].outcome = Outcome::kSurrogate;
  const OracleReport r_swap = run(swapped, 4, all);
  check(!r_swap.correct() && r_swap.wrong == 2, "swapped rows caught", r_swap);

  std::vector<Row> perturbed = good;
  perturbed[1].values[2] += 2e-5;
  const OracleReport r_pert = run(perturbed, 4, all);
  check(!r_pert.correct() && r_pert.wrong == 1, "perturbed value caught",
        r_pert);

  const OracleReport r_missing = run(good, 4, {0, 1, 3});
  check(!r_missing.correct() && r_missing.missing == 1, "missing row caught",
        r_missing);

  const OracleReport r_double = run(good, 4, {0, 1, 2, 3, 2});
  check(!r_double.correct() && r_double.double_counted == 1,
        "double-counted row caught", r_double);

  std::vector<Row> flipped = good;
  flipped[2].outcome = Outcome::kSurrogate;  // right values, wrong gate path
  const OracleReport r_flip = run(flipped, 4, all);
  check(!r_flip.correct() && r_flip.wrong == 1, "flipped gate caught", r_flip);

  std::vector<Row> ulp = good;
  ulp[2].values[0] = std::nextafter(ulp[2].values[0], 1.0);
  const OracleReport r_ulp = run(ulp, 4, all);
  check(!r_ulp.correct() && r_ulp.wrong == 1, "1-ulp simulation drift caught",
        r_ulp);

  std::printf("%s\n",
              failures == 0 ? "oracle test PASSED" : "oracle test FAILED");
  return failures == 0 ? 0 : 1;
}
