// perfbench: the repo benchmark.  One command per workload:
//
//   perfbench --workload <lookup_cold|learn_campaign>
//             --seed <n> --seconds <s> --trace <0|1>
//
// The workload is set up kSetupsBefore times and measured untraced for
// --seconds.  With --trace 0 it is then set up kSetupsAfter more times and
// setup_s is the median set-up; with --trace 1 it is measured again with the
// benchmark's spans on.  Every answer is checked by the oracle; the last
// line of standard output is the JSON result.  Exit code 0 only when every
// answer was right.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;

// Set-up runs this many times before and after the measurement, and
// setup_s is the median of all of them.  Timing set-ups on both sides of the
// run spreads them over its whole length, so neither one slow fork nor a
// slow stretch of the host at the start moves the metric much.
constexpr int kSetupsBefore = 4;
constexpr int kSetupsAfter = 3;
// Where the traced run writes its Chrome trace, relative to the checkout.
constexpr const char* kTraceDir = ".bench_build/perfbench-trace";

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <lookup_cold|learn_campaign> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = value == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

std::unique_ptr<Workload> make(const Options& opt) {
  if (opt.workload == "lookup_cold") return make_lookup_cold(opt.seed);
  if (opt.workload == "learn_campaign") return make_learn_campaign(opt.seed);
  return nullptr;
}

int run(const Options& opt) {
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_seconds;
  // Tears the previous instance down, then times one set-up.
  const auto set_up = [&] {
    workload.reset();
    const auto t0 = Clock::now();
    workload = make(opt);
    setup_seconds.push_back(seconds_between(t0, Clock::now()));
    return workload != nullptr;
  };
  for (int i = 0; i < kSetupsBefore; ++i) {
    if (!set_up()) return usage();
  }

  const Measurement base = workload->measure(opt.seconds, false);
  std::printf("untraced: %s\n", base.report.summary().c_str());
  WorkloadResult result;
  result.correct = base.report.correct();
  result.attempted = base.report.attempted;
  result.failed = base.report.failed();

  if (!opt.trace) {
    result.metrics = to_metrics(base.end_to_end);
  } else {
    const Measurement traced = workload->measure(opt.seconds, true);
    std::printf("traced: %s\n", traced.report.summary().c_str());
    result.correct = result.correct && traced.report.correct();
    result.attempted += traced.report.attempted;
    result.failed += traced.report.failed();
    result.metrics = to_metrics(traced.per_layer);
    result.metrics.push_back(
        {"obs.trace_overhead_pct",
         100.0 * (traced.overhead_basis - base.overhead_basis) /
             base.overhead_basis,
         "%"});

    std::printf("\nper-layer self time (%s, traced run):\n",
                opt.workload.c_str());
    print_self_time_table(workload->recorder().totals());
    std::filesystem::create_directories(kTraceDir);
    const std::string path = std::string(kTraceDir) + "/" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".json";
    if (workload->recorder().write_chrome_trace(path)) {
      std::printf("chrome trace: %s\n", path.c_str());
    }
    for (const Metric& m : result.metrics) {
      std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  if (!opt.trace) {
    for (int i = 0; i < kSetupsAfter; ++i) (void)set_up();
    workload.reset();
    std::printf("set-up seconds:");
    for (const double s : setup_seconds) std::printf(" %.4f", s);
    std::printf("\n");
    result.metrics.push_back({"setup_s", median(setup_seconds), "s"});
  }
  print_result(result);
  return result.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!parse(argc, argv, opt)) return usage();
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
