#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

    python3 perfbench/run.py --workload <lookup_cold|learn_campaign>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test     # build and run the oracle's own test

Run from the root of a source checkout.  The build goes to
.bench_build/perfbench (CMake, Release); build output goes to stderr so the
last line of standard output stays the benchmark's JSON result.  Exits
non-zero without a result when the library sources are missing, the build
fails, or the benchmark finds a wrong answer.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4", "--target", target],
    ]
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if argv == ["--test"]:
        if not build("perfbench_oracle_test"):
            return 2
        return subprocess.run(
            [os.path.join(BUILD, "perfbench_oracle_test")], cwd=ROOT).returncode
    if not build("perfbench"):
        return 2
    return subprocess.run([os.path.join(BUILD, "perfbench")] + argv,
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
