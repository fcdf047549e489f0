#!/usr/bin/env python3
# Copyright (c) saedb authors. Licensed under the MIT license.
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call builds the saedb libraries
and the `saebench` program from source (CMake, Release) into
`$CARGO_TARGET_DIR/perfbench` (default `.bench_build/perfbench`); later
calls only re-check the build. The report of `saebench` goes to stdout, ending
with one JSON line: {"correct", "attempted", "failed", "metrics"}. Build
output goes to stderr. A traced run (--trace 1) also writes its spans to
`<build dir>/traces/<workload>.tsv` (the last traced run of each workload).

--selftest builds, runs the program's own checks (oracle against wrong
answers, seed determinism), then runs every workload of BENCHMARK.json in
a short, shrunken mode, traced and untraced, and checks that each prints
every metric BENCHMARK.json names, with its unit, and passes its
correctness gate.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds saebench; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("saedb sources (CMakeLists.txt, src/) not found next to perfbench/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "saebench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "saebench")


def run_saebench(binary, args, capture=False):
    try:
        return subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("saebench did not finish within %d s" % RUN_TIMEOUT_S)


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    if run_saebench(binary, ["--selftest"]).returncode != 0:
        problems.append("saebench self-checks failed")
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            name = "%s (trace %s)" % (workload["name"], trace)
            proc = run_saebench(binary, ["--workload", workload["name"],
                                       "--seed", "1", "--seconds", "1",
                                       "--trace", trace, "--quick"],
                              capture=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(name + ": no JSON result line")
                continue
            if proc.returncode != 0 or result.get("correct") is not True:
                problems.append(name + ": correctness gate failed")
                problems.extend("  " + l for l in lines if "ERROR" in l)
            printed = result.get("metrics", {})
            for metric in spec[key]:
                got = printed.get(metric["name"])
                if got is None:
                    problems.append("%s: %s not printed"
                                    % (name, metric["name"]))
                elif got.get("unit") != metric["unit"]:
                    problems.append("%s: %s printed in %r, expected %r"
                                    % (name, metric["name"], got.get("unit"),
                                       metric["unit"]))
            extra = set(printed) - {m["name"] for m in spec[key]}
            if extra:
                problems.append("%s: metrics missing from BENCHMARK.json: %s"
                                % (name, ", ".join(sorted(extra))))
            print("checked %s: %d metrics" % (name, len(printed)))
    for problem in problems:
        print("FAIL: " + problem)
    print("selftest: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(selftest(build()))
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    saebench_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        saebench_args += ["--trace-out",
                        os.path.join(traces, args.workload + ".tsv")]
    sys.stdout.flush()
    sys.exit(run_saebench(binary, saebench_args).returncode)


if __name__ == "__main__":
    main()
