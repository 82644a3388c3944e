#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck [--workload NAME] [--seed N]

Run from the repository root. The first call configures and builds perfbench/ (the simulator
libraries from src/ plus the perfbench runner) into .bench_build/perfbench; later calls only
rebuild what changed. The workload runs in its own process; its stdout is passed through, and
its last line is the JSON result. With --trace 1 the per-layer metrics are reported and the first
span pass is written to .bench_build/spans/<workload>-seed<N>.csv.

--selfcheck runs each workload (or the one named) four times: twice with the same seed, once
traced, and once with the next seed. It checks that every run is correct and that the three
runs with the same seed print the same digest of their simulated results, then exits 0 if so.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
WORKLOADS = ("governed-hot", "mixed-fulldisk", "smallfile-ufs", "crash-sweep")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the runner. Returns False when that fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found next to perfbench/", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the benchmark's report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return os.path.isfile(BINARY)


def run(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans-out", SPANS_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def result_of(stdout):
    """The parsed JSON result line, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def digest_of(stdout):
    for line in stdout.splitlines():
        if line.startswith("correct="):
            return dict(kv.split("=", 1) for kv in line.split()).get("digest")
    return None


def selfcheck(workloads, seed):
    ok = True
    for w in workloads:
        runs = [(seed, 0), (seed, 0), (seed, 1), (seed + 1, 0)]
        digests = []
        for s, trace in runs:
            code, out = run(w, s, 1, trace)
            result = result_of(out)
            good = code == 0 and result is not None and result["correct"]
            digests.append(digest_of(out))
            print(f"{w:15} seed={s} trace={trace} correct={good} digest={digests[-1]}")
            ok &= good
        same = digests[0] == digests[1] == digests[2]
        print(f"{w:15} same-seed digests {'identical' if same else 'DIFFER'}")
        ok &= same
    print("selfcheck", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selfcheck:
        return selfcheck([args.workload] if args.workload else WORKLOADS, args.seed)
    code, out = run(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    if code != 0 or result_of(out) is None:
        print(f"perfbench: {args.workload} failed (exit {code})", file=sys.stderr)
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
