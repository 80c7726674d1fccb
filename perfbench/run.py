#!/usr/bin/env python3
"""Reproduction benchmark for the fscache simulator.

Run from the repository root:

    python3 perfbench/run.py --workload rank-timed --seed 1 --seconds 30 --trace 0

Workloads (see perfbench.cc and representativeness.json):
  rank-timed     TimingSim over the order-statistic rankings (fig2 and
                 ablation_rankings cells), serial
  qos-32         runUntimed over the 32-partition QoS L2 (fig7 cells),
                 six schemes on two jobs
  insert-driven  driveByInsertionRate with live generators (fig4/fig5
                 cells), serial

The script builds the simulator libraries and the perfbench program
with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), times the program's set-up over several
set-up-only launches, then runs it. --trace 0 reports the end-to-end
metrics of BENCHMARK.json and --trace 1 its per-layer metrics; the
human-readable report precedes the final JSON line. All times are
host time. Every cell's simulated statistics are digested and checked
against reference.txt when it holds digests for the seed; otherwise
the digests are printed for diffing two commits.

To record reference digests for a seed (after a change that is meant
to alter simulated results):

    python3 perfbench/run.py --workload qos-32 --seed 1 --emit-reference
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rank-timed", "qos-32", "insert-driven")
SETUP_LAUNCHES = 15
DEFAULT_SEED = 1
DEADLINE_S = 175.0
# Knobs that change what is measured; the program refuses them too.
REFUSED_ENV = ("FS_AUDIT", "FS_SHADOW", "FS_FAULTS", "FS_SIMD", "FS_JOBS",
               "FS_EXECUTOR", "FS_BENCH_SCALE")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then (re)build; returns the program's path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")
    return os.path.join(build_dir, "perfbench")


def source_identity():
    """The git commit when available, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if (out.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def median_setup_seconds(cmd):
    """Process start to first cell, as the median of several launches."""
    samples = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        rc = subprocess.call(cmd + ["--setup-only"], cwd=ROOT)
        samples.append(time.perf_counter() - t0)
        if rc != 0:
            fail(f"set-up launch exited with {rc}")
    return statistics.median(samples)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--emit-reference", action="store_true",
                    help="print this seed's reference digests and exit")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    refused = [k for k in REFUSED_ENV if k in os.environ]
    if refused:
        fail(f"{', '.join(refused)} set; these change what is measured")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(bench_json) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {bench_json}: {e}")

    program = build()
    # A run must end within DEADLINE_S of the build; the first build in
    # a checkout has its own, longer allowance.
    started = time.monotonic()
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed)]
    if args.emit_reference:
        sys.exit(subprocess.call(cmd + ["--emit-reference"], cwd=ROOT))

    cmd += ["--reference", os.path.join(HERE, "reference.txt")]
    setup_s = None
    if args.trace == 0:
        setup_s = median_setup_seconds(cmd)

    cmd += ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        fail("the benchmark overran its time limit")

    result = None
    stamp = {}
    for line in run.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        elif line.startswith("STAMP "):
            stamp = json.loads(line[len("STAMP "):])
        else:
            print(line)
    if result is None:
        fail(f"the program exited with {run.returncode} and no result")

    stamp["commit"] = source_identity()
    stamp["workload"] = args.workload
    stamp["seed"] = args.seed
    print("stamp: " + json.dumps(stamp, sort_keys=True))

    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    measured = dict(result["metrics"])
    if setup_s is not None:
        measured["setup_s"] = {"value": setup_s, "unit": "s"}
        print(f"{'setup_s':34s} {setup_s:16.6g} s      median of "
              f"{SETUP_LAUNCHES} set-up-only launches")
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = measured[m["name"]]
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if result["correct"] and run.returncode == 0 else 1)


if __name__ == "__main__":
    main()
