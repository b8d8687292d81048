#!/usr/bin/env python3
"""Serving benchmark: builds servebench from source and runs one workload.

Usage (from the repository root):

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--workload all`` runs every workload in turn and prints one result line per workload,
each with a "workload" key.

The C++ program is configured and built with CMake into
``$CARGO_TARGET_DIR/servebench`` (default ``.bench_build/servebench``). Metric names and
units come from BENCHMARK.json at the repository root; seeds, recorded outcome digests and
the fleet-online calibration come from servebench/workloads.json. Diagnostics go to stderr.
The last line of stdout is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

With ``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1`` they are the
per-layer metrics, and the run also writes its spans to ``.bench_out/<workload>.spans.json``.
The script exits non-zero without printing a result when the build, the run, or the metric
set is broken.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("servebench: " + msg)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "servebench")
    binary = os.path.join(build_dir, "servebench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    if not os.path.exists(binary):
        fail("build produced no binary at " + binary)
    return binary


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def run_one(binary, bench, workloads, workload, args):
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    calib = workloads[workload].get("calibration")
    if calib:
        cmd += ["--low-rps", str(calib["low_rps"]["value"]),
                "--high-rps", str(calib["high_rps"]["value"]),
                "--ladder", ",".join(str(r) for r in calib["ladder_rps"]["value"]),
                "--rung-requests", str(calib["rung_requests"]["value"]),
                "--low-requests", str(calib["low_requests"]["value"]),
                "--ttft-limit-ms", str(calib["ttft_p99_limit_ms"]["value"]),
                "--tpot-limit-ms", str(calib["tpot_p99_limit_ms"]["value"])]
    if args.trace:
        out_dir = os.path.abspath(".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(out_dir, workload + ".spans.json")]

    log("servebench: %s seed %d, %g s, trace %d" % (workload, args.seed, args.seconds, args.trace))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("servebench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("servebench printed no result")
    raw = json.loads(lines[-1])

    checks = dict(raw["checks"])
    recorded = workloads[workload].get("digests", {}).get(str(args.seed))
    if recorded is not None:
        checks["outcome digest equals the one recorded for seed %d" % args.seed] = (
            raw["digest"] == recorded)
    for name, ok in checks.items():
        log("  %-62s %s" % (name, "ok" if ok else "FAILED"))
    log("  digest %s, %d passes" % (raw["digest"] or "-", raw["passes"]))

    metrics = {}
    for spec in wanted:
        name = spec["name"]
        if name not in raw["metrics"]:
            fail("servebench did not report metric %r" % name)
        value = raw["metrics"][name]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("metric %r is not a finite number: %r" % (name, value))
        metrics[name] = {"value": value, "unit": spec["unit"]}
        log("  %-34s %14.6g %s" % (name, value, spec["unit"]))

    result = {
        "correct": bool(raw["correct"]) and all(checks.values()),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    if result["attempted"] < 1:
        fail("no request was attempted")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = load_json(os.path.join(HERE, "workloads.json"))["workloads"]
    names = list(workloads) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads:
            fail("unknown workload %r (have: %s)" % (name, ", ".join(workloads)))
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    for name in names:
        result = run_one(binary, bench, workloads, name, args)
        if args.workload == "all":
            result = dict(workload=name, **result)
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
