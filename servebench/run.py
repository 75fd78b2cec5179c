#!/usr/bin/env python3
"""Serving benchmark entry point (see servebench/README.md).

    python3 servebench/run.py --workload greedy_dense --seed 1 \
        --seconds 10 --trace 0 [--smoke]

Run from the root of a checkout. Builds the repository's library and the
servebench binary from source (CMake, Release) into
$CARGO_TARGET_DIR/servebench (default .bench_build/servebench), writes
the workload's seeded starting corpus as a checkpoint in a separate
process, then serves the workload and prints the binary's report. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced run with --trace 1.

Exits non-zero, without a result line, when the source tree is missing,
the build fails, or the binary crashes or overruns its time budget.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("greedy_dense", "swap_vector", "remote_vector")
# Every run must finish within 180 s; leave room for build checks and
# cleanup around the serve process.
SERVE_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no diverse source tree next to servebench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "servebench")


def declared_metrics():
    """Metric names BENCHMARK.json declares, or None without the file."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def serve(binary, workload, seed, seconds, trace, smoke, deadline):
    """Prepares and serves one run; returns the binary's report dict."""
    work = os.path.join(build_dir(), "work", "%s-%d" % (workload, seed))
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", workload, "--dir", work]
    if smoke:
        common.append("--smoke")
    try:
        subprocess.run([binary, "prepare", *common],
                       stdout=sys.stderr, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        proc = subprocess.run(
            [binary, "serve", *common, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1" if trace else "0"],
            stdout=subprocess.PIPE, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def result_line(report, trace):
    metrics = report["per_layer"] if trace else report["end_to_end"]
    declared = declared_metrics()
    if declared is not None:
        wanted = declared[1] if trace else declared[0]
        missing = [name for name in wanted if name not in metrics]
        if missing:
            raise BenchError("servebench did not report %s"
                             % ", ".join(missing))
        metrics = {name: metrics[name] for name in wanted}
    for name, metric in metrics.items():
        if not isinstance(metric.get("value"), (int, float)):
            raise BenchError("metric %s has no numeric value" % name)
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": metrics}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        binary = build()
        deadline = time.monotonic() + SERVE_TIMEOUT_S
        report = serve(binary, args.workload, args.seed, args.seconds,
                       bool(args.trace), args.smoke, deadline)
        line = result_line(report, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as error:
        print("servebench: %s" % error, file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
