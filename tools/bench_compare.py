#!/usr/bin/env python3
"""Compare BENCH_*.json perf artifacts against a baseline directory.

The bench binaries (bench/bench_json.h) write flat BENCH_<name>.json files
into their working directory. This script pairs every bench file found in
--current with the file of the same name in --baseline, matches records by
their "name" field, and prints a table of every shared numeric field with
the current/baseline ratio — the seed-vs-current perf trajectory.

With --gate the script is also a CI gate: any gated field that regresses
beyond --tolerance (default 15%) versus its baseline fails the run with
exit status 2, and so does any baseline file with no current counterpart
(a bench that stopped running would otherwise drop its gate silently;
retire a gate by deleting its baseline file). Direction is known per field (qps up is good, wall_seconds
up is bad); fields with unknown direction are report-only. Gate on
machine-relative fields (--gate-fields speedup_vs_sync,speedup) rather
than absolute timings, which vary with CI hardware. The escape hatch for
a deliberate, explained regression is the DIVERSE_BENCH_NO_GATE
environment variable (any non-empty value): the table still prints, the
gate reports what it would have failed, and the exit stays 0.

Usage:
  tools/bench_compare.py --baseline bench/baselines --current .
  tools/bench_compare.py --baseline bench/baselines --current . \
      --fields seconds,qps
  tools/bench_compare.py --baseline bench/baselines --current . \
      --gate --gate-fields speedup_vs_sync,speedup --tolerance 0.15

Exit status: 1 on unreadable inputs, 2 on gated regressions or missing
bench files, else 0.
"""

import argparse
import json
import os
import sys

# Per-field regression direction. A field absent from both sets has no
# known direction and is never gated.
#
# Gate design rationale (revisited with the PR 3/4 CI trajectory):
#
#   * Gate only MACHINE-RELATIVE fields — ratios of two timings taken in
#     the same run on the same box (speedup, speedup_vs_sync,
#     bootstrap_speedup, rpc_overhead_x via bit_equal's record) — plus
#     exactness flags (bit_equal). Absolute wall times and MB/s swing
#     with whichever shared runner the job lands on and stay advisory.
#   * Tolerance stays at 15%: observed run-to-run jitter of the
#     machine-relative fields on ubuntu-latest runners is roughly +/-10%
#     (thread scheduling on 2-core runners dominates), so 15% keeps the
#     false-positive rate near zero while still catching any structural
#     regression, which in this codebase shows up as 2x-class changes
#     (a lost parallel path, an accidental O(n^2) replay). Tighten only
#     if several quiet CI runs show jitter well under 10%.
#   * bit_equal is 0-or-1, so ANY drop fails at every tolerance < 100% —
#     the gate doubles as a correctness tripwire at no extra cost.
HIGHER_IS_BETTER = {
    "qps",
    "speedup",
    "speedup_vs_sync",
    "epochs_per_second",
    "bit_equal",
    "bootstrap_speedup",
    # Batched-row kernel vs scalar virtual calls on the same data in the
    # same run (bench/metric_backend.cc) — machine-relative by
    # construction, like the other gated speedups.
    "kernel_speedup",
    "encode_mb_s",
    "decode_mb_s",
    "write_mb_s",
    "load_mb_s",
}
LOWER_IS_BETTER = {
    "wall_seconds",
    "seconds",
    "incremental_seconds",
    "scratch_seconds",
    "p50_ms",
    "p90_ms",
    "p99_ms",
    "rpc_overhead_x",
    # Instrumented/plain timing ratio from bench/obs_overhead.cc —
    # machine-relative like rpc_overhead_x.
    "overhead_x",
    "replay_seconds",
    "cold_load_seconds",
    # Absolute promotion latency: advisory (machine-dependent), never in
    # --gate-fields; BENCH_failover's gated field is bit_equal.
    "promote_ms",
}


def load_bench(path):
    """Returns {record_name: [records...]} for one BENCH_*.json file.

    Names are not unique (e.g. fig1's per-cell records all share one
    name), so records are kept as ordered lists per name and later paired
    positionally — the bench binaries emit them in a deterministic order.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    records = {}
    for record in data.get("records", []):
        name = record.get("name")
        if name is None:
            continue
        records.setdefault(name, []).append(record)
    return records


def bench_files(directory):
    """Sorted BENCH_*.json file names in `directory`; raises OSError."""
    return sorted(f for f in os.listdir(directory)
                  if f.startswith("BENCH_") and f.endswith(".json"))


def numeric_fields(record, allowed):
    for key, value in record.items():
        if key == "name" or isinstance(value, (bool, str)):
            continue
        if allowed and key not in allowed:
            continue
        yield key, value


def is_regression(field, ratio, tolerance):
    if field in HIGHER_IS_BETTER:
        return ratio < 1.0 - tolerance
    if field in LOWER_IS_BETTER:
        return ratio > 1.0 + tolerance
    return False


def main():
    parser = argparse.ArgumentParser(
        description="Print a baseline-vs-current table for BENCH_*.json "
                    "and optionally gate on regressions")
    parser.add_argument("--baseline", required=True,
                        help="directory holding baseline BENCH_*.json files")
    parser.add_argument("--current", required=True,
                        help="directory holding freshly produced files")
    parser.add_argument("--fields", default="",
                        help="comma-separated allowlist of fields to show "
                             "(default: every numeric field)")
    parser.add_argument("--gate", action="store_true",
                        help="fail (exit 2) when a gated field regresses "
                             "beyond --tolerance vs baseline")
    parser.add_argument("--gate-fields", default="",
                        help="comma-separated fields the gate checks "
                             "(default: every shown field with a known "
                             "direction)")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed relative regression (default 0.15)")
    args = parser.parse_args()

    allowed = {f for f in args.fields.split(",") if f}
    gate_fields = {f for f in args.gate_fields.split(",") if f}
    try:
        current_files = bench_files(args.current)
        baseline_files = bench_files(args.baseline)
    except OSError as error:
        print(f"error: cannot list {error.filename}: {error}",
              file=sys.stderr)
        return 1
    missing = sorted(set(baseline_files) - set(current_files))
    if not current_files and not missing:
        print(f"no BENCH_*.json files under {args.current}")
        return 0

    header = f"{'bench/record':44s} {'field':18s} " \
             f"{'baseline':>12s} {'current':>12s} {'ratio':>7s}"
    rows = []
    fresh = []
    regressions = []
    for filename in current_files:
        baseline_path = os.path.join(args.baseline, filename)
        current = load_bench(os.path.join(args.current, filename))
        if not os.path.exists(baseline_path):
            fresh.append(filename)
            continue
        baseline = load_bench(baseline_path)
        bench = filename[len("BENCH_"):-len(".json")]
        for name, group in current.items():
            base_group = baseline.get(name, [])
            multiple = len(group) > 1 or len(base_group) > 1
            for index, (record, base_record) in enumerate(
                    zip(group, base_group)):
                label = f"{bench}/{name}"
                if multiple:
                    label += f"[{index}]"
                for field, value in numeric_fields(record, allowed):
                    base_value = base_record.get(field)
                    if isinstance(base_value, (bool, str)) \
                            or base_value is None:
                        continue
                    if base_value:
                        ratio = value / base_value
                    else:
                        ratio = 1.0 if not value else float("inf")
                    gated = not gate_fields or field in gate_fields
                    flag = ""
                    if gated and is_regression(field, ratio,
                                               args.tolerance):
                        regressions.append(
                            f"{label} {field}: baseline {base_value:g} "
                            f"-> current {value:g} (ratio {ratio:.2f})")
                        flag = "  <-- regression"
                    rows.append(f"{label:44.44s} {field:18.18s} "
                                f"{base_value:12.5g} {value:12.5g} "
                                f"{ratio:7.2f}{flag}")

    print(header)
    print("-" * len(header))
    for row in rows:
        print(row)
    if not rows:
        print("(no overlapping records)")
    if fresh:
        print(f"\nnew benches with no baseline yet: {', '.join(fresh)}")

    if missing:
        print(f"\nbaselines with no current bench file: {', '.join(missing)}")

    if regressions:
        tol_pct = args.tolerance * 100.0
        print(f"\n{len(regressions)} field(s) regressed beyond "
              f"{tol_pct:.0f}% vs baseline:")
        for line in regressions:
            print(f"  {line}")
    if not args.gate or not (regressions or missing):
        return 0
    if os.environ.get("DIVERSE_BENCH_NO_GATE"):
        print("DIVERSE_BENCH_NO_GATE set: reporting only, not failing")
        return 0
    print("failing (set DIVERSE_BENCH_NO_GATE=1 to override)")
    return 2


if __name__ == "__main__":
    sys.exit(main())
