#!/usr/bin/env python3
"""Diff the per-run metrics of two takobench suite reports.

Usage: diff_metrics.py BASELINE.json CANDIDATE.json
       diff_metrics.py --series A.takomon B.takomon

Compares every run the two reports share, metric by metric, and exits
nonzero if any non-host metric differs *at all* — the simulator's
determinism contract is bit-identity, so there is no tolerance knob.
Host-side throughput gauges (the ``host.*`` counter namespace and the
``host_*`` report headers) are exempt by contract: they measure the
machine, not the model.

``--series A B`` switches to takomon mode: the two telemetry files must
be byte-identical (the format is canonical — same samples => same
bytes), and on mismatch both are decoded to report the first diverging
series/sample instead of a bare "files differ".

This is the CI gate behind ``--takosim-arg=--mon-every=5000``: a
telemetry-enabled sweep's report must carry exactly the same simulated
metrics as the plain baseline.
"""

import argparse
import json
import os
import sys


def is_host_metric(name: str) -> bool:
    # Host counters appear bare in takosim runs ("host.seconds") and
    # label-prefixed in bench runs ("srrip.host.seconds"): match the
    # namespace anywhere in the dotted path.
    return (
        "host" in name.split(".")
        or name.startswith("host_")
        or name == "events_per_sec"
    )


def run_metrics(report: dict) -> dict:
    """name -> {metric -> value} for every completed run."""
    out = {}
    for run in report.get("runs", []):
        metrics = run.get("metrics")
        if not isinstance(metrics, dict):
            continue
        out[run["name"]] = {
            k: v for k, v in metrics.items() if not is_host_metric(k)
        }
    return out


def diff_series(a_path: str, b_path: str) -> int:
    """Byte-identity gate for two takomon telemetry files."""
    with open(a_path, "rb") as f:
        a = f.read()
    with open(b_path, "rb") as f:
        b = f.read()
    if a == b:
        print(
            f"diff_metrics: OK — {a_path} and {b_path} byte-identical "
            f"({len(a)} bytes)"
        )
        return 0

    print(f"diff_metrics: takomon files differ ({len(a)} vs {len(b)} bytes)")
    # Decode both to say *what* diverged, not just that bytes did.
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from validate_takomon import MonError, decode

    try:
        a_series, a_ticks, a_cols, _ = decode(a_path)
        b_series, b_ticks, b_cols, _ = decode(b_path)
    except MonError as e:
        print(f"  (cannot decode for detail: {e})")
        return 1
    if a_series != b_series:
        print(f"  series directories differ: {len(a_series)} vs "
              f"{len(b_series)} series")
        return 1
    if a_ticks != b_ticks:
        print(f"  sample ticks differ ({len(a_ticks)} vs "
              f"{len(b_ticks)} samples)")
        return 1
    for s, (name, _kind) in enumerate(a_series):
        for i, (va, vb) in enumerate(zip(a_cols[s], b_cols[s])):
            if va != vb:
                print(f"  first divergence: {name} at tick "
                      f"{a_ticks[i]}: {va!r} != {vb!r}")
                return 1
    print("  (identical decoded content; difference is in encoding)")
    return 1


def main() -> int:
    ap = argparse.ArgumentParser(
        description="bit-identity diff of two takobench reports"
    )
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument(
        "--require-runs",
        type=int,
        default=1,
        metavar="N",
        help="fail unless at least N runs were comparable (default 1; "
        "guards against two empty reports trivially matching)",
    )
    ap.add_argument(
        "--series",
        action="store_true",
        help="treat the two inputs as takomon files and require "
        "byte-identity",
    )
    args = ap.parse_args()

    if args.series:
        return diff_series(args.baseline, args.candidate)

    with open(args.baseline) as f:
        base = run_metrics(json.load(f))
    with open(args.candidate) as f:
        cand = run_metrics(json.load(f))

    shared = sorted(set(base) & set(cand))
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))

    failures = []
    compared_runs = 0
    compared_metrics = 0
    for name in shared:
        b, c = base[name], cand[name]
        compared_runs += 1
        for metric in sorted(set(b) | set(c)):
            if metric not in b:
                failures.append(f"{name}: {metric} only in candidate")
                continue
            if metric not in c:
                failures.append(f"{name}: {metric} only in baseline")
                continue
            compared_metrics += 1
            if b[metric] != c[metric]:
                failures.append(
                    f"{name}: {metric} {b[metric]!r} != {c[metric]!r}"
                )

    for name in only_base:
        failures.append(f"run '{name}' missing from candidate")
    for name in only_cand:
        failures.append(f"run '{name}' missing from baseline")

    if compared_runs < args.require_runs:
        failures.append(
            f"only {compared_runs} comparable run(s), "
            f"need {args.require_runs}"
        )

    if failures:
        print(f"diff_metrics: {len(failures)} difference(s):")
        for f in failures:
            print(f"  {f}")
        return 1

    print(
        f"diff_metrics: OK — {compared_metrics} metrics across "
        f"{compared_runs} runs bit-identical (host.* exempt)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
