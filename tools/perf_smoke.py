#!/usr/bin/env python3
"""Ensemble-speedup gate: 1-lane vs 4-lane --replicate runs -> BENCH_perf.json.

Usage: tools/perf_smoke.py [--bin-dir build] [--out BENCH_perf.json]
                           [--allow-untrusted]

Wall-times a four-replica takosim ensemble at one and at four host
lanes in PAIRS alternating pairs, records every pair, and fails if the
median pair speedup is below MIN_SHARD_SPEEDUP. Per-layer host time is
takoperf's job (takoperf/run.py). Feed one or more of the "takoperf-v1"
artifacts to tools/plot_results.py to render the speedup trend.

Only a Release build of a clean commit is trusted, as read from
``takosim --version``. Anything else (another build type, unoptimized
or sanitized flags, a ``-dirty`` tree) is refused, unless
``--allow-untrusted`` is given: then the artifact is tagged
``"untrusted": true`` with the reasons, and the gate is skipped.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# Required wall-clock speedup of a --replicate ensemble at --shards=4
# over --shards=1 (4 independent replicas across 4 host lanes). Only
# enforced when the host actually has >= 4 CPUs: on smaller runners the
# lanes time-share and the measurement is meaningless.
MIN_SHARD_SPEEDUP = 2.0
# Alternating (1-lane, 4-lane) pairs; the gate reads their median
# speedup, so one pair landing in a slow host phase cannot fail it.
PAIRS = 3


def build_info(bin_dir):
    """The build's git rev, CMAKE_BUILD_TYPE and effective C++ flags, as
    stamped into takosim at build time (`takosim --version`)."""
    exe = os.path.join(bin_dir, "tools", "takosim")
    out = subprocess.run([exe, "--version"], check=True,
                         capture_output=True, text=True).stdout
    lines = out.splitlines()
    info = {"git_rev": "unknown", "build_type": "", "cxx_flags": ""}
    if lines and lines[0].startswith("takosim "):
        info["git_rev"] = lines[0][len("takosim "):].strip()
    for line in lines[1:]:
        key, _, value = line.partition(":")
        if key in ("build_type", "cxx_flags"):
            info[key] = value.strip()
    return info


def trust_problems(info):
    """Why this artifact's numbers are not comparable (empty = trusted)."""
    problems = []
    build_type = info["build_type"]
    if build_type.lower() != "release":
        problems.append(
            f"build_type is {build_type or 'unknown'!r}, not a Release "
            "build")
    flags = info["cxx_flags"].split()
    if not any(f in ("-O2", "-O3", "-Ofast") for f in flags):
        problems.append(
            f"cxx_flags {info['cxx_flags']!r} do not optimize (-O2/-O3)")
    if any(f.startswith("-fsanitize") for f in flags):
        problems.append(
            f"cxx_flags {info['cxx_flags']!r} enable a sanitizer")
    git_rev = info["git_rev"]
    if git_rev.endswith("-dirty") or git_rev == "unknown":
        problems.append(f"git rev {git_rev!r} is not a clean commit")
    return problems


def run_shard_ensemble(bin_dir):
    """Wall-time a 16-tile nightly-sized ensemble at 1 vs. 4 lanes.

    Determinism is gated elsewhere (test_expt's ensemble test, the TSan
    ensemble diff in CI); this measures the parallelism payoff:
    --shards=N is the lane count of a --replicate ensemble.
    """
    exe = os.path.join(bin_dir, "tools", "takosim")
    # phi at 16k vertices is the nightly-sized 16-tile run: long enough
    # (~seconds per replica) that lane scheduling, not process startup,
    # dominates the measurement.
    base = [exe, "--workload=phi", "--variant=tako", "--cores=16",
            "--vertices=16384", "--replicate=4"]

    def wall(shards):
        start = time.monotonic()
        subprocess.run(base + [f"--shards={shards}"], check=True,
                       stdout=subprocess.DEVNULL)
        return time.monotonic() - start

    pairs = []
    for _ in range(PAIRS):
        one, four = wall(1), wall(4)
        pairs.append({
            "wall_sec_shards1": one,
            "wall_sec_shards4": four,
            "speedup": one / four if four > 0 else 0.0,
        })
    return {
        "workload": "phi",
        "variant": "tako",
        "cores": 16,
        "vertices": 16384,
        "replicas": 4,
        "pairs": pairs,
        "speedup": statistics.median(p["speedup"] for p in pairs),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin-dir", default="build")
    ap.add_argument("--out", default="BENCH_perf.json")
    ap.add_argument("--allow-untrusted", action="store_true",
                    help="emit an artifact even from a non-Release "
                    "build or a -dirty tree, tagged untrusted and with "
                    "the gate skipped")
    args = ap.parse_args()

    build = build_info(args.bin_dir)
    problems = trust_problems(build)
    if problems and not args.allow_untrusted:
        for p in problems:
            print(f"perf_smoke: REFUSED: {p}", file=sys.stderr)
        print("perf_smoke: perf numbers from such a build are not "
              "comparable; rebuild with -DCMAKE_BUILD_TYPE=Release on "
              "a clean commit, or pass --allow-untrusted to emit a "
              "tagged artifact with the gate skipped", file=sys.stderr)
        return 1

    shard = run_shard_ensemble(args.bin_dir)
    host_cpus = os.cpu_count() or 1
    report = {
        "schema": "takoperf-v1",
        "build": build,
        "host_cpus": host_cpus,
        "shard_ensemble": shard,
    }
    if problems:
        report["untrusted"] = True
        report["untrusted_reasons"] = problems
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    walls = ", ".join(f"{p['wall_sec_shards1']:.2f}s/"
                      f"{p['wall_sec_shards4']:.2f}s"
                      for p in shard["pairs"])
    print(f"perf_smoke: {build['build_type']} build "
          f"({build['cxx_flags']}), shard ensemble 4x16-tile replicas "
          f"at 1/4 lanes: {walls} (median {shard['speedup']:.2f}x, "
          f"{host_cpus} host CPUs) -> {args.out}")
    if problems:
        for p in problems:
            print(f"perf_smoke: UNTRUSTED: {p}", file=sys.stderr)
        print(f"perf_smoke: artifact {args.out} tagged untrusted; perf "
              f"gate skipped", file=sys.stderr)
        return 0
    if host_cpus >= 4 and shard["speedup"] < MIN_SHARD_SPEEDUP:
        print(f"perf_smoke: FAIL: median shard-ensemble speedup "
              f"{shard['speedup']:.2f}x < required {MIN_SHARD_SPEEDUP}x "
              f"on a {host_cpus}-CPU host", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
