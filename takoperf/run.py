#!/usr/bin/env python3
"""takoperf: host-time benchmark of tako-sim.

Builds the simulator and the takoperf harness (Release, from source),
generates the workload's inputs from --seed, then measures:

  --trace 0  repeated untraced runs of one workload for --seconds; the
             end-to-end metrics are medians over those runs.
  --trace 1  untraced runs for half of --seconds, then one traced run
             (takoprof + takomon + access tracer; takomon only when
             sharded) with the per-layer probes, and a takomon-only run.

Every simulation run is checked: the workload's own correctness flag,
a digest of every simulated stat against the recorded reference (or,
for seeds without one, against the run's other repetitions), observer
purity (traced digest == untraced digest) and layer isolation. A failed
check counts the run as failed, never as slow.

The last stdout line is one JSON object:
  {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

  python3 takoperf/run.py --workload phi-push --seed 1 --seconds 36 --trace 0
  python3 takoperf/run.py --workload all          # every metric, every workload
  python3 takoperf/run.py --write-benchmark-json  # regenerate BENCHMARK.json
  python3 takoperf/run.py --record-reference      # re-record reference.json
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = {
    "phi-push": "PHI scatter-updates: engine callbacks, NoC and coroutines "
                "do most of the work",
    "kv-replay": "Zipf kv trace replay with no morphs: read-miss path and "
                 "trace decoder, engine layer idle",
    "nvm-tx": "NVM journal elision: dirty writebacks and onWriteback "
              "callbacks, highest events/s",
}
# phi-push at --shards=min(4, nproc). Runnable by name but not listed in
# BENCHMARK.json: its runs fail the digest gate (README.md, "phi-sharded").
UNLISTED = ("phi-sharded",)

END_TO_END = [
    # name, unit, better, bound
    ("wall_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

PER_LAYER = [
    # name, unit, better
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.kernel.ns_per_event", "ns", "lower"),
    ("sim.coro.ns_per_spawn", "ns", "lower"),
    ("sim.coro.ns_per_resume", "ns", "lower"),
    ("shard.rounds", "count", "lower"),
    ("shard.cross_ratio", "ratio", "lower"),
    ("shard.load_imbalance", "ratio", "lower"),
    ("shard.barrier_wait_s", "s", "lower"),
    ("shard.speedup", "ratio", "higher"),
    ("mem.l1.accesses", "count", "lower"),
    ("mem.l1.hit_ratio", "ratio", "higher"),
    ("mem.l2.misses", "count", "lower"),
    ("mem.l3.misses", "count", "lower"),
    ("mem.dram.reads", "count", "lower"),
    ("mem.dram.writes", "count", "lower"),
    ("mem.coherence.downgrades", "count", "lower"),
    ("mem.ns_per_access", "ns", "lower"),
    ("mem.cache.ns_per_lookup", "ns", "lower"),
    ("noc.messages", "count", "lower"),
    ("noc.flit_hops", "count", "lower"),
    ("noc.ns_per_traverse", "ns", "lower"),
    ("tako.callbacks", "count", "lower"),
    ("tako.engine_instrs", "count", "lower"),
    ("tako.resolve.ns", "ns", "lower"),
    ("core.instrs", "count", "lower"),
    ("core.rmo_ops", "count", "lower"),
    ("trace.records", "count", "lower"),
    ("trace.decode.ns_per_record", "ns", "lower"),
    ("system.build_s", "s", "lower"),
    ("system.export_s", "s", "lower"),
    ("prof.overhead_ratio", "ratio", "lower"),
    ("mon.overhead_ratio", "ratio", "lower"),
]

RUN_SECONDS = 36
RUN_TIMEOUT = 100  # one simulation; keeps a hung run inside 180 s
KV_RECORDS = 400000  # must match kKvRecords in takoperf.cc


class BenchError(Exception):
    pass


def log(msg):
    print("takoperf: " + msg, file=sys.stderr, flush=True)


# ---- build and provenance -------------------------------------------------

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "takoperf")


def build():
    """Configure (once) and build the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources not found under " + ROOT)
    bdir = build_dir()
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler temporaries here
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, env)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", bdir, "-j", jobs], env)
    return os.path.join(bdir, "takoperf")


def run_quiet(cmd, env):
    p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:])
        raise BenchError("command failed: " + " ".join(cmd))


def cmake_cache():
    cache = {}
    with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, rest = line.split(":", 1)
                cache[key] = rest.split("=", 1)[1].rstrip("\n")
    return cache


def git(*args):
    try:
        p = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                           text=True)
    except OSError:
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def provenance():
    """Build facts read from the harness's own CMake cache and from git.
    Trusted only for a Release build of a clean, known commit."""
    cache = cmake_cache()
    btype = cache.get("CMAKE_BUILD_TYPE", "")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    # Only this checkout's own repository counts, not one enclosing it.
    top = git("rev-parse", "--show-toplevel")
    rev = git("rev-parse", "--short", "HEAD") if top and \
        os.path.samefile(top, ROOT) else None
    status = git("status", "--porcelain") if rev else None
    reasons = []
    if btype != "Release":
        reasons.append("CMAKE_BUILD_TYPE is %r, not Release" % btype)
    if rev is None:
        reasons.append("no git metadata: revision unknown")
    elif status:
        reasons.append("working tree is dirty")
    flags = " ".join(x for x in (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + btype.upper(), "")) if x)
    return {
        "git_rev": rev or "unknown",
        "dirty": bool(status) if rev else None,
        "nproc": os.cpu_count(),
        "compiler": version,
        "cmake_build_type": btype,
        "cxx_flags": flags,
        "trusted": not reasons,
        "untrusted_reasons": reasons,
    }


# ---- one simulation run ---------------------------------------------------

class Runner:
    def __init__(self, binary, seed):
        self.binary = binary
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.kv_trace = os.path.join(build_dir(), "inputs",
                                     "kv-%d.takotrace" % seed)
        self.mon_out = os.path.join(build_dir(), "tmp", "run.takomon")
        with open(REFERENCE) as f:
            ref = json.load(f)
        self.reference = ref["digests"].get(str(seed), {})

    def make_inputs(self):
        """Generate the kv trace from the seed, before any timing."""
        os.makedirs(os.path.dirname(self.kv_trace), exist_ok=True)
        p = subprocess.run([self.binary, "gen-kv", "--seed=%d" % self.seed,
                            "--out=" + self.kv_trace],
                           stdout=subprocess.PIPE, text=True)
        if p.returncode != 0:
            raise BenchError("kv trace generation failed")

    def run(self, workload, observe="none", probes=False):
        """One process, one simulation. Returns its record, or None when
        the run failed (counted in self.failed)."""
        cmd = [self.binary, "run", "--workload=" + workload,
               "--seed=%d" % self.seed, "--kv-trace=" + self.kv_trace,
               "--observe=" + observe, "--mon-out=" + self.mon_out]
        if probes:
            cmd.append("--probes")
        self.attempted += 1
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=RUN_TIMEOUT)
        except subprocess.TimeoutExpired:
            return self.fail(workload, "no result in %d s" % RUN_TIMEOUT)
        if p.returncode != 0:
            return self.fail(workload, "exit code %d" % p.returncode)
        rec = json.loads(p.stdout.strip().splitlines()[-1])
        if not rec["correct"]:
            return self.fail(workload, "workload correctness flag is 0")
        if workload == "kv-replay" and \
                rec["counters"]["trace.records"] != KV_RECORDS:
            return self.fail(workload, "replayed %s records, not %d" % (
                rec["counters"]["trace.records"], KV_RECORDS))
        return rec

    def fail(self, workload, why):
        self.failed += 1
        log("FAILED %s seed %d: %s" % (workload, self.seed, why))
        return None

    def check_digest(self, rec, expected, what):
        """Digest gate: a mismatch turns a finished run into a failed one."""
        if rec is not None and rec["digest"] != expected:
            return self.fail(rec["workload"], "%s: digest %s != %s" % (
                what, rec["digest"], expected))
        return rec

    def expected_digest(self, workload):
        """Reference digest for this seed, if recorded. phi-sharded must
        reproduce phi-push bit for bit."""
        return self.reference.get(
            "phi-push" if workload == "phi-sharded" else workload)


# ---- measurement plans ----------------------------------------------------

def timed_reps(runner, workload, seconds, min_reps, expected):
    """Untraced runs until the next would end past `seconds` (at least
    min_reps). Every run's digest must equal `expected` or, when that is
    None, the first run's."""
    recs = []
    start = time.monotonic()
    while runner.failed <= 3:
        t0 = time.monotonic()
        rec = runner.run(workload)
        if rec is not None:
            expected = expected or rec["digest"]
            rec = runner.check_digest(rec, expected, "untraced run")
            if rec is not None:
                recs.append(rec)
        now = time.monotonic()
        if len(recs) >= min_reps and (now - start) + (now - t0) > seconds:
            break
    return recs


def med(recs, key):
    return statistics.median(r[key] for r in recs)


def end_to_end(recs):
    return {
        "wall_s": med(recs, "wall_s"),
        "run_s": med(recs, "run_s"),
        "setup_s": statistics.median(r["wall_s"] - r["run_s"] for r in recs),
        "peak_rss_mb": med(recs, "peak_rss_mb"),
    }


def measure(runner, workload, seconds, trace):
    sharded = workload == "phi-sharded"
    expected = runner.expected_digest(workload)
    if sharded and expected is None:
        # No reference for this seed: the monolithic run is the reference.
        mono = runner.run("phi-push")
        expected = mono and mono["digest"]
    if not trace:
        recs = timed_reps(runner, workload, seconds, 3, expected)
        return end_to_end(recs) if recs else {}

    base = timed_reps(runner, workload, seconds / 2, 2, expected)
    if not base:
        return {}
    digest = base[0]["digest"]
    run_s = med(base, "run_s")
    traced = runner.check_digest(
        runner.run(workload, "mon" if sharded else "all", probes=True),
        digest, "observer purity (traced vs untraced)")
    mon = traced if sharded else runner.check_digest(
        runner.run(workload, "mon"), digest,
        "observer purity (takomon vs untraced)")
    speedup = 1.0
    if sharded:
        mono = timed_reps(runner, "phi-push", 0, 2, digest)
        speedup = med(mono, "run_s") / run_s if mono else 0.0
    if traced is None or mon is None:
        return {}
    c = traced["counters"]
    p = traced["probes"]
    l1 = c["l1.hits"] + c["l1.misses"]
    m = {
        "sim.events": c["host.sim_events"],
        "sim.events_per_s": c["host.sim_events"] / run_s,
        "sim.kernel.ns_per_event": p["sim.kernel.ns_per_event"],
        "sim.coro.ns_per_spawn": p["sim.coro.ns_per_spawn"],
        "sim.coro.ns_per_resume": p["sim.coro.ns_per_resume"],
        "shard.rounds": c["shard.rounds"],
        "shard.cross_ratio": c["shard.cross_msgs"] / c["host.sim_events"],
        "shard.load_imbalance": c["shard.load_imbalance"],
        "shard.barrier_wait_s": statistics.median(
            r["counters"]["host.shard.barrier_wait_seconds"] for r in base),
        "shard.speedup": speedup,
        "mem.l1.accesses": l1,
        "mem.l1.hit_ratio": c["l1.hits"] / l1,
        "mem.l2.misses": c["l2.misses"],
        "mem.l3.misses": c["l3.misses"],
        "mem.dram.reads": c["dram.reads"],
        "mem.dram.writes": c["dram.writes"],
        "mem.coherence.downgrades": c["coherence.downgrades"],
        "mem.ns_per_access": run_s * 1e9 / l1,
        "mem.cache.ns_per_lookup": p["mem.cache.ns_per_lookup"],
        "noc.messages": c["noc.messages"],
        "noc.flit_hops": c["noc.flitHops"],
        "noc.ns_per_traverse": p["noc.ns_per_traverse"],
        "tako.callbacks": c["engine.cb.miss"] + c["engine.cb.eviction"] +
                          c["engine.cb.writeback"],
        "tako.engine_instrs": c["engine.instrs"],
        "tako.resolve.ns": p["tako.resolve.ns"],
        "core.instrs": c["core.instrs"],
        "core.rmo_ops": c["rmo.ops"],
        "trace.records": c["trace.records"],
        "trace.decode.ns_per_record": p["trace.decode.ns_per_record"],
        "system.build_s": p["system.build_s"],
        "system.export_s": p["system.export_s"],
        # takoprof cannot run sharded; 0 marks "not measured".
        "prof.overhead_ratio": 0.0 if sharded else traced["run_s"] / run_s,
        "mon.overhead_ratio": mon["run_s"] / run_s,
    }
    isolation = [
        (workload == "kv-replay") == (m["trace.records"] > 0),
        sharded == (m["shard.rounds"] > 0),
        workload != "kv-replay" or m["tako.callbacks"] == 0,
    ]
    if not all(isolation):
        runner.fail(workload, "layer isolation violated")
    return m


# ---- entry points ---------------------------------------------------------

def units(trace):
    if trace:
        return {n: u for n, u, _ in PER_LAYER}
    return {n: u for n, u, _, _ in END_TO_END}


def measure_workload(binary, workload, seed, seconds, trace):
    runner = Runner(binary, seed)
    if workload == "kv-replay":
        runner.make_inputs()
    values = measure(runner, workload, seconds, trace)
    u = units(trace)
    metrics = {n: {"value": values[n], "unit": u[n]}
               for n in u if n in values}
    ok = runner.failed == 0 and len(metrics) == len(u)
    return ok, runner, metrics


def print_table(workload, metrics):
    for name, m in metrics.items():
        print("%-12s %-28s %18.9g %s" % (workload, name, m["value"],
                                          m["unit"]))


def write_benchmark_json():
    doc = {
        "command": ["python3", "takoperf/run.py"],
        "paths": ["takoperf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def record_reference(binary, seeds):
    digests = {}
    for seed in seeds:
        runner = Runner(binary, seed)
        runner.make_inputs()
        digests[str(seed)] = {}
        for w in WORKLOADS:
            rec = runner.run(w)
            if rec is None:
                raise BenchError("cannot record a failing run")
            digests[str(seed)][w] = rec["digest"]
    with open(REFERENCE) as f:
        ref = json.load(f)
    ref["digests"] = digests
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=2)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    help="|".join(list(WORKLOADS) + list(UNLISTED) + ["all"]))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-benchmark-json", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()

    if args.write_benchmark_json:
        write_benchmark_json()
        return 0
    if args.workload != "all" and args.workload not in WORKLOADS and \
            args.workload not in UNLISTED:
        ap.error("unknown workload " + args.workload)

    try:
        binary = build()
        prov = provenance()
        print(json.dumps({"provenance": prov}))
        if not prov["trusted"]:
            log("untrusted build: " + "; ".join(prov["untrusted_reasons"]))
        if args.record_reference:
            with open(REFERENCE) as f:
                ref = json.load(f)
            record_reference(binary, [ref["default_seed"],
                                      ref["held_out_seed"]])
            return 0

        every = args.workload == "all"
        ok, attempted, failed, metrics = True, 0, 0, {}
        for w in (WORKLOADS if every else [args.workload]):
            for trace in ((0, 1) if every else (args.trace,)):
                w_ok, runner, m = measure_workload(
                    binary, w, args.seed, args.seconds, trace)
                print_table(w, m)
                ok = ok and w_ok
                attempted += runner.attempted
                failed += runner.failed
                # With --workload all, names are "<workload>/<metric>".
                metrics.update({(w + "/" + k if every else k): v
                                for k, v in m.items()})
    except BenchError as e:
        log(str(e))
        return 1
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
