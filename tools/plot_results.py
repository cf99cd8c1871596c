#!/usr/bin/env python3
"""Render bench results as quick matplotlib charts (optional).

Usage: tools/plot_results.py bench_output.txt [outdir]
       tools/plot_results.py BENCH_quick.json [outdir]
       tools/plot_results.py prof.json [outdir]
       tools/plot_results.py run.takomon [outdir]
       tools/plot_results.py BENCH_perf_a.json BENCH_perf_b.json... [outdir]

Accepts the legacy text capture of the bench binaries' stdout (the
"=== Fig. N ===" tables), a takobench suite report (BENCH_<suite>.json,
schema "takobench-v1"), a takoprof profile (takosim --profile, schema
"takoprof-v1"), a takomon telemetry file (takosim --mon-out, format
takomon-v1), or one or more ensemble-speedup artifacts
(tools/perf_smoke.py, schema "takoperf-v1"); the format is sniffed from
the file contents.
Bench inputs get one PNG per figure/run with the variants' leading
metric; takoprof inputs get a NoC
link-utilization heatmap and a per-engine occupancy chart; takomon
inputs get a time-series chart of the most active counters; takoperf
inputs get an ensemble-speedup trend across the given files (in
argument order, labelled by git rev — pass the artifacts oldest-first).

Missing or empty input files are skipped with a warning rather than
aborting the batch — perf history directories legitimately start out
sparse. Requires matplotlib; degrades to printing the parsed tables
without it.
"""
import json
import os
import re
import sys


NO_MATPLOTLIB = "matplotlib not available; printed summaries only"


def pyplot():
    """matplotlib.pyplot on the Agg backend; None without matplotlib."""
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return None
    return plt


def parse_text(path):
    sections = {}
    current, rows = None, []
    for line in open(path):
        m = re.match(r"=== (.*) ===", line)
        if m:
            if current:
                sections[current] = rows
            current, rows = m.group(1), []
        elif current and re.match(r"\S", line) and not line.startswith(
                ("paper:", "here :", "variant", "txBytes", "entries",
                 "engine ", "peLatency", "core ", "config")):
            rows.append(line.split())
    if current:
        sections[current] = rows
    return sections


def parse_suite(doc):
    """takobench-v1 report -> {section: [[label, value], ...]}.

    Each run's recorded rows become one section (grouped bars of the
    row's first numeric column, preferring speedup/cycles when present).
    Runs without rows (takosim runs) chart their raw metrics instead.
    """
    preferred = ("speedup", "cycles", "total", "mean")
    sections = {}
    for run in doc.get("runs", []):
        rows = run.get("rows") or []
        out = []
        for row in rows:
            numeric = {k: v for k, v in row.items()
                       if isinstance(v, (int, float))}
            if not numeric:
                continue
            key = next((p for p in preferred if p in numeric),
                       sorted(numeric)[0])
            label = row.get("variant") or row.get("label") or "?"
            out.append([str(label), str(numeric[key])])
        if not out:
            metrics = run.get("metrics") or {}
            out = [[k, str(v)] for k, v in sorted(metrics.items())
                   if isinstance(v, (int, float))]
        if out:
            status = "" if run.get("pass", True) else " [FAIL]"
            sections[run.get("name", "?") + status] = out
    return sections


def parse_takomon(path):
    """Decode a takomon-v1 file via the reference stdlib decoder."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from validate_takomon import decode
    series, ticks, columns, _ = decode(path)
    return {"schema": "takomon-v1", "path": path, "series": series,
            "ticks": ticks, "columns": columns}


def parse(path):
    """Sniff and parse one input; None = unusable (already warned)."""
    if os.path.exists(path) and os.path.getsize(path) == 0:
        print(f"warning: {path} is empty; skipping")
        return None
    with open(path, "rb") as f:
        if f.read(8) == b"takomon1":
            return parse_takomon(path)
    text = open(path).read()
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            print(f"warning: {path}: malformed JSON ({e}); skipping")
            return None
        schema = str(doc.get("schema", ""))
        if schema.startswith(("takobench", "takoprof", "takoperf")):
            return doc
        raise SystemExit(f"{path}: JSON but not a takobench report, "
                         "takoprof profile, or takoperf artifact "
                         "(unrecognized \"schema\")")
    return parse_text(path)


def plot_takoprof(doc, outdir):
    """NoC link heatmap + per-engine occupancy from a takoprof-v1 doc."""
    noc = doc.get("noc", {})
    tile_busy = noc.get("tile_busy") or []
    engines = doc.get("engines") or []
    plt = pyplot()
    if plt is None:
        for row in tile_busy:
            print(" ".join(f"{v:>10}" for v in row))
        for e in engines:
            print(f"tile {e.get('tile')}: peak occupancy "
                  f"{e.get('peak_occupancy')}")
        print(NO_MATPLOTLIB)
        return

    wrote = 0
    if tile_busy:
        fig, ax = plt.subplots(figsize=(5, 4))
        im = ax.imshow(tile_busy, cmap="inferno", origin="upper")
        ax.set_title("NoC outgoing-link busy cycles per tile")
        ax.set_xlabel("mesh x")
        ax.set_ylabel("mesh y")
        fig.colorbar(im, ax=ax, label="flit-cycles")
        plt.tight_layout()
        fig.savefig(f"{outdir}/takoprof_noc_heatmap.png", dpi=120)
        plt.close(fig)
        wrote += 1
    if engines:
        tiles = [e.get("tile", i) for i, e in enumerate(engines)]
        peaks = [e.get("peak_occupancy", 0) for e in engines]
        fig, ax = plt.subplots(figsize=(6, 3))
        ax.bar([str(t) for t in tiles], peaks)
        ax.set_title("Engine peak occupancy (concurrent callbacks)")
        ax.set_xlabel("tile")
        ax.set_ylabel("callbacks")
        plt.tight_layout()
        fig.savefig(f"{outdir}/takoprof_engine_occupancy.png", dpi=120)
        plt.close(fig)
        wrote += 1
    print(f"wrote {wrote} takoprof charts to {outdir}")


def plot_takomon(doc, outdir, top=8):
    """Time-series chart of a takomon file's most active counters.

    "Most active" = largest dynamic range over the run; flat series
    (registered but untouched counters) would only clutter the legend.
    """
    ticks = doc["ticks"]
    names = [n for n, _ in doc["series"]]
    ranked = sorted(range(len(names)),
                    key=lambda i: (max(doc["columns"][i]) -
                                   min(doc["columns"][i])
                                   if doc["columns"][i] else 0),
                    reverse=True)
    picked = [i for i in ranked[:top]
              if doc["columns"][i] and
              max(doc["columns"][i]) > min(doc["columns"][i])]
    stem = re.sub(r"\W+", "_",
                  os.path.splitext(os.path.basename(doc["path"]))[0])
    plt = pyplot()
    if plt is None:
        print(f"{doc['path']}: {len(names)} series, "
              f"{len(ticks)} samples")
        for i in picked:
            col = doc["columns"][i]
            print(f"  {names[i]}: first {col[0]:g} last {col[-1]:g}")
        print(NO_MATPLOTLIB)
        return

    fig, ax = plt.subplots(figsize=(8, 4))
    for i in picked:
        ax.plot(ticks, doc["columns"][i], label=names[i], linewidth=1)
    ax.set_title(f"takomon: {os.path.basename(doc['path'])} "
                 f"(top {len(picked)} of {len(names)} series)")
    ax.set_xlabel("sim tick")
    ax.set_ylabel("counter value")
    ax.legend(fontsize=7, loc="upper left")
    plt.tight_layout()
    fig.savefig(f"{outdir}/takomon_{stem}.png", dpi=120)
    plt.close(fig)
    print(f"wrote takomon series chart to {outdir}/takomon_{stem}.png")


def plot_takoperf(docs, outdir):
    """Ensemble-speedup trend across takoperf-v1 artifacts.

    One chart: the shard_ensemble wall-clock speedup (median of the
    alternating pairs) of four replicas on four lanes over one lane.
    Each point is one artifact in argument order labelled by its git
    rev; artifacts tagged "untrusted" (non-Release build or dirty tree
    — see perf_smoke.py) get a * on the label.
    """
    revs = [str(d.get("build", {}).get("git_rev", "?"))[:12]
            + ("*" if d.get("untrusted") else "") for d in docs]
    ensemble = [d.get("shard_ensemble", {}).get("speedup") for d in docs]
    plt = pyplot()
    if plt is None:
        print(f"{'rev':>13} {'ens spdup':>11}")
        for r, sp in zip(revs, ensemble):
            sp_txt = f"{sp:.2f}x" if sp is not None else "-"
            print(f"{r:>13} {sp_txt:>11}")
        print(NO_MATPLOTLIB)
        return

    fig, ax = plt.subplots(figsize=(max(6, len(revs) * 0.9), 3.5))
    ax.plot(revs, [sp if sp is not None else float("nan")
                   for sp in ensemble],
            marker="s", label="4-replica ensemble, 4 lanes")
    ax.axhline(1.0, color="gray", linewidth=0.8)
    ax.set_ylabel("wall-clock speedup vs 1 lane")
    ax.set_ylim(bottom=0)
    ax.set_title("Ensemble speedup trend (* = untrusted artifact)")
    ax.legend(loc="lower right")
    plt.xticks(rotation=30, ha="right")
    plt.tight_layout()
    fig.savefig(f"{outdir}/takoperf_ensemble_speedup.png", dpi=120)
    plt.close(fig)
    print(f"wrote ensemble speedup trend ({len(revs)} points) to "
          f"{outdir}/takoperf_ensemble_speedup.png")


def plot_suite(sections, outdir):
    """Bar chart per section: a takobench run or a legacy text table."""
    plt = pyplot()
    if plt is None:
        for name, rows in sections.items():
            print(f"{name}: {len(rows)} rows")
        print(NO_MATPLOTLIB)
        return
    wrote = 0
    for i, (name, rows) in enumerate(sections.items()):
        labels = [r[0] for r in rows if len(r) >= 2]
        try:
            values = [float(r[1]) for r in rows if len(r) >= 2]
        except ValueError:
            continue
        if not values:
            continue
        fig, ax = plt.subplots(figsize=(6, 3))
        ax.bar(labels, values)
        ax.set_title(name)
        ax.set_ylabel("cycles / value")
        plt.xticks(rotation=30, ha="right")
        plt.tight_layout()
        safe = re.sub(r"\W+", "_", name)[:50]
        fig.savefig(f"{outdir}/{i:02d}_{safe}.png", dpi=120)
        plt.close(fig)
        wrote += 1
    print(f"wrote {wrote} charts to {outdir}")


def main():
    args = sys.argv[1:] or ["bench_output.txt"]
    outdir = "."
    if len(args) > 1 and not args[-1].endswith(
            (".json", ".txt", ".takomon")):
        outdir = args.pop()
    parsed = []
    for p in args:
        try:
            doc = parse(p)
        except OSError as e:
            print(f"warning: {p}: {e.strerror or e}; skipping")
            continue
        if doc is not None:
            parsed.append(doc)
    if not parsed:
        print("plot_results: no usable inputs (all missing or empty)")
        return
    if all(isinstance(d, dict) and
           str(d.get("schema", "")).startswith("takoperf")
           for d in parsed):
        plot_takoperf(parsed, outdir)
        return
    if len(parsed) > 1:
        raise SystemExit("multiple input files are only supported for "
                         "takoperf-v1 artifacts")
    sections = parsed[0]
    if isinstance(sections, dict):
        schema = str(sections.get("schema", ""))
        if schema.startswith("takoprof"):
            plot_takoprof(sections, outdir)
            return
        if schema.startswith("takomon"):
            plot_takomon(sections, outdir)
            return
        if schema.startswith("takobench"):
            sections = parse_suite(sections)
    plot_suite(sections, outdir)


if __name__ == "__main__":
    main()
