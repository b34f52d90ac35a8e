#!/usr/bin/env python3
"""A/B host-performance driver: the work tree against a base commit.

Run from anywhere inside the repository:

    python3 tools/perf_ab.py --pairs 10 --seconds 3
    python3 tools/perf_ab.py --base HEAD~1 --workload compute_1c --trace 1

It extracts a ``git archive`` of the base commit (default ``HEAD``, so an
uncommitted change is measured against its parent; pass ``HEAD~1`` once it
is committed) under a scratch directory, then runs
``perfbench/run.py --workload W --seconds S --seed N`` in both trees for N
alternating pairs per workload, with seeds ``--seed-base``,
``--seed-base + 1``, ... The base runs first in odd pairs (1st, 3rd, ...),
the work tree in even ones.
Each tree builds its own perfbench under its ``.bench_build/`` before the
first pair.

For every metric it prints each side's median and quartiles, the change's
relative median difference, how many pairs the change won (ties count for
neither) and the base's interquartile range (IQR). ``gain`` marks a metric
the change won in at least nine tenths of the pairs with medians further
apart than the base's IQR; ``loss`` marks the mirror image.

Exit status: 0 when every run verified and the simulated counts matched on
every pair; 1 when a run failed or ``sim_cycles``/``ipc`` differ between the
two sides of a pair (with ``--trace 1``, any count metric); 2 on usage
errors. Stdlib only.
"""

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("compute_1c", "memory_16c", "campaign")

# Metrics that must repeat exactly across the two trees: the simulated
# results always, and with --trace 1 every metric counted in these units.
EXACT_METRICS = ("sim_cycles", "ipc")
EXACT_UNITS = {"cycles", "instrs", "count", "slots", "bytes", "runs",
               "instr/cycle"}


def fail(msg, status=1):
    print(f"perf_ab: {msg}", file=sys.stderr)
    sys.exit(status)


def git(*args):
    proc = subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    if proc.returncode != 0:
        fail(f"git {' '.join(args)}: {proc.stderr.decode().strip()}", 2)
    return proc.stdout


def base_tree(rev, scratch):
    """The base commit's files under scratch/<sha>, extracted once."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    tree = scratch / sha
    marker = tree / ".perf_ab_rev"
    if marker.is_file() and marker.read_text() == sha:
        return sha, tree
    tree.mkdir(parents=True, exist_ok=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", sha)), mode="r:") as t:
        t.extractall(tree)
    marker.write_text(sha)
    return sha, tree


def directions():
    """metric name -> "lower" or "higher", from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer") for m in bench[key]}


def perfbench(tree, workload, seconds, seed, trace):
    """One perfbench/run.py run in tree; its metrics, or exit on failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"run failed in {tree} (exit status {proc.returncode}): "
             f"{' '.join(cmd[1:])}")
    return result["metrics"]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def fmt(v):
    return f"{v:.6g}"


def spread(median, q1, q3):
    return f"{fmt(median)} [{fmt(q1)}, {fmt(q3)}]"


def report(workload, pairs, better):
    """Print one workload's table; return the names of mismatched exact
    metrics."""
    print(f"\n{workload}: {len(pairs)} pairs, seeds "
          f"{pairs[0]['seed']}..{pairs[-1]['seed']}")
    print(f"  {'metric':32} {'base median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'delta':>8} {'wins':>6} "
          f"{'base IQR':>10}")
    names = list(pairs[0]["base"])
    names += [n for n in pairs[0]["change"] if n not in names]
    mismatched = []
    for name in names:
        if any(name not in p["base"] or name not in p["change"]
               for p in pairs):
            print(f"  {name:32} (missing from a run)")
            continue
        base = [p["base"][name]["value"] for p in pairs]
        change = [p["change"][name]["value"] for p in pairs]
        unit = pairs[0]["base"][name]["unit"]
        if name in EXACT_METRICS or unit in EXACT_UNITS:
            if base != change:
                mismatched.append(name)
        b1, bm, b3 = quartiles(base)
        c1, cm, c3 = quartiles(change)
        delta = f"{(cm - bm) / bm:+.1%}" if bm else "-"
        way = better.get(name)
        wins, verdict = "-", ""
        if way:
            sign = -1 if way == "lower" else 1
            won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
            lost = sum(sign * (c - b) < 0 for b, c in zip(base, change))
            wins = f"{won}/{len(pairs)}"
            need = math.ceil(0.9 * len(pairs))
            apart = abs(cm - bm) > b3 - b1
            if won >= need and apart and sign * (cm - bm) > 0:
                verdict = "gain"
            elif lost >= need and apart and sign * (cm - bm) < 0:
                verdict = "loss"
        if name in mismatched:
            verdict = "MISMATCH"
        print(f"  {name:32} {spread(bm, b1, b3):34} "
              f"{spread(cm, c1, c3):34} {delta:>8} {wins:>6} "
              f"{fmt(b3 - b1):>10} {unit} {verdict}".rstrip())
    return mismatched


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD",
                    help="base commit to compare the work tree against")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=3)
    ap.add_argument("--seed-base", type=int, default=1,
                    help="seed of the first pair; each next pair adds 1")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", type=Path,
                    default=ROOT / ".bench_build" / "ab",
                    help="where the base tree is extracted and built")
    args = ap.parse_args()
    if args.pairs < 1:
        fail("--pairs must be >= 1", 2)

    sha, base = base_tree(args.base, args.scratch.resolve())
    print(f"base {sha[:12]} at {base}; change: work tree {ROOT}")
    better = directions()
    workloads = args.workload or list(WORKLOADS)
    # Build both trees (a short run each) before any timed pair.
    for tree in (base, ROOT):
        perfbench(tree, workloads[0], 0, args.seed_base, 0)

    status = 0
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = (("base", base), ("change", ROOT))
            if i % 2:
                order = order[::-1]
            pair = {"seed": seed}
            for side, tree in order:
                pair[side] = perfbench(tree, workload, args.seconds, seed,
                                       args.trace)
            pairs.append(pair)
            walls = " -> ".join(
                f"{pair[side]['wall_s']['value']:.4f}"
                for side in ("base", "change") if "wall_s" in pair[side])
            print(f"  {workload} pair {i + 1}/{args.pairs}: seed {seed}, "
                  f"{order[0][0]} first, wall_s {walls or '-'}", flush=True)
        mismatched = report(workload, pairs, better)
        if mismatched:
            print(f"  {workload}: counts differ: {', '.join(mismatched)}")
            status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
