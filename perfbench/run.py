#!/usr/bin/env python3
"""Repo benchmark: build the simulator, run a workload, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload compute_1c --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md for
every name, unit and layer). The line before it records the run context.

The first run in a checkout configures and builds ``perfbench/`` (which pulls
in ``src/``) under ``.bench_build/``; later runs only re-check the build. The
exit status is 0 only when every run verified and repeated exactly.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
EXE = BUILD / "perfbench"

WORKLOADS = ("compute_1c", "memory_16c", "campaign")

# Set-up happens once per process (static initialisation, spec parse and
# expand), so it is timed in this many fresh processes and the median is
# reported.
SETUP_REPEATS = 31

# Each child must end well within the 180 s a run is allowed.
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_child(cmd, **kw):
    """Run cmd from the repository root; kill it if it overruns."""
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S, **kw)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        try:
            proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed")


def setup_seconds(spec):
    times = []
    for _ in range(SETUP_REPEATS):
        proc = run_child([EXE, "--setup-only", "--spec", spec],
                         stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            fail("set-up failed")
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_workload(workload, args):
    """Run one workload; return its context and result objects and whether
    the benchmark process succeeded."""
    spec = f"perfbench/specs/{workload}.toml"
    work = ROOT / ".bench_build" / "work" / f"{workload}-{os.getpid()}"
    # The traced run spends half its time alternating plain and traced
    # passes and the rest on its warm and parallel-backend passes.
    seconds = args.seconds / 2 if args.trace else args.seconds

    setup = None if args.trace else setup_seconds(spec)
    proc = run_child([EXE, "--spec", spec, "--work-dir", work,
                      "--seconds", str(seconds), "--trace", str(args.trace),
                      "--seed", str(args.seed)],
                     stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        context, result = json.loads(lines[0]), json.loads(lines[-1])
        if "context" not in context or "correct" not in result:
            raise ValueError
    except (IndexError, ValueError):
        shutil.rmtree(work, ignore_errors=True)
        fail(f"no result from the benchmark (exit status {proc.returncode})")
    if args.trace and (work / "spans.json").is_file():
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        spans = traces / f"{workload}-seed{args.seed}.json"
        shutil.move(work / "spans.json", spans)
        context["context"]["spans"] = str(spans.relative_to(ROOT))
    shutil.rmtree(work, ignore_errors=True)

    if setup is not None:
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    return context, result, proc.returncode == 0 and result["correct"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    if args.workload != "all":
        context, result, ok = run_workload(args.workload, args)
        print(json.dumps(context))
        print(json.dumps(result))
        sys.exit(0 if ok else 1)

    # Every workload in turn: one line per workload, then one object whose
    # metric names are prefixed with the workload.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    all_ok = True
    for workload in WORKLOADS:
        context, result, ok = run_workload(workload, args)
        all_ok &= ok
        print(json.dumps(context))
        print(json.dumps({"workload": workload, **result}))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(total))
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
