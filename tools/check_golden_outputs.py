#!/usr/bin/env python3
"""Byte-identity gate for the shipped campaigns.

Runs every ``examples/specs/*.toml`` and every benchmark workload in
``perfbench/specs/*.toml`` cold (no result cache) through
``vortex_sweep run --jobs 4`` and compares the SHA-256 of the emitted CSV
and JSON, plus the exit status, against the pinned digests in
``ci/golden_outputs.json``. A benchmark spec is pinned under the key
``perfbench/NAME``; the spec files are only read. Any simulator change that is meant to be
behaviour-preserving (host-performance work above all) must leave every
digest unchanged; a deliberate timing-model change regenerates the file
with ``--update`` and says so.

Run from the repository root (spec ``program = "..."`` paths are
repo-relative)::

    python3 tools/check_golden_outputs.py --sweep build/tools/vortex_sweep
    python3 tools/check_golden_outputs.py --sweep build/tools/vortex_sweep \\
        --update

Stdlib only. Exit status: 0 = every digest matches, 1 = mismatch or a
spec missing from / extra to the pinned set, 2 = usage error.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

# (directory, key prefix): example campaigns keep their bare names.
SPEC_DIRS = ((os.path.join("examples", "specs"), ""),
             (os.path.join("perfbench", "specs"), "perfbench/"))
GOLDEN = os.path.join("ci", "golden_outputs.json")
JOBS = 4


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def run_spec(sweep, spec, name, workdir):
    """Run one spec cold; return its exit status and output digests."""
    stem = name.replace("/", "_")
    csv = os.path.join(workdir, stem + ".csv")
    js = os.path.join(workdir, stem + ".json")
    proc = subprocess.run(
        [sweep, "run", "--spec", spec, "--jobs", str(JOBS), "--csv", csv,
         "--json", js, "--quiet"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    result = {"exit": proc.returncode}
    for key, path in (("csv_sha256", csv), ("json_sha256", js)):
        result[key] = sha256(path) if os.path.exists(path) else None
    return result, proc.stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sweep", required=True,
                    help="path to the vortex_sweep binary")
    ap.add_argument("--golden", default=GOLDEN,
                    help="pinned digest file (default: %(default)s)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the pinned file from this run")
    args = ap.parse_args()

    if not os.access(args.sweep, os.X_OK):
        print("error: not an executable: " + args.sweep, file=sys.stderr)
        return 2
    specs = sorted((prefix + os.path.splitext(f)[0], os.path.join(d, f))
                   for d, prefix in SPEC_DIRS
                   for f in os.listdir(d) if f.endswith(".toml"))

    pinned = {}
    if not args.update:
        try:
            with open(args.golden) as f:
                pinned = json.load(f)
        except (OSError, ValueError) as e:
            print("error: cannot read %s: %s" % (args.golden, e),
                  file=sys.stderr)
            return 2

    got = {}
    failures = 0
    with tempfile.TemporaryDirectory(prefix="golden_outputs_") as workdir:
        for name, spec in specs:
            result, stderr = run_spec(args.sweep, spec, name, workdir)
            got[name] = result
            if args.update:
                print("%-22s exit=%d" % (name, result["exit"]))
                continue
            want = pinned.get(name)
            if want == result:
                print("%-22s ok" % name)
                continue
            failures += 1
            print("%-22s MISMATCH" % name)
            for key in ("exit", "csv_sha256", "json_sha256"):
                w = None if want is None else want.get(key)
                if w != result[key]:
                    print("    %s: pinned %s, got %s" % (key, w, result[key]))
            if result["exit"] not in (0, 3) and stderr:
                print("    stderr: " + stderr.strip().splitlines()[-1])

    if args.update:
        with open(args.golden, "w") as f:
            json.dump(got, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote %d digests to %s" % (len(got), args.golden))
        return 0
    for name in sorted(set(pinned) - set(got)):
        failures += 1
        print("%-22s MISSING (pinned but no spec file)" % name)
    if failures:
        print("%d spec(s) differ from %s" % (failures, args.golden))
        return 1
    print("all %d spec(s) match %s" % (len(got), args.golden))
    return 0


if __name__ == "__main__":
    sys.exit(main())
