#!/usr/bin/env python3
"""Determinism lint for the simulator sources.

The repo's determinism contract (ARCHITECTURE.md) promises bit-identical
outputs for identical specs, on any host, at any parallelism. This lint
flags the source patterns that historically break that promise:

  * range-for iteration over ``std::unordered_map`` / ``unordered_set``
    declared in the same file — hash-order iteration feeding results or
    output makes byte output host-dependent;
  * ``rand()`` / ``srand()`` / ``std::random_device`` — unseeded or
    host-seeded randomness (deterministic PRNGs like ``std::mt19937``
    with a fixed seed are fine and are not flagged);
  * ``time(...)`` / ``clock()`` / ``localtime`` / wall-clock seeding —
    timestamps in simulation results (the campaign layer's *reported*
    host wall-clock is an explicitly non-deterministic field and carries
    a suppression);
  * ``std::map`` / ``std::set`` keyed by pointers — iteration order
    tracks the allocator, not the program;
  * mutable ``static`` and ``thread_local`` variables — process-global
    state makes a run depend on what else the process ran before it
    (``const`` and ``constexpr`` ones are fine; a declaration split
    across lines before its initializer is not seen);
  * ``mmap`` / ``munmap`` / ``mprotect`` / ``madvise`` outside
    ``src/mem/ram.h`` — host addresses and the host's memory limits stay
    in the one file that maps device memory, which exposes only guest
    addresses.

A finding on a line ending with ``// det-ok: <reason>`` is suppressed;
the reason is required so every exception is documented in place.

Dependency-free on purpose: stdlib only, runnable anywhere CI has a
Python 3. Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

import os
import re
import sys

# Directories under the determinism contract. tex/ feeds the texture
# kernels' output and is included; tools/ and tests/ host-side code is
# allowed to read clocks (progress lines, wall-clock artifacts).
LINT_DIRS = ("src/core", "src/mem", "src/sweep", "src/common",
             "src/analysis", "src/isa", "src/runtime", "src/kernels",
             "src/tex", "src/area", "src/faults", "src/fuzz")

SUPPRESS = re.compile(r"//\s*det-ok:\s*\S")

UNORDERED_DECL = re.compile(
    r"\bunordered_(?:map|set)\s*<[^;{]*>\s*&?\s*(\w+)\s*[;,={)]")
RANGE_FOR = re.compile(r"\bfor\s*\([^;:()]*:\s*&?\s*([A-Za-z_]\w*)\s*\)")

BANNED = [
    (re.compile(r"(?<![\w.])s?rand\s*\("),
     "rand()/srand(): host-dependent randomness; use a fixed-seed PRNG"),
    (re.compile(r"\brandom_device\b"),
     "std::random_device: host entropy; use a fixed-seed PRNG"),
    (re.compile(r"(?<![\w.:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time(): wall clock in simulation code"),
    (re.compile(r"(?<![\w.:])clock\s*\(\s*\)"),
     "clock(): host CPU time in simulation code"),
    (re.compile(r"\blocaltime\b"),
     "localtime: host timezone in simulation code"),
    (re.compile(r"\b(?:map|set)\s*<\s*(?:const\s+)?[\w:]+\s*\*\s*[,>]"),
     "pointer-keyed ordered container: iteration order tracks the "
     "allocator"),
]

OS_MEMORY = re.compile(r"(?<![\w.])(?:mmap|munmap|mprotect|madvise)\s*\(")
OS_MEMORY_FILE = "src/mem/ram.h"

STORAGE = re.compile(r"\b(?:static|thread_local)\b")
CONST = re.compile(r"\bconst(?:expr)?\b")
TEMPLATE_ARGS = re.compile(r"<[^<>]*>")
GLOBAL_STATE = ("mutable static/thread_local variable: process-global "
                "state makes a run depend on what ran before it")


def is_mutable_global(code):
    """A static or thread_local declaration of a non-const variable: the
    first of ( = { ; after the keyword (template arguments dropped) is
    an initializer or the end of the declaration, not a parameter list.
    A line that names no declarator yet (``static void`` above a
    function name) is not one."""
    m = STORAGE.search(code)
    if not m or CONST.search(code):
        return False
    rest = code[m.end():]
    while True:
        shorter = TEMPLATE_ARGS.sub("", rest)
        if shorter == rest:
            break
        rest = shorter
    first = re.search(r"[(={;]", rest)
    return bool(first) and first.group() != "("


def strip_comments_and_strings(line):
    """Blank out string/char literals and // comments so patterns do not
    match inside them (the suppression marker is read before this)."""
    out = []
    i, n = 0, len(line)
    quote = None
    while i < n:
        c = line[i]
        if quote:
            if c == "\\":
                i += 2
                continue
            if c == quote:
                quote = None
            i += 1
            continue
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


def lint_file(path, os_memory_ok=False):
    findings = []
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        findings.append((path, 0, "cannot read file: %s" % e))
        return findings

    unordered_names = set()
    code_lines = []
    for lineno, raw in enumerate(lines, 1):
        suppressed = bool(SUPPRESS.search(raw))
        code = strip_comments_and_strings(raw)
        code_lines.append((lineno, code, suppressed))
        m = UNORDERED_DECL.search(code)
        if m:
            unordered_names.add(m.group(1))

    for lineno, code, suppressed in code_lines:
        if suppressed:
            continue
        for pattern, why in BANNED:
            if pattern.search(code):
                findings.append((path, lineno, why))
        if not os_memory_ok and OS_MEMORY.search(code):
            findings.append(
                (path, lineno,
                 "OS memory call outside %s: device memory is mapped in "
                 "one place" % OS_MEMORY_FILE))
        if is_mutable_global(code):
            findings.append((path, lineno, GLOBAL_STATE))
        m = RANGE_FOR.search(code)
        if m and m.group(1) in unordered_names:
            findings.append(
                (path, lineno,
                 "range-for over unordered container '%s': hash-order "
                 "iteration is host-dependent" % m.group(1)))
    return findings


def main(argv):
    root = argv[1] if len(argv) > 1 else "."
    if not os.path.isdir(os.path.join(root, "src")):
        print("usage: check_determinism.py [repo-root]", file=sys.stderr)
        return 2

    findings = []
    checked = 0
    for lint_dir in LINT_DIRS:
        full = os.path.join(root, lint_dir)
        if not os.path.isdir(full):
            continue
        for name in sorted(os.listdir(full)):
            if not name.endswith((".h", ".cpp")):
                continue
            checked += 1
            findings.extend(
                lint_file(os.path.join(full, name),
                          "%s/%s" % (lint_dir, name) == OS_MEMORY_FILE))

    for path, lineno, why in findings:
        print("%s:%d: %s" % (os.path.relpath(path, root), lineno, why))
    print("checked %d file(s): %d finding(s)" % (checked, len(findings)))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
