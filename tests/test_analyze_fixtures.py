#!/usr/bin/env python3
"""Fixture suite for tools/mpsim_analyze.

Runs the analyzer over tests/analyze_fixtures/src — a tree seeded with at
least one deliberate violation per rule — and asserts that:

  * the findings are exactly the EXPECTED (file, rule) pairs: every seeded
    violation fires under its rule, including the cross-TU escape (a clean
    handler calling an allocating helper in another file), the two
    reached through constructors (make_unique<T>, a member initializer)
    and the allocation inside a hot constructor's initializer list,
    and every other file — the negative controls — stays silent;
  * the allow comment that suppresses nothing is reported as stale;
  * on the real tree the computed hot set still covers the nine per-event
    files that used to be hard-coded as the hot list.

Stdlib only; invoked by ctest as `python3 tests/test_analyze_fixtures.py
--root <repo root>`.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

# One (file, rule) entry per finding the fixture tree must produce; any
# other finding fails the suite.
EXPECTED = Counter([
    ("pool_discipline.cpp", "pool-discipline"),
    ("determinism_clock.cpp", "determinism-clock"),
    ("determinism_rand.cpp", "determinism-rand"),
    ("determinism_env.cpp", "determinism-env"),
    ("no_bare_assert.cpp", "no-bare-assert"),
    ("trace_discipline.cpp", "trace-discipline"),
    ("simtime_discipline.cpp", "simtime-discipline"),
    ("registry_outside.cpp", "registry-discipline"),
    ("registry_action_outside.cpp", "registry-discipline"),  # fault action
    ("registry_upper/scenario/builders.cpp", "registry-discipline"),
    ("registry_dup/scenario/builders.cpp", "registry-discipline"),
    # a builder reads a key its table does not declare
    ("registry_undeclared/scenario/builders.cpp", "registry-discipline"),
    # a table declares one key twice
    ("registry_duprow/scenario/builders.cpp", "registry-discipline"),
    # a metric's record function reads an argument its table lacks
    ("registry_metric_undeclared/scenario/builders.cpp",
     "registry-discipline"),
    ("mutable_global_namespace.cpp", "mutable-global"),
    ("mutable_global_class.cpp", "mutable-global"),  # static inline int
    ("mutable_global_class.cpp", "mutable-global"),  # inline static u64
    ("mutable_global_local.cpp", "mutable-global"),
    ("hot_alloc.cpp", "hot-alloc"),
    ("escape_helper.cpp", "hot-alloc"),  # hot only via the cross-TU call
    # a constructor hot only through make_unique<T>
    ("ctor_via_make_unique.cpp", "hot-alloc"),
    # a helper hot only through a constructor's initializer list
    ("ctor_init_list.cpp", "hot-alloc"),
    # an allocation inside a hot constructor's initializer list
    ("ctor_init_alloc.cpp", "hot-alloc"),
    ("hot_io.cpp", "hot-io"),
    ("packet_ownership.cpp", "packet-ownership"),
    ("comment_closing_line.cpp", "determinism-rand"),  # code after `*/`
    ("stale_allow.cpp", "stale-allow"),
])

# Negative controls, named so a renamed or deleted control fails loudly.
SILENT = {
    "clean_cold.cpp", "escape.cpp", "mutable_global_ok.cpp",
    "comment_inline.cpp", "comment_hot_body.cpp", "literal_string.cpp",
    "literal_raw_string.cpp",
}

# The per-event files once listed by hand as the allocation-free hot set
# (paths under src/); reachability must keep covering all of them.
FORMER_HOT_FILES = {
    "core/event_list.cpp", "core/event_list.hpp",
    "core/timing_wheel.cpp", "core/timing_wheel.hpp",
    "tcp/subflow.cpp", "tcp/subflow.hpp",
    "net/queue.cpp", "net/queue.hpp",
    "net/variable_rate_queue.cpp",
}

FINDING_RE = re.compile(r"^(\S+?):\d+: \[([\w-]+)\]")


def run_analyzer(root: Path, src_root: Path, *extra: str):
    cmd = [sys.executable, str(root / "tools" / "mpsim_analyze"),
           "--src-root", str(src_root), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", default=None)
    args = ap.parse_args()
    root = (Path(args.root) if args.root
            else Path(__file__).resolve().parent.parent)
    fixtures = root / "tests" / "analyze_fixtures" / "src"

    failures: list[str] = []

    code, out, err = run_analyzer(root, fixtures)
    if code != 1:
        failures.append(f"fixture run: expected exit 1, got {code}\n{err}")
    reported = Counter(m.groups() for m in map(FINDING_RE.match,
                                               out.splitlines()) if m)
    for fname, rule in sorted((EXPECTED - reported).elements()):
        failures.append(f"seeded violation not reported: {fname} [{rule}]")
    for fname, rule in sorted((reported - EXPECTED).elements()):
        failures.append(f"unexpected finding: {fname} [{rule}]")
    for fname in sorted(SILENT):
        if not (fixtures / fname).is_file():
            failures.append(f"negative control missing: {fname}")
        if any(f == fname for f, _ in reported):
            failures.append(f"negative control reported: {fname}")

    code, out, err = run_analyzer(root, root / "src", "--dump-hotset")
    hot_files = {ln.split(":", 1)[0] for ln in out.splitlines()}
    if code != 0:
        failures.append(f"--dump-hotset on src/ failed ({code}): {err}")
    for f in sorted(FORMER_HOT_FILES - hot_files):
        failures.append(f"hot set misses former hot file src/{f}")
    if len(hot_files) <= len(FORMER_HOT_FILES):
        failures.append(f"hot set ({len(hot_files)} files) is not a strict "
                        f"superset of the former hot list")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"test_analyze_fixtures: OK ({sum(EXPECTED.values())} seeded "
          f"findings exact, {len(SILENT)} controls silent, hot files "
          f"{len(hot_files)} > {len(FORMER_HOT_FILES)} formerly listed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
