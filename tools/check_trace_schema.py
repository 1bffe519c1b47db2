#!/usr/bin/env python3
"""Validate a flight-recorder CSV trace against the record schema.

Checks (mirroring src/trace/record.hpp and TraceRecorder::csv()):
  * header is exactly  t_ns,type,obj,flow,sub,phase,a,b,x,y
  * every row has exactly 10 columns
  * t_ns is a non-negative integer and non-decreasing down the file
    (the recorder stores records in simulation order)
  * type is one of the known record-type names
  * flow / sub / phase / a / b are non-negative integers, phase <= 3
  * x / y parse as finite floats
  * a row sets only the columns its type's payload convention names;
    every other column is zero
  * obj is non-empty and contains no characters that would break the CSV

The scenario_smoke_* ctests (tests/scenario_smoke.cmake) run this over
the traces of scaled spec runs, which hold every record type between
them, so schema drift between the recorder and this validator fails the
build.

Usage: tools/check_trace_schema.py TRACE.csv [TRACE2.csv ...]
Exits non-zero on the first malformed file.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

HEADER = "t_ns,type,obj,flow,sub,phase,a,b,x,y"
NUM_COLS = 10

# Every record type (record_type_name() in src/trace/trace.cpp) and the
# columns out of flow, sub, phase, a, b, x and y its rows may set, as
# src/trace/record.hpp's payload conventions state them.
SETS = {
    "cwnd": {"flow", "sub", "phase", "a", "b", "x", "y"},
    "state": {"flow", "sub", "phase", "a"},
    "queue": {"a", "b"},
    "queue_drop": {"flow", "sub", "a", "b"},
    "link_drop": {"flow", "sub", "b"},
    "rate": {"x"},
    "data_ack": {"flow", "a", "b"},
    "rcv_buf": {"flow", "a", "b"},
    "reinject": {"flow", "a", "b"},
    "goodput": {"flow", "sub", "x"},
    "fault": {"a", "b", "x"},
    "subflow_add": {"flow", "sub", "a", "b"},
    "subflow_drop": {"flow", "sub", "a", "b"},
    "rate_sample": {"flow", "sub", "a", "b", "x", "y"},
    "pacing": {"flow", "sub", "a", "x"},
}
PAYLOAD = ("flow", "sub", "phase", "a", "b", "x", "y")
MAX_PHASE = 3  # TcpPhase::kRtoRecovery


def fail(path: Path, lineno: int, msg: str) -> None:
    print(f"{path}:{lineno}: {msg}", file=sys.stderr)
    sys.exit(1)


def check_uint(path: Path, lineno: int, name: str, value: str) -> int:
    if not value.isdigit():
        fail(path, lineno, f"column '{name}' is not a non-negative integer: "
             f"{value!r}")
    return int(value)


def check_file(path: Path) -> int:
    try:
        lines = path.read_text().splitlines()
    except OSError as e:
        print(f"{path}: cannot read: {e}", file=sys.stderr)
        sys.exit(1)
    if not lines:
        fail(path, 1, "empty trace file (expected at least the header)")
    if lines[0] != HEADER:
        fail(path, 1, f"bad header: {lines[0]!r} (expected {HEADER!r})")

    prev_t = -1
    for lineno, line in enumerate(lines[1:], start=2):
        cols = line.split(",")
        if len(cols) != NUM_COLS:
            fail(path, lineno, f"expected {NUM_COLS} columns, got {len(cols)}")
        t_ns, rtype, obj, flow, sub, phase, a, b, x, y = cols

        t = check_uint(path, lineno, "t_ns", t_ns)
        if t < prev_t:
            fail(path, lineno, f"t_ns went backwards: {t} after {prev_t}")
        prev_t = t

        if rtype not in SETS:
            fail(path, lineno, f"unknown record type {rtype!r}")
        if not obj:
            fail(path, lineno, "empty obj name")
        if any(c in obj for c in ',"\n'):
            fail(path, lineno, f"obj name {obj!r} contains CSV metacharacters")

        check_uint(path, lineno, "flow", flow)
        check_uint(path, lineno, "sub", sub)
        p = check_uint(path, lineno, "phase", phase)
        if p > MAX_PHASE:
            fail(path, lineno, f"phase {p} out of range (max {MAX_PHASE})")
        check_uint(path, lineno, "a", a)
        check_uint(path, lineno, "b", b)

        for name, value in (("x", x), ("y", y)):
            try:
                v = float(value)
            except ValueError:
                fail(path, lineno, f"column '{name}' is not a float: "
                     f"{value!r}")
            if not math.isfinite(v):
                fail(path, lineno, f"column '{name}' is not finite: {value!r}")

        for name, value in zip(PAYLOAD, (flow, sub, phase, a, b, x, y)):
            if name not in SETS[rtype] and float(value) != 0.0:
                fail(path, lineno, f"a {rtype} row sets column '{name}' "
                     f"({value!r}); its payload convention leaves it zero")

    return len(lines) - 1


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for arg in sys.argv[1:]:
        path = Path(arg)
        rows = check_file(path)
        print(f"{path}: OK ({rows} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
