"""Rule passes over the computed hot set.

Each rule scans the body lines of every hot function and reports findings
as `path:line: [rule] qualname: message`. Suppression: append
`// mpsim-analyze: allow(<rule>)` to the offending line or the line
directly above it (clang-format keeps many offenders at the column limit).
For the allocation rule, a legacy `// mpsim-lint: allow(arena-discipline)`
comment counts too — the two tools police the same discipline and one
justified comment should satisfy both.

Rules
-----
hot-alloc         No heap allocation on event-dispatch-reachable paths:
                  `new`, make_unique/make_shared, malloc/calloc/realloc,
                  and growing STL container calls (push_back, emplace*,
                  resize, insert, append, to_string, reserve). Hot state
                  lives in the SimArena SoA columns, packets in the pool,
                  pending events in reserved scheduler storage.
hot-clock         No wall-clock reads: a hot function reading host time
                  makes the run a function of the machine, not the seed.
hot-rand          No rand()/srand()/std::random_device/<random> engines:
                  all randomness flows through the seeded mpsim::Rng.
hot-io            No blocking I/O (stdio, iostreams on std::cout/cerr,
                  file streams, system()): dispatch must never stall on
                  the host OS, and output ordering would leak thread
                  interleaving into results.
hot-static        No function-local `static` mutable state: concurrent
                  simulations on worker threads would race on it (and
                  C++ magic-statics serialize on first use).
packet-ownership  A function that takes packets from the pool
                  (Packet::alloc / PacketPool::alloc) must also hand each
                  one on (send_on/advance/push_back) or return it
                  (release); an alloc with no downstream
                  transfer leaks the packet out of the conservation
                  ledger.
simtime-unit      SimTime values are built with from_ns/us/ms/sec(), not
                  hand-scaled 1e3/1e6/1e9 factors (ns/us confusions breed
                  in hand-scaling; core/time.hpp owns the only factors).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

RULE_NAMES = (
    "hot-alloc", "hot-clock", "hot-rand", "hot-io", "hot-static",
    "packet-ownership", "simtime-unit",
)

# Strings/comments never trigger rules (mirrors tools/mpsim_lint.py).
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')
LINE_COMMENT_RE = re.compile(r"//.*$")

ALLOC_RE = re.compile(
    r"\bnew\s+[A-Za-z_:(]|std::make_unique|std::make_shared"
    r"|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\("
    r"|\.\s*(?:push_back|emplace_back|emplace|resize|insert|append"
    r"|reserve)\s*\(|std::to_string\s*\(")
CLOCK_RE = re.compile(
    r"std::chrono|steady_clock|system_clock|high_resolution_clock"
    r"|\bgettimeofday\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
    r"|\bclock\s*\(\s*\)")
RAND_RE = re.compile(
    r"\brand\s*\(|\bsrand\s*\(|std::random_device|std::mt19937"
    r"|std::minstd_rand|std::default_random_engine"
    r"|std::uniform_int_distribution|std::uniform_real_distribution")
IO_RE = re.compile(
    r"std::cout|std::cerr|std::clog|\bprintf\s*\(|\bfprintf\s*\("
    r"|\bfopen\s*\(|\bfwrite\s*\(|\bfread\s*\(|\bfflush\s*\("
    r"|std::(?:i|o)?fstream|std::getline|\bsystem\s*\(")
STATIC_LOCAL_RE = re.compile(r"^\s*static\s+(?!const\b|constexpr\b)\w")
SIMTIME_CAST_RE = re.compile(
    r"(?:static_cast<\s*SimTime\s*>|\bSimTime\s*\()[^;]*\b1e[369]\b")

PKT_SOURCE_RE = re.compile(r"\bPacket::alloc\s*\(|\bpool\b[\w.]*\.alloc\s*\(")
PKT_TRANSFER_RE = re.compile(
    r"\.\s*(?:send_on|advance|release)\s*\(|\bpush_back\s*\("
    r"|\breturn\b[^;]*\balloc\s*\(|\breturn\s+(?:\*?\s*)?p\b")


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    func: str
    message: str

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}: [{self.rule}] "
                f"{self.func}: {self.message}")


def code_of(line: str) -> str:
    return LINE_COMMENT_RE.sub("", STRING_RE.sub('""', line))


def _allow_site(lexed, line: int, rule: str):
    """Line number of an allow comment covering `line` for `rule`
    (same line or the one above), else None. hot-alloc additionally
    honors the legacy lint spelling arena-discipline."""
    accepted = {("analyze", rule)}
    if rule == "hot-alloc":
        accepted.add(("lint", "arena-discipline"))
    for cand in (line, line - 1):
        marks = lexed.allows.get(cand, ())
        if any(m in accepted for m in marks):
            return cand
    return None


def _body(lexed, fn):
    """(line, code) for every line of fn's body. The line holding the
    body's opening brace yields only the text after that brace, so a
    signature sharing it (`static int f(int v) { ... }`) is not body."""
    lines = lexed.lines
    for ln in range(fn.body_start, min(fn.end_line, len(lines)) + 1):
        code = code_of(lines[ln - 1])
        if ln == fn.body_start:
            parts = code.split("{", fn.body_brace_nth)
            code = parts[-1] if len(parts) > fn.body_brace_nth else code
        yield ln, code


def _scan(lexed, fn, rule, regex, message, findings, used_allows):
    for ln, code in _body(lexed, fn):
        if not regex.search(code):
            continue
        site = _allow_site(lexed, ln, rule)
        if site is not None:
            used_allows.add((lexed.path, site))
            continue
        findings.append(Finding(lexed.path, ln, rule, fn.qualname, message))


def run_rules(lexed_files: dict, hot: list):
    """(findings, used_allows) over every hot function.

    lexed_files maps path -> LexedFile; hot is the list of FunctionDef in
    the hot set. used_allows collects (path, line) of every allow comment
    that actually suppressed something — the complement feeds
    --check-stale-allows.
    """
    findings: list = []
    used_allows: set = set()
    for fn in hot:
        lexed = lexed_files[fn.path]
        _scan(lexed, fn, "hot-alloc", ALLOC_RE,
              "heap allocation on an event-dispatch path; use the SimArena "
              "columns, the packet pool, or reserved storage", findings,
              used_allows)
        _scan(lexed, fn, "hot-clock", CLOCK_RE,
              "wall-clock read on an event-dispatch path; results must be "
              "a pure function of (spec, seed)", findings, used_allows)
        _scan(lexed, fn, "hot-rand", RAND_RE,
              "unseeded randomness on an event-dispatch path; use the "
              "seeded mpsim::Rng", findings, used_allows)
        _scan(lexed, fn, "hot-io", IO_RE,
              "blocking I/O on an event-dispatch path; buffer into the "
              "flight recorder and flush after the run", findings,
              used_allows)
        _scan(lexed, fn, "hot-static", STATIC_LOCAL_RE,
              "function-local static mutable state races across parallel "
              "simulations; use per-EventList services", findings,
              used_allows)
        if not lexed.path.replace("\\", "/").endswith("core/time.hpp"):
            # time.hpp owns the unit factors; everyone else goes through it.
            _scan(lexed, fn, "simtime-unit", SIMTIME_CAST_RE,
                  "build SimTime with from_ns/us/ms/sec(), not raw "
                  "1e3/1e6/1e9 unit factors", findings, used_allows)
        _check_packet_ownership(lexed, fn, findings, used_allows)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, used_allows


def _check_packet_ownership(lexed, fn, findings, used_allows):
    """Local-flow pairing: every Packet::alloc in a body needs a matching
    transfer (send_on/advance/release/fifo push/return) somewhere in the
    same body. Function-level, not path-sensitive: a transfer on any path
    satisfies the rule (MPSIM_CHECK + the pool's conservation ledger cover
    the dynamic cases)."""
    body = list(_body(lexed, fn))
    sources = [ln for ln, code in body if PKT_SOURCE_RE.search(code)]
    if not sources:
        return
    has_transfer = any(PKT_TRANSFER_RE.search(code) for _, code in body)
    if has_transfer:
        return
    for ln in sources:
        site = _allow_site(lexed, ln, "packet-ownership")
        if site is not None:
            used_allows.add((lexed.path, site))
            continue
        findings.append(Finding(
            lexed.path, ln, "packet-ownership", fn.qualname,
            "packet taken from the pool but never sent, advanced, "
            "released or returned in this function — it leaks out of the "
            "conservation ledger"))
