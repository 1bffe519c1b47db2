"""Rule passes over the lexer's token stream.

Every rule matches `LexedFile.code` — the tokens joined by single spaces,
comments and preprocessor lines gone, every literal read as `""` — so the
regexes below spell C++ that way (`std :: chrono`, `malloc \\(`) and prose
or literals can never trip them. Nine rules scan every file; three scan
only the bodies of hot functions (reachable from event dispatch,
callgraph.py), a constructor's member-initializer list included.
Findings print as `path:line: [rule] message`, with the function's
qualname in front of the message for hot rules.

Rules over every file [exempt paths]
-----------------------------------
pool-discipline     Packets come from the pool: no `new Packet`, `delete`,
                    malloc or free. [net/packet.cpp]
determinism-clock   No wall-clock reads (std::chrono, gettimeofday, time(),
                    clock()): results are a pure function of (spec, seed).
                    [runner/, which times runs and never feeds the time
                    back into a simulation]
determinism-rand    No rand()/srand(), std::random_device or <random>
                    engines: randomness flows through the seeded
                    mpsim::Rng.
determinism-env     No environment reads (getenv, secure_getenv, environ):
                    a run is configured by its spec and mpsim's flags. The
                    one sanctioned read, MPSIM_CHECKS in core/check.cpp,
                    carries an allow comment.
no-bare-assert      MPSIM_CHECK, not assert(): a bare assert vanishes in
                    RelWithDebInfo, the tier-1 configuration.
trace-discipline    Record through MPSIM_TRACE, never append_unchecked():
                    the macro carries the null-recorder guard. [trace/]
simtime-discipline  SimTime is built with from_ns/us/ms/sec(), not
                    hand-scaled 1e3/1e6/1e9 factors. [core/time.hpp]
registry-discipline Registrations (`.topologies/.algorithms/.traffic_models/
                    .schedulers/.fault_actions/.metrics.add(`) live in
                    scenario/builders.cpp only. There, each kind's key is
                    lowercase [a-z0-9_]+ and unique per registry, its key
                    table has no duplicate row, and every literal key its
                    builder reads is declared in that table.
                    [scenario/registry.*, which declares them]
mutable-global      No mutable state shared by simulations running on
                    worker threads: namespace-scope variables, static data
                    members and function-local statics. const, constexpr,
                    std::atomic and thread_local are race-free.

Rules over hot function bodies
------------------------------
hot-alloc           No heap allocation: `new`, make_unique/make_shared,
                    malloc/calloc/realloc, growing container calls
                    (push_back, emplace*, resize, insert, append, reserve)
                    and std::to_string. Hot state lives in the SimArena
                    columns, packets in the pool, pending events in the
                    scheduler's reserved storage.
hot-io              No blocking I/O (stdio, std::cout/cerr/clog, file
                    streams, system()): dispatch never stalls on the host.
packet-ownership    A body that takes a packet from the pool must hand it
                    on (send_on/advance/push_back) or return it (release,
                    return); otherwise it leaks out of the conservation
                    ledger.

Suppression: `// mpsim-analyze: allow(<rule>)` on the offending line or
the line above it. An allow that no finding consumed is reported as
stale: it would pre-approve the next violation there.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass


@dataclass(frozen=True)
class Rule:
    name: str
    regex: re.Pattern
    message: str
    exempt: tuple = ()  # path fragments the rule does not check


TREE_RULES = (
    # `delete` needs an operand, so `= delete;` declarations never match.
    Rule("pool-discipline", re.compile(
        r"\bnew Packet\b|\bdelete (?:\[ \] )?[\w(*&]|\b(?:malloc|free) \("),
        "packets are pool-allocated; use Packet::alloc() / release()",
        ("net/packet.cpp",)),
    Rule("determinism-clock", re.compile(
        r"std :: chrono\b|\b(?:steady|system|high_resolution)_clock\b"
        r"|\bgettimeofday \(|\btime \( (?:(?:NULL|nullptr|0) )?\)"
        r"|\bclock \( \)"),
        "no wall-clock reads in simulation code; results must be a pure "
        "function of (spec, seed)", ("runner/",)),
    Rule("determinism-rand", re.compile(
        r"\bs?rand \(|std :: (?:random_device|mt19937|minstd_rand"
        r"|default_random_engine|uniform_int_distribution"
        r"|uniform_real_distribution)"),
        "all randomness must flow through the seeded mpsim::Rng"),
    Rule("determinism-env", re.compile(
        r"\b(?:secure_)?getenv \(|\benviron\b"),
        "no environment reads in simulation code; results must be a pure "
        "function of (spec, seed, flags)"),
    Rule("no-bare-assert", re.compile(r"\bassert \("),
         "use MPSIM_CHECK (active in RelWithDebInfo) instead of assert()"),
    Rule("trace-discipline", re.compile(r"\bappend_unchecked \("),
         "record through MPSIM_TRACE(recorder, builder); a direct "
         "append_unchecked() skips the null-recorder guard", ("trace/",)),
    Rule("simtime-discipline", re.compile(
        r"(?:static_cast < SimTime >|\bSimTime \()[^;]*\b1e[369]\b"),
        "build SimTime with from_ns/us/ms/sec(), not raw 1e3/1e6/1e9 unit "
        "factors", ("core/time.hpp",)),
    Rule("registry-discipline", re.compile(
        r"\. (?:topologies|algorithms|traffic_models|schedulers"
        r"|fault_actions|metrics) \. add \("),
        "topology/algorithm/traffic/scheduler/fault action/metric "
        "registrations live in src/scenario/builders.cpp only",
        ("scenario/registry.", "scenario/builders.cpp")),
)

HOT_RULES = (
    Rule("hot-alloc", re.compile(
        r"(?<!operator )\bnew [\w:(]|std :: make_(?:unique|shared)\b"
        r"|\b(?:malloc|calloc|realloc) \(|std :: to_string \("
        r"|\. (?:push_back|emplace_back|emplace|resize|insert|append"
        r"|reserve) \("),
        "heap allocation on an event-dispatch path; use the SimArena "
        "columns, the packet pool, or reserved storage"),
    Rule("hot-io", re.compile(
        r"std :: (?:cout|cerr|clog|getline|[io]?fstream)\b"
        r"|\b(?:printf|fprintf|fopen|fwrite|fread|fflush|system) \("),
        "blocking I/O on an event-dispatch path; buffer into the flight "
        "recorder and flush after the run"),
)

REGISTRATION_RE = re.compile(
    r"\. (topologies|algorithms|traffic_models|schedulers|fault_actions"
    r"|metrics) \. add \( \"\"")
# A key-table row `{"name", kType, ...`, a literal-key read of a builder's
# args (`has("k")`, `get_count<int>("k")`) and a named table.
SECTION_OF = {"topologies": "topology", "algorithms": "algorithm",
              "traffic_models": "traffic", "schedulers": "scheduler",
              "fault_actions": "fault action", "metrics": "metric"}
TABLE_ROW_RE = re.compile(r"\{ \"\" , k[A-Z]\w* ,")
KEY_READ_RE = re.compile(r"\b(?:has|get_\w+) (?:< [^;()]*> )?\( \"\"")
NAMED_TABLE_RE = re.compile(r"\bKeyTable (\w+) =")

PKT_SOURCE_RE = re.compile(
    r"\bPacket :: alloc \(|\bpool (?:\. \w+ )*\. alloc \(")
PKT_TRANSFER_RE = re.compile(
    r"(?:\.|->) (?:send_on|advance|release) \(|\bpush_back \("
    r"|\breturn\b[^;]*\balloc \(|\breturn (?:\* )?p\b")

# A declaration whose head holds one of these is not a variable.
NOT_A_VARIABLE = {"using", "typedef", "template", "friend", "extern",
                  "static_assert", "operator"}
# ... and one holding these is not mutable shared state.
RACE_FREE = {"const", "constexpr", "consteval", "thread_local"}


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    func: str
    message: str

    def __str__(self) -> str:
        func = f"{self.func}: " if self.func else ""
        return f"{self.path}:{self.line}: [{self.rule}] {func}{self.message}"


def _exempt(path: str, fragments: tuple) -> bool:
    return any("/" + f in "/" + path for f in fragments)


class _Report:
    """Findings, minus those an allow comment suppresses; remembers which
    allows were consumed."""

    def __init__(self):
        self.findings: dict = {}  # (path, line, rule) -> Finding
        self.used_allows: set = set()

    def add(self, lf, line: int, rule: str, message: str, func: str = ""):
        for site in (line, line - 1):
            if rule in lf.allows.get(site, ()):
                self.used_allows.add((lf.path, site))
                return
        self.findings.setdefault((lf.path, line, rule),
                                 Finding(lf.path, line, rule, func, message))

    def scan(self, lf, rule: Rule, span: tuple, func: str = ""):
        for m in rule.regex.finditer(lf.code, *span):
            self.add(lf, lf.token_at(m.start()).line, rule.name,
                     rule.message, func)


def run_rules(lexed_files: dict, decls: dict, hot: list, defs: list):
    """(findings, stale_allows).

    lexed_files maps path -> LexedFile, decls maps path -> the parser's
    declaration starts, hot is the list of FunctionDef in the hot set and
    defs every FunctionDef.
    stale_allows lists (path, line) of every allow no finding consumed.
    """
    report = _Report()
    for path, lf in lexed_files.items():
        for rule in TREE_RULES:
            if not _exempt(path, rule.exempt):
                report.scan(lf, rule, (0, len(lf.code)))
        if _exempt(path, ("scenario/builders.cpp",)):
            _check_registrations(report, lf,
                                 [d for d in defs if d.path == path])
        for scope, first in decls[path]:
            _check_mutable_global(report, lf, scope, first)
    for fn in hot:
        lf = lexed_files[fn.path]
        # A constructor's member initializers run as part of its body.
        first = fn.body_open if fn.init_open is None else fn.init_open
        body = (lf.starts[first + 1], lf.starts[fn.body_close])
        for rule in HOT_RULES:
            report.scan(lf, rule, body, fn.qualname)
        _check_packet_ownership(report, lf, fn, body)
    findings = sorted(report.findings.values(),
                      key=lambda f: (f.path, f.line, f.rule))
    stale = sorted((path, line) for path, lf in lexed_files.items()
                   for line in lf.allows
                   if (path, line) not in report.used_allows)
    return findings, stale


def _check_registrations(report, lf, defs: list):
    """Inside builders.cpp, per registration: its key is lowercase and
    unique per registry; its table (the literal rows inside the call, plus
    the named tables and functions the call names, transitively) has no
    duplicate row; and every literal key its builder reads (inside the
    call, or in a function or constructor of this file the call names,
    transitively) is declared in that table. The one place a rule reads
    string tokens' text."""
    toks = lf.tokens

    def index(offset: int) -> int:
        return bisect_right(lf.starts, offset) - 1

    def close(i: int) -> int:  # the bracket matching the one at toks[i]
        depth = 0
        for j in range(i, len(toks)):
            depth += toks[j].text in "({[" and toks[j].kind == "punct"
            depth -= toks[j].text in ")}]" and toks[j].kind == "punct"
            if depth == 0:
                return j
        return len(toks) - 1

    tables = {}  # name -> token span of its initializer
    for m in NAMED_TABLE_RE.finditer(lf.code):
        first = index(m.end() - 1)
        last = next((j for j in range(first, len(toks))
                     if toks[j].text == ";"), len(toks) - 1)
        tables[lf.token_at(m.start() + len("KeyTable ")).text] = \
            (first, last)
    funcs: dict = {}
    for d in defs:
        funcs.setdefault(d.name, []).append((d.head, d.body_close))

    def reach(lo: int, hi: int, seen: set, rows: list, reads: list):
        span = (lf.starts[lo], lf.starts[hi])
        rows += [lf.token_at(m.start() + 2)
                 for m in TABLE_ROW_RE.finditer(lf.code, *span)]
        reads += [lf.token_at(m.end() - 2)
                  for m in KEY_READ_RE.finditer(lf.code, *span)]
        for t in toks[lo:hi]:
            spans = [tables[t.text]] if t.text in tables else []
            for sub in spans + funcs.get(t.text, []) if t.kind == "ident" \
                    else []:
                if sub not in seen:
                    seen.add(sub)
                    reach(*sub, seen, rows, reads)

    seen_keys: dict = {}
    for m in REGISTRATION_RE.finditer(lf.code):
        kind = SECTION_OF[m.group(1)]
        tok = lf.token_at(m.end() - 2)
        key = tok.text[1:-1]
        if not re.fullmatch(r"[a-z0-9_]+", key):
            report.add(lf, tok.line, "registry-discipline",
                       f"registry key '{key}' must be lowercase [a-z0-9_]+")
        if (kind, key) in seen_keys:
            report.add(lf, tok.line, "registry-discipline",
                       f"duplicate {kind} key '{key}' (first registered on "
                       f"line {seen_keys[(kind, key)]})")
        else:
            seen_keys[(kind, key)] = tok.line
        rows: list = []
        reads: list = []
        opened = index(m.end() - 4)  # the call's '('
        reach(opened, close(opened), set(), rows, reads)
        declared: dict = {}
        for row in sorted(rows, key=lambda t: t.line):
            name = row.text[1:-1]
            if name in declared:
                report.add(lf, row.line, "registry-discipline",
                           f"key '{name}' appears twice in the {kind} "
                           f"'{key}' table (first on line {declared[name]})")
            declared.setdefault(name, row.line)
        for read in reads:
            name = read.text[1:-1]
            if name not in declared:
                report.add(lf, read.line, "registry-discipline",
                           f"the {kind} '{key}' builder reads key '{name}', "
                           "which its table does not declare")


def _check_mutable_global(report, lf, scope: str, first: int):
    """Judge the declaration starting at token `first`: its head (the
    tokens before the initializer) decides whether it declares a variable
    and whether that variable is mutable state shared across threads."""
    toks = lf.tokens
    while first + 1 < len(toks) and toks[first + 1].text == ":" and \
            toks[first].text in ("public", "private", "protected"):
        first += 2
    head: list = []
    depth = 0  # template angle brackets
    for t in toks[first:]:
        if t.text in ("<", ">", ">>"):
            depth += 1 if t.text == "<" else -len(t.text)
        elif t.kind == "punct" and depth <= 0 and \
                t.text in ("=", "{", "(", ";"):
            if t.text == "(":
                return  # a function declaration
            break
        head.append(t.text)
    words = set(head)
    if len(head) < 2 or words & NOT_A_VARIABLE or words & RACE_FREE or \
            any(w.startswith("atomic") for w in head):
        return
    if scope == "class" and "static" not in words:
        return  # a per-object data member
    where = {"namespace": "namespace-scope variable",
             "class": "static data member",
             "function": "function-local static"}[scope]
    report.add(lf, toks[first].line, "mutable-global",
               f"mutable {where} races across parallel simulations; use "
               "per-EventList services, std::atomic, or thread_local")


def _check_packet_ownership(report, lf, fn, body: tuple):
    """Local-flow pairing: every pool alloc in a body needs a transfer
    (send_on/advance/release/fifo push/return) somewhere in the same body.
    Function-level, not path-sensitive: MPSIM_CHECK and the pool's
    conservation ledger cover the dynamic cases."""
    if PKT_TRANSFER_RE.search(lf.code, *body):
        return
    for m in PKT_SOURCE_RE.finditer(lf.code, *body):
        report.add(lf, lf.token_at(m.start()).line, "packet-ownership",
                   "packet taken from the pool but never sent, advanced, "
                   "released or returned in this function — it leaks out of "
                   "the conservation ledger", fn.qualname)
