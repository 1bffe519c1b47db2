#!/usr/bin/env python3
"""Project-specific lint for the mptcp simulator.

Enforces simulator rules that clang-tidy cannot express. All rules apply to
src/ (the simulation library); tests and benches may do what they like.

Rules
-----
pool-discipline     Packets are pool-allocated: no `new Packet` / `delete`
                    or malloc/free outside src/net/packet.cpp. Per-packet
                    heap churn breaks the pool's conservation ledger and
                    the perf model.
determinism-clock   No wall-clock reads (std::chrono, time(), clock(),
                    gettimeofday) in simulation code: results must be a
                    pure function of the seed. src/runner/ is exempt (it
                    measures host wall time for RunMetrics, never feeds it
                    back into simulations).
determinism-rand    All randomness flows through the seeded mpsim::Rng: no
                    rand()/srand(), std::random_device, or <random> engines
                    outside src/core/rng.*.
mutable-global      No mutable namespace-scope or static-member state:
                    simulations run concurrently on worker threads, so
                    shared mutable state is a data race. std::atomic and
                    thread_local declarations are allowed; so is anything
                    const/constexpr.
simtime-discipline  SimTime values are built with from_ns/us/ms/sec(), not
                    hand-scaled unit factors (`static_cast<SimTime>(x *
                    1e9)`): hand-scaling is where ns/us confusions breed.
                    core/time.hpp itself is exempt.
no-bare-assert      Use MPSIM_CHECK instead of assert() in src/: bare
                    asserts vanish in RelWithDebInfo, the tier-1 test
                    configuration, silently un-checking the invariant.
trace-discipline    Instrumentation sites go through the MPSIM_TRACE macro,
                    never TraceRecorder::append_unchecked() directly: the
                    macro is the single place carrying the null-recorder
                    check and the [[unlikely]] hint, so a bare call either
                    crashes when tracing is off or silently de-optimises
                    the hot path. src/trace/ itself is exempt.
arena-discipline    The per-event hot paths (event scheduling, subflow ACK
                    processing, queue enqueue/dequeue) must not allocate:
                    per-subflow and per-queue hot state lives in the
                    SimArena SoA columns, packets in the pool, pending
                    events in the timing wheel's node pool. Any `new` /
                    make_unique / make_shared / malloc there is a finding;
                    the rare legitimate one-off (arena chunk growth)
                    carries an allow comment. For this rule only,
                    the allow may sit on the preceding line — the
                    allocation statements it blesses are usually already
                    at the 80-column limit.
                    Where "hot" means: with --arena-hot-ranges (the
                    normal mode — `make analyze` and the analyze ctest/CI
                    lane feed ranges computed by tools/mpsim_analyze),
                    every function body reachable from event dispatch,
                    wherever it lives. Standalone (no build tree), the
                    ARENA_HOT_FILES fallback list below — a file-granular
                    under-approximation kept for `ctest -R mpsim_lint`
                    and pre-build use.
registry-discipline Scenario-registry registrations (add_topology /
                    add_algorithm / add_traffic with a literal key) live in
                    src/scenario/builders.cpp and nowhere else, and every
                    key there is lowercase [a-z0-9_]+ and unique per kind —
                    so `mpsim list`, the spec grammar and the registry can
                    never drift apart or collide. src/scenario/registry.*
                    (the declarations) is exempt.

Suppression: append `// mpsim-lint: allow(<rule>)` to the offending line.

Usage: tools/mpsim_lint.py [--root DIR] [PATHS...]
Exits non-zero if any finding is reported.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SOURCE_GLOBS = ("*.cpp", "*.hpp", "*.h")

ALLOW_RE = re.compile(r"//\s*mpsim-lint:\s*allow\(([\w\-,\s]+)\)")
ANALYZE_ALLOW_RE = re.compile(r"//\s*mpsim-analyze:\s*allow\(([\w\-,\s]+)\)")

# Strip string literals and comments before matching so rule regexes cannot
# fire on prose. (Line comments are kept for ALLOW_RE, handled separately.)
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')
LINE_COMMENT_RE = re.compile(r"//.*$")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def code_of(line: str) -> str:
    """The matchable portion of a line: no strings, no comments."""
    return LINE_COMMENT_RE.sub("", STRING_RE.sub('""', line))


def allowed_rules(line: str) -> set[str]:
    m = ALLOW_RE.search(line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


def analyze_allowed_rules(line: str) -> set[str]:
    """tools/mpsim_analyze's allow marker; its hot-alloc rule subsumes
    arena-discipline, so either spelling suppresses the allocation rule."""
    m = ANALYZE_ALLOW_RE.search(line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


def in_block_comment_map(lines: list[str]) -> list[bool]:
    """lines[i] -> True if line i is (wholly) inside a /* */ block."""
    out = []
    depth = 0
    for raw in lines:
        out.append(depth > 0)
        stripped = LINE_COMMENT_RE.sub("", raw)
        depth += stripped.count("/*") - stripped.count("*/")
        depth = max(depth, 0)
    return out


# --- individual rules ----------------------------------------------------

# `delete` must be followed by an operand ( `= delete;` declarations are not
# deallocations).
POOL_RE = re.compile(
    r"\bnew\s+Packet\b|\bdelete\s*(?:\[\s*\]\s*)?[\w(*&]"
    r"|\bmalloc\s*\(|\bfree\s*\(")
CLOCK_RE = re.compile(
    r"std::chrono|steady_clock|system_clock|high_resolution_clock"
    r"|\bgettimeofday\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
    r"|\bclock\s*\(\s*\)"
)
RAND_RE = re.compile(
    r"\brand\s*\(|\bsrand\s*\(|std::random_device|std::mt19937"
    r"|std::minstd_rand|std::default_random_engine|std::uniform_int_distribution"
    r"|std::uniform_real_distribution"
)
ASSERT_RE = re.compile(r"(?<![_\w])assert\s*\(")
# Heap allocation in a per-event hot path. `new` must start an expression
# (`new Foo`), so words like "renew" or `= delete` never match.
ARENA_RE = re.compile(
    r"\bnew\s+[A-Za-z_:]|std::make_unique|std::make_shared"
    r"|\bmalloc\s*\(|\bcalloc\s*\(")
# Files whose bodies run once per simulated event (schedule/dispatch, ACK
# clocking, packet enqueue/dequeue). Keep in sync with the docstring.
ARENA_HOT_FILES = (
    "core/event_list.cpp", "core/event_list.hpp",
    "core/timing_wheel.cpp", "core/timing_wheel.hpp",
    "tcp/subflow.cpp", "tcp/subflow.hpp",
    "net/queue.cpp", "net/queue.hpp",
    "net/variable_rate_queue.cpp",
)
TRACE_APPEND_RE = re.compile(r"\bappend_unchecked\s*\(")
SIMTIME_CAST_RE = re.compile(
    r"(static_cast<\s*SimTime\s*>|\bSimTime\s*\()[^;]*\b1e[369]\b", re.DOTALL
)
# A registration *call* (not the declarations in registry.hpp, which are
# preceded by `void` / `Registry::`). Matched against code_of() output, so
# a wrapped literal key still shows up on the continuation line as `""`.
REGISTRY_CALL_RE = re.compile(
    r"(?<!void )(?<!:)\badd_(topology|algorithm|traffic)\s*\(")
# Key extraction inside builders.cpp (raw text: keys may wrap onto the
# line after the call).
REGISTRY_KEY_RE = re.compile(
    r"\badd_(topology|algorithm|traffic)\s*\(\s*\"([^\"]*)\"", re.DOTALL)

DECL_KEYWORDS = (
    "class", "struct", "enum", "union", "using", "typedef", "template",
    "namespace", "extern", "friend", "public", "private", "protected",
    "return", "if", "for", "while", "switch", "case", "default", "do",
    "else", "static_assert", "inline namespace",
)


def check_regex_rule(path: Path, lines: list[str], in_block: list[bool],
                     rule: str, regex: re.Pattern, message: str,
                     findings: list[Finding]) -> None:
    for i, raw in enumerate(lines, start=1):
        if in_block[i - 1] or rule in allowed_rules(raw):
            continue
        if regex.search(code_of(raw)):
            findings.append(Finding(path, i, rule, message))


def check_arena_rule(path: Path, lines: list[str], in_block: list[bool],
                     findings: list[Finding],
                     ranges: list[tuple[int, int]] | None = None) -> None:
    """No heap allocation in per-event hot paths; the allow comment may
    sit on the flagged line or the one before it (clang-format keeps the
    allocation statements at the 80-column limit). When `ranges` is given
    (computed hot function bodies from tools/mpsim_analyze), only lines
    inside a range are checked; otherwise the whole file is."""
    for i, raw in enumerate(lines, start=1):
        if in_block[i - 1]:
            continue
        if ranges is not None and not any(a <= i <= b for a, b in ranges):
            continue
        allows = allowed_rules(raw) | analyze_allowed_rules(raw)
        if i >= 2:
            allows |= allowed_rules(lines[i - 2])
            allows |= analyze_allowed_rules(lines[i - 2])
        if "arena-discipline" in allows or "hot-alloc" in allows:
            continue
        if ARENA_RE.search(code_of(raw)):
            findings.append(Finding(
                path, i, "arena-discipline",
                "no heap allocation in per-event hot paths; hot state "
                "lives in SimArena columns / the packet pool / reserved "
                "wheel slots"))


def check_simtime_rule(path: Path, lines: list[str],
                       findings: list[Finding]) -> None:
    # Join each line with its two successors: the offending casts span
    # statements that clang-format wraps across up to three lines.
    for i in range(len(lines)):
        if "simtime-discipline" in allowed_rules(lines[i]):
            continue
        window = " ".join(code_of(l) for l in lines[i:i + 3])
        m = SIMTIME_CAST_RE.search(window)
        # Only report when the cast starts on THIS line (avoid duplicates).
        if m and SIMTIME_CAST_RE.match(window, pos=window.find(m.group(1))) \
                and m.group(1) in code_of(lines[i]):
            findings.append(Finding(
                path, i + 1, "simtime-discipline",
                "build SimTime with from_ns/us/ms/sec(), not raw 1e3/1e6/1e9 "
                "unit factors"))


def check_mutable_global(path: Path, lines: list[str], in_block: list[bool],
                         findings: list[Finding]) -> None:
    for i, raw in enumerate(lines, start=1):
        if in_block[i - 1] or "mutable-global" in allowed_rules(raw):
            continue
        line = code_of(raw).rstrip()
        if not line or raw[:1].isspace():  # namespace scope only
            continue
        stripped = line.strip()
        first_word = re.split(r"[\s<:&*]+", stripped, maxsplit=1)[0]
        if first_word in DECL_KEYWORDS or stripped.startswith(("#", "}", "//")):
            continue
        # A variable definition at namespace scope: `type name = ...;`,
        # `type name{...};`, `type Class::member = ...;` — but not a
        # function (those have a parameter list before any initializer).
        decl = re.match(
            r"^(?:static\s+)?(?:thread_local\s+)?[\w:<>,\s*&]+?"
            r"[\w:]+\s*(=|\{[^()]*\}\s*;|;\s*$)", stripped)
        if not decl:
            continue
        paren = stripped.find("(")
        init = stripped.find(decl.group(1))
        if paren != -1 and paren < init:
            continue  # function declaration/definition
        if re.search(r"\bconst\b|\bconstexpr\b|\bconsteval\b", stripped):
            continue
        if "std::atomic" in stripped or "thread_local" in stripped:
            continue  # race-free by construction
        findings.append(Finding(
            path, i, "mutable-global",
            "mutable namespace-scope state races across parallel "
            "simulations; use per-EventList services, std::atomic, or "
            "thread_local"))


def check_registry_keys(path: Path, text: str,
                        findings: list[Finding]) -> None:
    """Key discipline inside builders.cpp: lowercase, unique per kind."""
    seen: dict[tuple[str, str], int] = {}
    for m in REGISTRY_KEY_RE.finditer(text):
        kind, key = m.group(1), m.group(2)
        line = text.count("\n", 0, m.start()) + 1
        if not re.fullmatch(r"[a-z0-9_]+", key):
            findings.append(Finding(
                path, line, "registry-discipline",
                f"registry key '{key}' must be lowercase [a-z0-9_]+"))
        if (kind, key) in seen:
            findings.append(Finding(
                path, line, "registry-discipline",
                f"duplicate {kind} key '{key}' (first registered on line "
                f"{seen[(kind, key)]})"))
        else:
            seen[(kind, key)] = line


def computed_hot_ranges(root: Path):
    """Hot function body ranges computed by tools/mpsim_analyze over
    root/src, or None (-> ARENA_HOT_FILES fallback) if the analyzer or a
    parseable tree is unavailable."""
    try:
        pkg = Path(__file__).resolve().parent / "mpsim_analyze"
        if str(pkg) not in sys.path:
            sys.path.insert(0, str(pkg))
        import hotset
        files = hotset.discover_src(root)
        if not files:
            return None
        _, _, _, hot = hotset.analyze_tree(root, files)
        return hotset.hot_ranges(hot)
    except Exception:
        return None


def lint_file(path: Path, findings: list[Finding],
              arena_hot_ranges=None) -> None:
    lint_lines(path.as_posix(), path.read_text().splitlines(), findings,
               arena_hot_ranges=arena_hot_ranges)


def lint_lines(rel: str, lines: list[str], findings: list[Finding],
               arena_hot_ranges=None) -> None:
    """Lint one file given as (posix path, lines). Path-based exemptions
    key off `rel`, so callers (tools/mpsim_analyze's stale-allow prober)
    can lint modified text under the file's real identity.

    `arena_hot_ranges` rebases the arena-discipline rule from the
    hard-coded ARENA_HOT_FILES list onto computed reachability: a list of
    (path, start_line, end_line) hot function bodies, as emitted by
    `mpsim_analyze --emit-hot-ranges`. Files with no hot range are then
    exempt; listed ranges are checked wherever they live.
    """
    path = Path(rel)
    in_block = in_block_comment_map(lines)

    if not rel.endswith("net/packet.cpp"):
        check_regex_rule(path, lines, in_block, "pool-discipline", POOL_RE,
                         "packets are pool-allocated; use Packet::alloc() / "
                         "release()", findings)
    if "/runner/" not in rel:
        check_regex_rule(path, lines, in_block, "determinism-clock", CLOCK_RE,
                         "no wall-clock reads in simulation code; results "
                         "must be a pure function of the seed", findings)
    if "core/rng" not in rel:
        check_regex_rule(path, lines, in_block, "determinism-rand", RAND_RE,
                         "all randomness must flow through the seeded "
                         "mpsim::Rng", findings)
    check_regex_rule(path, lines, in_block, "no-bare-assert", ASSERT_RE,
                     "use MPSIM_CHECK (active in RelWithDebInfo) instead of "
                     "assert()", findings)
    if "/trace/" not in rel:
        check_regex_rule(path, lines, in_block, "trace-discipline",
                         TRACE_APPEND_RE,
                         "record through MPSIM_TRACE(recorder, builder); a "
                         "direct append_unchecked() skips the null-recorder "
                         "guard", findings)
    if not rel.endswith("core/time.hpp"):
        check_simtime_rule(path, lines, findings)
    if arena_hot_ranges is not None:
        ranges = [(a, b) for p, a, b in arena_hot_ranges
                  if rel.endswith(p) or p.endswith(rel)]
        if ranges:
            check_arena_rule(path, lines, in_block, findings, ranges=ranges)
    elif rel.endswith(ARENA_HOT_FILES):
        check_arena_rule(path, lines, in_block, findings)
    if rel.endswith("scenario/builders.cpp"):
        check_registry_keys(path, "\n".join(lines), findings)
    elif "scenario/registry" not in rel:
        check_regex_rule(path, lines, in_block, "registry-discipline",
                         REGISTRY_CALL_RE,
                         "topology/algorithm/traffic registrations live in "
                         "src/scenario/builders.cpp only", findings)
    check_mutable_global(path, lines, in_block, findings)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories to lint (default: src/)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script's dir)")
    ap.add_argument("--arena-hot-ranges", metavar="FILE", default=None,
                    help="rebase arena-discipline onto computed hot ranges "
                         "(path:start:end per line, from mpsim_analyze "
                         "--emit-hot-ranges) instead of the built-in "
                         "hot-file list")
    args = ap.parse_args()

    root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent

    arena_hot_ranges = None
    if args.arena_hot_ranges:
        arena_hot_ranges = []
        for raw in Path(args.arena_hot_ranges).read_text().splitlines():
            raw = raw.strip()
            if not raw:
                continue
            p, start, end = raw.rsplit(":", 2)
            arena_hot_ranges.append((p, int(start), int(end)))
    else:
        # No ranges file given: compute the hot set ourselves through
        # tools/mpsim_analyze (pure stdlib, no build needed), so standalone
        # runs check the same function-granular hot set as the analyzer.
        # ARENA_HOT_FILES remains the file-granular fallback if that fails.
        arena_hot_ranges = computed_hot_ranges(root)
    targets = [Path(p) for p in args.paths] if args.paths else [root / "src"]

    files: list[Path] = []
    for t in targets:
        if t.is_dir():
            for g in SOURCE_GLOBS:
                files.extend(sorted(t.rglob(g)))
        elif t.exists():
            files.append(t)
        else:
            print(f"mpsim_lint: no such path: {t}", file=sys.stderr)
            return 2

    findings: list[Finding] = []
    for f in files:
        lint_file(f, findings, arena_hot_ranges=arena_hot_ranges)

    for fi in findings:
        print(fi)
    if findings:
        print(f"\nmpsim_lint: {len(findings)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"mpsim_lint: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
