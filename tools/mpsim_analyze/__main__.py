#!/usr/bin/env python3
"""mpsim_analyze: the simulator's static checker.

Lexes and parses every translation unit named by compile_commands.json
(plus all headers under src/), builds the project call graph, computes the
**hot set** — everything reachable from the event-dispatch roots — and
runs the rule passes (rules.py) on the token stream: determinism, pool,
SimTime, registry and shared-state rules over every file, allocation, I/O
and packet-ownership rules over hot function bodies. Allow comments that
suppress nothing are reported too.

Usage:
  tools/mpsim_analyze --compile-commands build/compile_commands.json --root .
  tools/mpsim_analyze --src-root tests/analyze_fixtures/src
Options:
  --dump-hotset      print the hot functions and exit
  --dump-callgraph   print every function and its resolved callees

Exit status: 0 clean, 1 findings or stale allows, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from callgraph import CallGraph        # noqa: E402
from cpp_parser import parse_file      # noqa: E402
from lexer import lex                  # noqa: E402
import rules                           # noqa: E402

SOURCE_GLOBS = ("*.cpp", "*.hpp", "*.h")


def discover_files(args, root: Path) -> list:
    """Relative paths of every file to analyze."""
    found: set = set()
    if args.src_root:
        base = Path(args.src_root)
        if not base.is_dir():
            sys.exit(f"mpsim_analyze: no such directory: {base}")
        root = base
        for g in SOURCE_GLOBS:
            found.update(p.relative_to(base).as_posix()
                         for p in base.rglob(g))
    else:
        cc = Path(args.compile_commands)
        if not cc.is_file():
            sys.exit(f"mpsim_analyze: no such file: {cc} "
                     "(configure cmake with CMAKE_EXPORT_COMPILE_COMMANDS)")
        src = (root / "src").resolve()
        for entry in json.loads(cc.read_text()):
            f = Path(entry["file"])
            if not f.is_absolute():
                f = (Path(entry["directory"]) / f).resolve()
            try:
                found.add(
                    (Path("src") / f.resolve().relative_to(src)).as_posix())
            except ValueError:
                continue  # tests/examples TU — out of scope
        # Headers never appear as TUs; inline hot-path code lives there.
        for g in ("*.hpp", "*.h"):
            found.update(p.relative_to(root).as_posix()
                         for p in (root / "src").rglob(g))
    return sorted(found), root


def main() -> int:
    ap = argparse.ArgumentParser(
        prog="mpsim_analyze", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--compile-commands", metavar="JSON",
                     help="compile_commands.json naming the TUs")
    src.add_argument("--src-root", metavar="DIR",
                     help="analyze every C++ file under DIR instead "
                          "(fixture trees, no build needed)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of tools/)")
    ap.add_argument("--dump-hotset", action="store_true")
    ap.add_argument("--dump-callgraph", action="store_true")
    args = ap.parse_args()

    root = Path(args.root) if args.root \
        else Path(__file__).resolve().parent.parent.parent
    files, root = discover_files(args, root)
    if not files:
        sys.exit("mpsim_analyze: nothing to analyze")

    lexed_files: dict = {}
    decls: dict = {}
    defs: list = []
    for rel in files:
        lf = lexed_files[rel] = lex(rel, (root / rel).read_text())
        file_defs, decls[rel] = parse_file(lf)
        defs.extend(file_defs)
    graph = CallGraph(defs)
    hot = graph.hot_set()
    hot_files = len(graph.hot_files(hot))

    if args.dump_callgraph:
        graph.dump(sys.stdout)
        return 0
    if args.dump_hotset:
        for d in hot:
            print(f"{d.path}:{d.start_line}-{d.end_line} {d.qualname}")
        print(f"# {len(hot)} hot functions of {len(defs)} total, "
              f"{hot_files} files", file=sys.stderr)
        return 0

    findings, stale = rules.run_rules(lexed_files, decls, hot)
    for f in findings:
        print(f)
    for path, line in stale:
        print(f"{path}:{line}: [stale-allow] allow comment suppresses "
              "nothing — delete it")

    failures = len(findings) + len(stale)
    if failures:
        print(f"\nmpsim_analyze: {failures} finding(s); hot set "
              f"{len(hot)}/{len(defs)} functions across {hot_files} files",
              file=sys.stderr)
        return 1
    print(f"mpsim_analyze: OK ({len(files)} files, {len(defs)} functions, "
          f"{len(hot)} hot)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
