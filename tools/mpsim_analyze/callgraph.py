"""Symbol table, call graph and hot-set computation for mpsim_analyze.

The call graph is *name-resolved*: a call site `x->foo(...)` links to every
known definition of `foo`, and an unqualified `foo(...)` links to same-class
methods, free functions and — conservatively — any other `foo`. Without
template instantiation or type inference this over-approximates reachability,
which is the correct direction for this tool: the hot set must never *miss*
a function that event dispatch can actually reach (a missed function is an
unchecked allocation; a spuriously included one costs at worst a justified
allow-comment).

The hot set is everything reachable from the event-dispatch roots:

  * every `on_event` override (EventSource wake-ups: subflow RTO timers,
    queue service completion, samplers, fault engine, traffic arrivals),
  * every `receive` override (PacketSink delivery: queues, pipes, loss
    elements, subflow ACK intake, the MPTCP receiver),
  * the EventList dispatch/schedule machinery itself,
  * the congestion-control per-ACK hooks (increase_per_ack /
    window_after_loss — the paper's two algorithm-defining rules),
  * the trace-record builders (run inside MPSIM_TRACE on every
    instrumented hot event).
"""

from __future__ import annotations

from collections import defaultdict, deque

# Method names that are dispatch roots wherever they are defined (virtual
# overrides cannot be resolved by receiver type at this fidelity, so every
# override of these interface hooks is a root).
ROOT_NAMES = {
    "on_event",            # EventSource wake-up (incl. Subflow pacer fires)
    "receive",             # PacketSink delivery
    "increase_per_ack",    # CongestionControl per-ACK increase rule
    "window_after_loss",   # CongestionControl loss-response rule
    "on_ack_sample",       # rate-based CC delivery-sample hook
    "next_data",           # DataScheduler placement decision per launch
}

# Specific (class, method) roots: the dispatch loop and schedule hot path,
# plus the per-packet primitives. The packet ones would mostly be reached
# through member calls anyway, but several carry STL-shadowed names
# (push_back, reset — see STL_MEMBER_NAMES), so they are rooted explicitly
# rather than depending on resolution subtleties: every packet runs through
# them on every hop.
ROOT_QUALIFIED = {
    ("EventList", "run_one"),
    ("EventList", "run_until"),
    ("EventList", "run_all"),
    ("EventList", "schedule_at"),
    ("EventList", "schedule_in"),
    ("Packet", "send_on"),
    ("Packet", "advance"),
    ("Packet", "release"),
    ("Packet", "alloc"),
    ("Packet", "reset"),
    ("PacketFifo", "push_back"),
    ("PacketFifo", "pop_front"),
    ("PacketFifo", "pop_back"),
    ("PacketPool", "alloc"),
    ("PacketPool", "release"),
    ("TimingWheel", "schedule"),
    ("ReorderWindow", "add"),
    ("ReorderWindow", "advance"),
    ("ReorderWindow", "contains"),
}

# Member-call sites (`x.name(...)` / `p->name(...)`) with these names are
# overwhelmingly STL container/string operations; resolving them by bare
# name would alias them onto unrelated project methods (every `.begin()`
# would make the CSV trace sink "hot") and drown the hot set. Qualified
# and unqualified calls still resolve normally, and project hot-path
# methods that share one of these names are ROOT_QUALIFIED above.
STL_MEMBER_NAMES = {
    "begin", "end", "rbegin", "rend", "size", "empty", "clear", "front",
    "back", "data", "at", "find", "count", "contains", "push", "pop",
    "top", "insert", "erase", "reserve", "resize", "emplace",
    "emplace_back", "emplace_front", "push_back", "push_front", "pop_back",
    "pop_front", "get", "reset", "swap", "str", "c_str", "append",
    "assign", "fill", "length", "substr", "capacity", "first", "second",
    "value", "has_value",
    # Not STL, but a container-idiom name shared by several unrelated
    # project classes (ReorderWindow, Column, TargetRegistry, runner): bare
    # member resolution would alias them all together. Hot-path bearers
    # are rooted explicitly in ROOT_QUALIFIED instead.
    "add",
}

# Every function defined in these files is a root: trace/record.hpp holds
# the record builders that MPSIM_TRACE evaluates on instrumented hot events.
ROOT_FILE_SUFFIXES = ("trace/record.hpp",)


class CallGraph:
    def __init__(self, defs: list):
        self.defs = defs
        self.by_name = defaultdict(list)       # name -> [FunctionDef]
        self.by_cls_name = defaultdict(list)   # (cls, name) -> [FunctionDef]
        for d in defs:
            self.by_name[d.name].append(d)
            self.by_cls_name[(d.cls, d.name)].append(d)
        self.edges = {}                        # FunctionDef -> set of defs
        for d in defs:
            self.edges[id(d)] = self._resolve_calls(d)

    def _resolve_calls(self, d) -> set:
        out = set()
        for c in d.calls:
            if c.is_member and c.name in STL_MEMBER_NAMES:
                continue
            if c.qualifier:
                targets = self.by_cls_name.get((c.qualifier, c.name))
                # Base:: / alias-qualified call: fall back to any definition
                # of that name rather than dropping the edge.
                if not targets:
                    targets = self.by_name.get(c.name, [])
            else:
                targets = self.by_name.get(c.name, [])
            out.update(id(t) for t in targets)
        return out

    # --- hot set ----------------------------------------------------------

    def roots(self) -> list:
        rs = []
        for d in self.defs:
            if d.name in ROOT_NAMES or (d.cls, d.name) in ROOT_QUALIFIED \
                    or d.path.replace("\\", "/").endswith(ROOT_FILE_SUFFIXES):
                rs.append(d)
        return rs

    def hot_set(self) -> list:
        by_id = {id(d): d for d in self.defs}
        seen = set()
        work = deque(id(d) for d in self.roots())
        seen.update(work)
        while work:
            cur = work.popleft()
            for nxt in self.edges.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    work.append(nxt)
        hot = [by_id[i] for i in seen]
        hot.sort(key=lambda d: (d.path, d.start_line))
        return hot

    def hot_files(self, hot=None) -> list:
        """Files containing at least one hot function definition."""
        hot = self.hot_set() if hot is None else hot
        return sorted({d.path for d in hot})

    def dump(self, out) -> None:
        for d in sorted(self.defs, key=lambda d: (d.path, d.start_line)):
            out.write(f"{d!r}\n")
            names = sorted({t.qualname for t in self.defs
                            if id(t) in self.edges[id(d)]})
            for nm in names:
                out.write(f"  -> {nm}\n")
