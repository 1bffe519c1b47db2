"""Declaration parser for mpsim_analyze.

Walks a token stream (lexer.py) and extracts every *function definition* —
free functions, inline class methods, out-of-line `Ret Class::method(...)`
bodies, constructors, destructors and operators — together with the call
sites inside each body, parameter list and constructor initializer list.
This is a scope-tracking recognizer, not a full C++ parser: it tracks
namespace/class nesting and brace depth, recognizes the
`name ( params ) [qualifiers] [: init-list] {` shape of a definition, and
treats everything inside the body as a flat token sequence to mine for
calls. That is exactly the fidelity a name-based call graph needs, and it
keeps the tool dependency-free. `new T(...)`, `make_unique<T>(...)` and
`make_shared<T>(...)` count as calls of T's constructors.

Alongside the definitions it records where each *declaration* starts: every
`;`-terminated statement at namespace or class scope, and every `static`
declaration inside a function body. The mutable-global rule judges those.

Known over-approximations (deliberate — the hot set must err toward
inclusion, see callgraph.py):
  * Macros are not expanded; a macro invocation at class scope that hides
    a definition is invisible, and one inside a body contributes whatever
    call-shaped tokens appear in its argument list.
  * Lambdas defined inside a body belong to the enclosing function.
Calls through a `std::function` resolve to nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from lexer import LexedFile, Token

# Identifiers that look like calls but are control flow / operators.
NOT_A_CALL = {
    "if", "for", "while", "switch", "return", "catch", "sizeof", "alignof",
    "alignas", "decltype", "noexcept", "static_assert", "defined", "assert",
    "typeid", "new", "delete", "throw", "case", "do", "else",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
}

# Keywords that can never be a function name.
KEYWORDS = NOT_A_CALL | {
    "class", "struct", "union", "enum", "namespace", "template", "typename",
    "using", "typedef", "public", "private", "protected", "virtual",
    "override", "final", "const", "constexpr", "consteval", "constinit",
    "inline", "static", "extern", "friend", "explicit", "operator",
    "volatile", "mutable", "auto", "void", "bool", "char", "int", "long",
    "short", "float", "double", "unsigned", "signed", "try", "requires",
}


@dataclass
class CallSite:
    name: str        # unqualified callee name ('foo', 'operator<<' excluded)
    qualifier: str   # 'Class' for Class::foo(...), '' otherwise
    is_member: bool  # preceded by '.' or '->'
    line: int


@dataclass
class FunctionDef:
    name: str          # unqualified ('on_event', 'Subflow', '~Subflow')
    cls: str           # owning class ('' for free functions)
    namespace: str     # enclosing namespace path ('mpsim::net')
    path: str          # file that holds the definition
    start_line: int    # line of the name token
    end_line: int      # line of the closing '}'
    body_open: int     # token index of the body's '{'
    body_close: int    # token index of the body's '}'
    head: int          # token index of the name (parameters and a
                       # constructor's init-list lie between it and body)
    init_open: int | None = None  # token index of a constructor's
                                  # init-list ':', None without one
    calls: list = field(default_factory=list)  # list[CallSite]

    @property
    def qualname(self) -> str:
        return f"{self.cls}::{self.name}" if self.cls else self.name

    def __repr__(self) -> str:  # compact for --dump-callgraph
        return f"{self.qualname}@{self.path}:{self.start_line}"


def parse_file(lf: LexedFile) -> tuple:
    """(defs, decls) for one lexed file: every function definition (with
    call sites), and every declaration start as (scope, token index) with
    scope 'namespace' | 'class' | 'function'."""
    parser = _Parser(lf)
    parser.run()
    return parser.defs, parser.decls


class _Parser:
    def __init__(self, lf: LexedFile):
        self.lf = lf
        self.toks = lf.tokens
        self.n = len(self.toks)
        self.defs: list = []
        self.decls: list = []

    def run(self) -> None:
        # Scope stack entries: ('namespace'|'class'|'brace', name).
        stack: list = []
        i = stmt = 0  # stmt: first token of the statement being read
        while i < self.n:
            t = self.toks[i]
            if t.kind == "ident" and t.text in ("namespace", "class",
                                                "struct", "union", "enum"):
                kind = "namespace" if t.text == "namespace" else "class"
                i = stmt = self._open_scope(stack, i, kind)
                continue
            if t.kind == "punct" and t.text == "{":
                stack.append(("brace", ""))
            elif t.kind == "punct" and t.text == "}":
                if stack and stack.pop()[0] != "brace":
                    stmt = i + 1
            elif t.kind == "punct" and t.text == ";" and \
                    (not stack or stack[-1][0] != "brace"):
                if stmt < i:
                    self.decls.append(
                        (stack[-1][0] if stack else "namespace", stmt))
                stmt = i + 1
            elif t.kind == "ident" or (t.kind == "punct" and t.text == "~"):
                consumed = self._try_function(stack, i)
                if consumed:
                    i = stmt = consumed
                    continue
            i += 1

    # --- scopes -----------------------------------------------------------

    def _open_scope(self, stack: list, i: int, kind: str) -> int:
        """Position after `namespace N {` / `class C ... {` (or after `;`
        for forward declarations). Pushes the scope if a body opens."""
        j = i + 1
        # enum class X / namespace A::B
        name_parts: list = []
        while j < self.n:
            t = self.toks[j]
            if t.kind == "ident" and t.text not in ("final", "class",
                                                    "struct"):
                name_parts.append(t.text)
                j += 1
            elif t.kind == "punct" and t.text == "::":
                name_parts.append("::")
                j += 1
            else:
                break
        # Skip base-class lists / enum underlying types up to '{' or ';'.
        depth = 0
        while j < self.n:
            t = self.toks[j]
            if t.kind == "punct":
                if t.text in ("<", "("):
                    depth += 1
                elif t.text in (">", ")"):
                    depth -= 1
                elif t.text == ";" and depth <= 0:
                    return j + 1  # declaration only
                elif t.text == "{" and depth <= 0:
                    name = "".join(name_parts) if name_parts else "<anon>"
                    stack.append((kind, name))
                    return j + 1
                elif t.text == "=" and depth <= 0:
                    # namespace alias / enum with initializer-less '=' —
                    # treat as declaration, skip to ';'.
                    return self._skip_to(j, ";") + 1
            j += 1
        return j

    # --- function recognition --------------------------------------------

    def _try_function(self, stack: list, i: int):
        """If tokens at i start `qualified-name ( params ) ... {`, record a
        FunctionDef and return the index just past the body; else None."""
        # Name: [~] ident (:: [~] ident)* | operator<symbols>
        j = i
        parts: list = []
        tilde = False
        while j < self.n:
            t = self.toks[j]
            if t.kind == "punct" and t.text == "~":
                tilde = True
                j += 1
                continue
            if t.kind == "ident":
                if t.text == "operator":
                    op, j2 = self._operator_name(j)
                    if op is None:
                        return None
                    parts.append(op)
                    j = j2
                    break
                parts.append(("~" if tilde else "") + t.text)
                tilde = False
                j += 1
                # Skip one balanced template argument list after a name
                # part (Foo<T>::bar, push_back<int> — rare here).
                if j < self.n and self.toks[j].text == "<":
                    close = self._match_angle(j)
                    if close is not None and close + 1 < self.n and \
                            self.toks[close + 1].text == "::":
                        j = close + 1
                if j < self.n and self.toks[j].kind == "punct" and \
                        self.toks[j].text == "::":
                    j += 1
                    continue
                break
            return None
        if not parts or parts[-1] in KEYWORDS:
            return None
        if j >= self.n or self.toks[j].text != "(":
            return None

        close = self._match(j, "(", ")")
        if close is None:
            return None
        k = close + 1
        # Qualifiers between ')' and '{' / ';': const noexcept override
        # final && & -> Type : init-list. A ';' or '=' (default/delete/pure)
        # means declaration, '{' means definition.
        init_colon = None  # token index of the init-list's ':'
        depth = 0
        while k < self.n:
            t = self.toks[k]
            if t.kind == "punct":
                if t.text in ("(", "<", "["):
                    depth += 1
                elif t.text in (")", ">", "]"):
                    depth -= 1
                elif depth <= 0:
                    if t.text == ";":
                        return None
                    if t.text == "=" and init_colon is None:
                        return None  # = default / = delete / = 0
                    if t.text == ":" and init_colon is None:
                        init_colon = k
                    elif t.text == "{":
                        break
            k += 1
        if k >= self.n:
            return None

        body_end = self._match(k, "{", "}")
        if body_end is None:
            body_end = self.n - 1

        name = parts[-1]
        explicit_cls = parts[-2] if len(parts) >= 2 else ""
        scope_cls = next((nm for kd, nm in reversed(stack) if kd == "class"),
                         "")
        namespaces = "::".join(nm for kd, nm in stack if kd == "namespace")
        fn = FunctionDef(
            name=name,
            cls=explicit_cls or scope_cls,
            namespace=namespaces,
            path=self.lf.path,
            start_line=self.toks[i].line,
            end_line=self.toks[body_end].line,
            body_open=k,
            body_close=body_end,
            head=i,
            init_open=init_colon,
        )
        fn.calls = self._extract_calls(k + 1, body_end)
        # Parameter-list defaults can call too (rare; include them), and so
        # can a constructor's member initializers.
        fn.calls += self._extract_calls(j + 1, close)
        if init_colon is not None:
            fn.calls += self._extract_calls(init_colon + 1, k)
        self.defs.append(fn)
        for b in range(k + 1, body_end):
            if self.toks[b].kind == "ident" and self.toks[b].text == "static":
                # Start at the specifiers in front: `thread_local static`.
                while self.toks[b - 1].kind == "ident":
                    b -= 1
                self.decls.append(("function", b))
        return body_end + 1

    def _operator_name(self, j: int):
        """j is at 'operator'. Returns (name, index past the symbol)."""
        k = j + 1
        if k >= self.n:
            return None, k
        t = self.toks[k]
        if t.kind == "punct":
            sym = t.text
            k += 1
            # operator() / operator[]
            if sym == "(" and k < self.n and self.toks[k].text == ")":
                sym, k = "()", k + 1
            elif sym == "[" and k < self.n and self.toks[k].text == "]":
                sym, k = "[]", k + 1
            return "operator" + sym, k
        if t.kind == "ident":  # operator bool, conversion operators
            while k < self.n and (self.toks[k].kind == "ident" or
                                  self.toks[k].text in ("::", "*", "&", "<",
                                                        ">")):
                if self.toks[k].text == "(":
                    break
                k += 1
            return "operator-conv", k
        return None, k

    # --- call-site extraction --------------------------------------------

    def _extract_calls(self, start: int, end: int) -> list:
        calls: list = []
        for j in range(start, end):
            t = self.toks[j]
            if t.kind != "ident":
                continue
            built = self._constructed_class(j)
            if built:  # a constructor call: resolves to Class::Class
                calls.append(CallSite(name=built, qualifier=built,
                                      is_member=False, line=t.line))
            if t.text in NOT_A_CALL:
                continue
            if j + 1 >= self.n or self.toks[j + 1].text != "(":
                # name<...>(...): skip a balanced angle list.
                if j + 1 < self.n and self.toks[j + 1].text == "<":
                    close = self._match_angle(j + 1)
                    if close is None or close + 1 >= self.n or \
                            self.toks[close + 1].text != "(":
                        continue
                else:
                    continue
            prev = self.toks[j - 1] if j > start - 1 and j > 0 else None
            if prev is not None and prev.kind == "ident" and \
                    prev.text == "new":
                continue  # the constructor call recorded at `new`
            qualifier = ""
            is_member = False
            if prev is not None and prev.kind == "punct":
                if prev.text == "::" and j >= 2 and \
                        self.toks[j - 2].kind == "ident":
                    qualifier = self.toks[j - 2].text
                elif prev.text in (".", "->"):
                    is_member = True
            calls.append(CallSite(name=t.text, qualifier=qualifier,
                                  is_member=is_member, line=t.line))
        return calls

    def _constructed_class(self, j: int):
        """The class `new T(...)`/`new T{...}` or `make_unique<T>(...)`/
        `make_shared<T>(...)` at token j constructs (T's last name part),
        or None."""
        t = self.toks[j]
        if t.text == "new":
            name = None
            k = j + 1
            while k < self.n and (self.toks[k].kind == "ident" or
                                  self.toks[k].text == "::"):
                if self.toks[k].kind == "ident":
                    name = self.toks[k].text
                k += 1
            if k < self.n and self.toks[k].text == "<":
                close = self._match_angle(k)
                k = close + 1 if close is not None else k
            if k < self.n and self.toks[k].text in ("(", "{"):
                return name
            return None
        if t.text not in ("make_unique", "make_shared") or \
                j + 1 >= self.n or self.toks[j + 1].text != "<":
            return None
        close = self._match_angle(j + 1)
        if close is None:
            return None
        name = None
        depth = 0
        for k in range(j + 1, close):
            tk = self.toks[k]
            if tk.text == "<":
                depth += 1
            elif tk.text == ">":
                depth -= 1
            elif depth == 1 and tk.kind == "ident":
                name = tk.text
        return name

    # --- token helpers ----------------------------------------------------

    def _match(self, i: int, open_t: str, close_t: str):
        depth = 0
        for j in range(i, self.n):
            txt = self.toks[j].text
            if self.toks[j].kind != "punct":
                continue
            if txt == open_t:
                depth += 1
            elif txt == close_t:
                depth -= 1
                if depth == 0:
                    return j
        return None

    def _match_angle(self, i: int):
        """Balanced <...> with a sanity cap (comparison operators bail)."""
        depth = 0
        for j in range(i, min(i + 64, self.n)):
            t = self.toks[j]
            if t.kind != "punct":
                continue
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    return j
            elif t.text in (";", "{", "}", "&&", "||"):
                return None
        return None

    def _skip_to(self, i: int, stop: str) -> int:
        for j in range(i, self.n):
            if self.toks[j].kind == "punct" and self.toks[j].text == stop:
                return j
        return self.n - 1
