"""C++ tokenizer for mpsim_analyze.

A deliberately small lexer: enough C++ to build a symbol table and a call
graph over this repository's sources, with zero third-party dependencies.
It understands line/block comments, string/char literals (including raw
strings), preprocessor lines, identifiers, numbers and multi-character
punctuators. It does not preprocess: macros are tokenized as identifiers,
which is what the call-site extractor wants (an `MPSIM_TRACE(rec, b(...))`
site still exposes the builder call `b(...)` to the parser).

Comments and preprocessor lines are not emitted as tokens, but
`// mpsim-analyze: allow(...)` markers are collected per line so rule
passes can honor suppressions. `LexedFile.code` is the text every rule
regex matches: the tokens joined by single spaces, with each string
literal read as `""` and each char literal as `' '`. A string token keeps
its source text for the one rule that needs it (registry-discipline's key
check); no regex ever sees it.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field

IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
IDENT_CONT = IDENT_START | set("0123456789")

# Longest-match punctuators the parser cares about distinguishing.
PUNCT3 = ("<<=", ">>=", "...", "->*")
PUNCT2 = ("::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
          "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=")

ALLOW_RE = re.compile(r"//\s*mpsim-analyze:\s*allow\(([\w\-,\s]+)\)")


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident' | 'number' | 'string' | 'char' | 'punct'
    text: str  # a string literal's full source text; "' '" for a char
    line: int


@dataclass
class LexedFile:
    path: str
    tokens: list  # list[Token]
    # line -> {rule, ...} for every allow marker on that line
    allows: dict
    code: str = field(init=False)  # tokens joined by single spaces
    starts: list = field(init=False)  # offset in code of each token

    def __post_init__(self):
        words = ['""' if t.kind == "string" else t.text for t in self.tokens]
        self.starts = []
        pos = 0
        for w in words:
            self.starts.append(pos)
            pos += len(w) + 1
        self.code = " ".join(words)

    def token_at(self, offset: int) -> Token:
        """The token covering `offset` in `code`."""
        return self.tokens[bisect_right(self.starts, offset) - 1]


def lex(path: str, text: str) -> LexedFile:
    tokens: list = []
    allows: dict = {}
    n = len(text)
    i = 0
    line = 1

    def peek(k: int = 0) -> str:
        j = i + k
        return text[j] if j < n else ""

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        # Comments.
        if c == "/" and peek(1) == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            m = ALLOW_RE.search(text, i, j)
            if m:
                allows.setdefault(line, set()).update(
                    r.strip() for r in m.group(1).split(","))
            i = j
            continue
        if c == "/" and peek(1) == "*":
            j = text.find("*/", i + 2)
            if j == -1:
                j = n
            line += text.count("\n", i, j)
            i = j + 2 if j < n else n
            continue
        # Preprocessor: consume the directive line (and continuations).
        if c == "#" and (not tokens or tokens[-1].line != line):
            while i < n:
                j = text.find("\n", i)
                if j == -1:
                    i = n
                    break
                if text[j - 1] == "\\":
                    line += 1
                    i = j + 1
                    continue
                i = j  # leave the newline for the main loop
                break
            continue
        # Raw strings: R"delim( ... )delim".
        if c == "R" and peek(1) == '"':
            m = re.match(r'R"([^()\\ ]{0,16})\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i + m.end())
                if j == -1:
                    j = n
                else:
                    j += len(close)
                tokens.append(Token("string", text[i:j], line))
                line += text.count("\n", i, j)
                i = j
                continue
        if c == '"' or (c == "'" and not _is_digit_separator(tokens)):
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                j += 1
            tokens.append(Token("string", text[i:j + 1], line)
                          if quote == '"' else Token("char", "' '", line))
            line += text.count("\n", i, j)
            i = j + 1
            continue
        if c in IDENT_START:
            j = i + 1
            while j < n and text[j] in IDENT_CONT:
                j += 1
            tokens.append(Token("ident", text[i:j], line))
            i = j
            continue
        if c.isdigit() or (c == "." and peek(1).isdigit()):
            j = i + 1
            while j < n and (text[j] in IDENT_CONT or text[j] in ".'"
                             or (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            tokens.append(Token("number", text[i:j], line))
            i = j
            continue
        three, two = text[i:i + 3], text[i:i + 2]
        if three in PUNCT3:
            tokens.append(Token("punct", three, line))
            i += 3
        elif two in PUNCT2:
            tokens.append(Token("punct", two, line))
            i += 2
        else:
            tokens.append(Token("punct", c, line))
            i += 1

    return LexedFile(path=path, tokens=tokens, allows=allows)


def _is_digit_separator(tokens: list) -> bool:
    """True when a ' directly follows a number token (1'000'000)."""
    return bool(tokens) and tokens[-1].kind == "number"
