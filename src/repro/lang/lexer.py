"""Tokenizer for IdLite source text.

One compiled master regex scans the source with ``finditer``.  In a
Unicode pattern ``\\w`` is exactly ``isalnum()`` or ``_``, but ``\\d`` is
only ``isdecimal()``, so the rare lexemes it cannot decide (a non-ASCII
name start, a number touching non-ASCII text such as ``1²``) are decided
by ``str`` predicates and :func:`_scan_number`.
"""

from __future__ import annotations

import re
from typing import Any, NamedTuple

from repro.common.errors import LexError, SourceLocation

# Reserved word -> (kind, value); true and false are numbers.
_WORDS: dict[str, tuple[str, Any]] = {w: (w, w) for w in (
    "function for to downto while if then else next return and or not".split())}
_WORDS.update(true=("num", True), false=("num", False))

# Each match is one lexeme with the blanks before it.  ``bad`` excludes
# blanks, so trailing blanks match nothing.  The branches start on
# disjoint characters except ``comment`` before ``sym`` ('//' before '/')
# and ``num``/``uword`` before ``bad``; the rest are in frequency order.
_MASTER = re.compile(r"""[ \t\r]*(?:
    (?P<comment>(?:\#|//)[^\n]*)
  | (?P<sym><=|>=|==|!=|[-(){}\[\],;=<>+*/%^])
  | (?P<word>[A-Za-z_]\w*)
  | (?P<nl>\n)
  | (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
    (?P<numtail>(?:[eE][+-]?)?[^\x00-\x7f])?
  | (?P<uword>[^\W\d\x00-\x7f]\w*)
  | (?P<bad>[^ \t\r])
)""", re.VERBOSE)


# Builds a Tok or SourceLocation without NamedTuple's Python-level __new__.
_new = tuple.__new__


class Tok(NamedTuple):
    """A lexical token: kind is 'num', 'name', a keyword, or a symbol."""

    kind: str
    value: Any
    loc: SourceLocation

    def __repr__(self) -> str:
        return f"Tok({self.kind!r}, {self.value!r} @{self.loc})"


def _scan_number(source: str, i: int) -> tuple[int, bool]:
    """End of the number starting at ``i`` under the ``isdigit()`` rules,
    and whether it has a fraction or an exponent."""
    seen_dot = seen_exp = False
    while i < len(source):
        c = source[i]
        if c.isdigit():
            i += 1
        elif c == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif c in "eE" and not seen_exp and (
                source[i + 1:i + 2].isdigit()
                or source[i + 1:i + 2] in ("+", "-") and source[i + 2:i + 3].isdigit()):
            seen_exp = True
            i += 2 if source[i + 1] in "+-" else 1
        else:
            break
    return i, seen_dot or seen_exp


def tokenize(source: str) -> list[Tok]:
    """Convert source text into tokens; raises LexError on bad input."""
    tokens: list[Tok] = []
    append = tokens.append
    words = _WORDS.get
    line = 1
    last_nl = -1  # index of the newline before this line
    pos = 0
    m = None
    while True:
        for m in _MASTER.finditer(source, pos):
            group = m.lastgroup
            if group == "sym":
                kind = value = m[group]
            elif group == "word":
                value = m[group]
                kind = words(value)
                if kind is None:
                    kind = "name"
                else:
                    kind, value = kind
            elif group == "nl":
                line += 1
                last_nl = m.start(group)
                continue
            elif group == "num":
                text = m[group]
                kind = "num"
                if "." in text or "e" in text or "E" in text:
                    value = float(text)
                else:
                    value = int(text)
            elif group == "comment":
                continue
            else:
                break  # uword, numtail or bad: decided below
            loc = _new(SourceLocation, (line, m.start(group) - last_nl))
            append(_new(Tok, (kind, value, loc)))
        else:
            break
        start = m.start("num" if group == "numtail" else group)
        ch = source[start]
        loc = SourceLocation(line, start - last_nl)
        if ch.isalpha():
            pos = m.end()
            append(Tok("name", m[group], loc))
        elif ch.isdigit() or ch == "." and source[start + 1:start + 2].isdigit():
            pos, is_float = _scan_number(source, start)
            text = source[start:pos]
            try:
                append(Tok("num", float(text) if is_float else int(text), loc))
            except ValueError:
                raise LexError(f"malformed number {text!r}", loc) from None
        else:
            raise LexError(f"unexpected character {ch!r}", loc)

    # A trailing comment leaves the end-of-file column at its start.
    end = m.start("comment") if m and m.lastgroup == "comment" else len(source)
    append(Tok("eof", None, SourceLocation(line, end - last_nl)))
    return tokens
