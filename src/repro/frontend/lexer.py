"""Tokenizer for the MATLAB subset accepted by the repro frontend.

The lexer handles the classic MATLAB quirks that matter for our
benchmark programs:

* the single quote ``'`` is *transpose* after a value-producing token
  (identifier, number, ``)``, ``]``, ``end``, or another transpose) and a
  *string delimiter* everywhere else;
* ``%`` starts a comment running to the end of the line;
* ``...`` continues a logical line onto the next physical line;
* newlines are significant (they terminate statements), so they are
  emitted as ``NEWLINE`` tokens rather than skipped.

Scanning matches one compiled pattern per token; a token's line and
column come from the offset of the last newline before it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto

from repro.frontend.source import Location, MatlabSyntaxError


class TokenKind(Enum):
    IDENT = auto()
    NUMBER = auto()
    STRING = auto()
    KEYWORD = auto()
    OP = auto()
    NEWLINE = auto()
    EOF = auto()


KEYWORDS = frozenset(
    {
        "function",
        "if",
        "elseif",
        "else",
        "end",
        "while",
        "for",
        "break",
        "continue",
        "return",
        "global",
    }
)

# Multi-character operators, longest first so maximal munch works.
_OPERATORS = (
    "...",
    ".*",
    "./",
    ".\\",
    ".^",
    ".'",
    "==",
    "~=",
    "<=",
    ">=",
    "&&",
    "||",
    "+",
    "-",
    "*",
    "/",
    "\\",
    "^",
    "'",
    "<",
    ">",
    "&",
    "|",
    "~",
    "=",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ",",
    ";",
    ":",
    "@",
    ".",
)


@dataclass(frozen=True, slots=True)
class Token:
    kind: TokenKind
    text: str
    location: Location

    def is_op(self, text: str) -> bool:
        return self.kind is TokenKind.OP and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r})"


#: every token class, in the order the scanner prefers them.  ``\w``
#: is ``str.isalnum()`` plus ``_`` and ``\d`` is ``str.isdecimal()``.
#: A number's dot is its own unless an operator follows (``2.*x`` is
#: 2 .* x); an exponent needs a digit (``1e`` is 1 then e).
_TOKEN = re.compile(
    r"(?P<space>[ \t\r]+)"
    r"|(?P<comment>%[^\n]*)"
    r"|(?P<newline>\n)"
    r"|(?P<continuation>\.\.\.[^\n]*\n?)"
    r"|(?P<number>(?=\.?\d)\d*(?:\.(?![*/\\^'])\d*)?(?:[eE][+-]?\d+)?[ij]?)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<quote>')"
    r"|(?P<op>" + "|".join(re.escape(op) for op in _OPERATORS) + ")"
)

#: a string literal from its opening quote; ``''`` inside is a quote,
#: so the closing quote is one no quote follows
_STRING = re.compile(r"'((?:[^'\n]|'')*)'(?!')")

#: tokens after which ``'`` is transpose rather than a string
_VALUE_OPS = frozenset({")", "]", "}", "'", ".'"})


def _quote_is_transpose(previous: Token | None) -> bool:
    if previous is None:
        return False
    kind = previous.kind
    if kind is TokenKind.IDENT or kind is TokenKind.NUMBER:
        return True
    if kind is TokenKind.KEYWORD:
        return previous.text == "end"
    if kind is TokenKind.OP:
        return previous.text in _VALUE_OPS
    return False


def tokenize(text: str, filename: str = "<source>") -> list[Token]:
    """Tokenize MATLAB source, returning a token list ending in EOF."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    pos, end = 0, len(text)
    line, line_start = 1, 0  # line_start: offset of the line's first char
    while pos < end:
        m = match(text, pos)
        kind = m.lastgroup if m is not None else None
        if kind == "space" or kind == "comment":
            pos = m.end()
            continue
        loc = Location(line, pos - line_start + 1, filename)
        if kind == "ident" and not (text[pos].isalpha() or text[pos] == "_"):
            kind = None  # '½' and the like are numeric, not letters
        if kind is None:
            raise MatlabSyntaxError(f"unexpected character {text[pos]!r}", loc)
        if kind == "ident":
            name = m.group()
            kind = TokenKind.KEYWORD if name in KEYWORDS else TokenKind.IDENT
            append(Token(kind, name, loc))
        elif kind == "number":
            append(Token(TokenKind.NUMBER, m.group(), loc))
        elif kind == "op":
            append(Token(TokenKind.OP, m.group(), loc))
        elif kind == "newline":
            # Collapse runs of newlines into a single NEWLINE token.
            if not tokens or tokens[-1].kind is not TokenKind.NEWLINE:
                append(Token(TokenKind.NEWLINE, "\n", loc))
            line, line_start = line + 1, m.end()
        elif kind == "continuation":
            # The rest of the line is skipped; the logical line goes on.
            if m.group().endswith("\n"):
                line, line_start = line + 1, m.end()
        elif kind == "quote":
            if _quote_is_transpose(tokens[-1] if tokens else None):
                append(Token(TokenKind.OP, "'", loc))
            else:
                m = _STRING.match(text, pos)
                if m is None:
                    raise MatlabSyntaxError("unterminated string literal", loc)
                append(
                    Token(TokenKind.STRING, m.group(1).replace("''", "'"), loc)
                )
        pos = m.end()
    append(Token(TokenKind.EOF, "", Location(line, pos - line_start + 1, filename)))
    return tokens
