"""Lexer shared by the `.ssm` and `.sysml` front ends, and their literal format.

Both languages use the same token shapes (identifiers, strings, numbers,
punctuation); they differ only in comment style and in whether quoted
names and ``/* ... */`` text blocks are legal.  Each notation has one
compiled master pattern: the layout before a token, then the token,
whose named group is its kind, so every token costs one match.  `quote`
and `IDENT_RE` are the printers' side of the same format: what they
write, `lex` reads back unchanged.
"""
from __future__ import annotations

import re
import sys
from typing import Iterable, Iterator, NamedTuple

from .errors import ParseError
from .source import SourceSpan

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

IDENT = "ident"
STRING = "string"
QNAME = "qident"  # single-quoted unrestricted name ('License Allocation')
NUMBER = "number"
PUNCTUATION = "punct"
BLOCKTEXT = "blocktext"  # /* ... */ payload
EOF = "eof"

# Declarations, filters and expressions may nest this deep, together.
MAX_NESTING = 256
# `compile` writes each constraint inside a package body and a requirement-def body.
CONSTRAINT_DEPTH = 2

_UNESCAPE = {"n": "\n", "r": "\r", "t": "\t", "\\": "\\", '"': '"', "'": "'"}
_ESCAPE_RE = re.compile(r"\\(.)")

# Longest first: alternation takes the first punctuator that matches.
_PUNCT = ":>> :> :: := == != <= >= -> .. { } ; : = < > + - * / ( ) [ ] . , @".split()


def _body(mark: str) -> str:
    """String content up to `mark`: no raw newline, only escapes `lex` decodes."""
    plain = rf"[^{mark}\\\n]*"
    return rf"{plain}(?:\\[{re.escape(''.join(_UNESCAPE))}]{plain})*"


def _master(style: str) -> re.Pattern[str]:
    """Layout, then a token or nothing (`lastgroup` None): never a backtrack into layout."""
    comment = "//" if style == "sysml" else "#"
    punct = "|".join(map(re.escape, _PUNCT))
    groups = [(IDENT, IDENT_RE.pattern), (NUMBER, r"[0-9]+(?:\.[0-9]+)?")]
    groups.append((STRING, '"' + _body('"') + '"'))
    if style == "sysml":
        groups += [(QNAME, "'" + _body("'") + "'"), (BLOCKTEXT, r"/\*.*?\*/")]
        punct = rf"(?!/\*)(?:{punct})"  # a "/*" with no "*/" is a fault, not "/"
    groups += [(PUNCTUATION, punct), (EOF, r"\Z")]
    tokens = "|".join(f"(?P<{name}>{body})" for name, body in groups)
    return re.compile(rf"(?:[ \t\r\n]+|{comment}[^\n]*)*(?:{tokens}|)", re.DOTALL)


_PATTERNS = {style: _master(style) for style in ("ssm", "sysml")}


class Token(NamedTuple):
    """One token: its value, its offsets, and its source's line table."""

    kind: str
    value: str
    start: int
    end: int
    file: str
    lines: list[int]  # offsets of the source's line starts, shared by its tokens

    @property
    def span(self) -> SourceSpan:
        return SourceSpan.of_offsets(self.file, self.lines, self.start, self.end)

    def through(self, last: Token) -> SourceSpan:
        """The span from the start of this token to the end of `last`."""
        return SourceSpan.of_offsets(self.file, self.lines, self.start, last.end)

    def __str__(self) -> str:
        return self.value if self.kind != EOF else "<end of input>"


def quote(text: str, mark: str = '"') -> str:
    """`text` as a string (`mark` `"`) or quoted name (`'`) that `lex` reads back."""
    escaped = text.replace("\\", "\\\\").replace(mark, "\\" + mark).replace("\n", "\\n")
    return mark + escaped.replace("\r", "\\r").replace("\t", "\\t") + mark


def _decode(escape: re.Match[str]) -> str:
    return _UNESCAPE[escape.group(1)]


def iter_lex(source: str, file: str, style: str) -> Iterator[Token]:
    """Yield the tokens of `source` one at a time; `style` is 'ssm' or 'sysml'.

    One match of the master pattern per token, layout included.  Tokens
    keep offsets and share `lines`, the table `Token.span` reads.
    """
    lines = [0, *(m.end() for m in re.finditer("\n", source))]
    match = _PATTERNS[style].match
    new = tuple.__new__  # skips the Python-level `Token.__new__`, a call per token
    pos = 0
    while True:
        m = match(source, pos)
        kind = m.lastgroup
        pos = m.end()
        if kind is None:
            raise _fault(source, pos, style, SourceSpan.of_offsets(file, lines, pos, pos))
        text = m[kind]
        start = pos - len(text)
        if kind == STRING or kind == QNAME:
            text = _ESCAPE_RE.sub(_decode, text[1:-1])
        elif kind == BLOCKTEXT:
            text = text[2:-2]
        yield new(Token, (kind, text, start, pos, file, lines))
        if kind == EOF:
            return


def lex(source: str, file: str, style: str) -> list[Token]:
    """Every token of `source`, up to and including EOF."""
    return list(iter_lex(source, file, style))


def _fault(source: str, pos: int, style: str, at: SourceSpan) -> ParseError:
    """The error for `pos`, where no token of `style` starts."""
    if source.startswith("/*", pos):
        return ParseError(at, "unterminated /* ... */ block")
    mark = source[pos]
    if mark == '"' or (mark == "'" and style == "sysml"):
        stop = re.compile(_body(mark)).match(source, pos + 1).end()
        if stop == len(source):
            return ParseError(at, "unterminated string literal")
        if source[stop] == "\n":
            return ParseError(at, "newline inside string literal")
        if stop + 1 == len(source):
            return ParseError(at, "unterminated escape sequence")
        return ParseError(at, f"unknown escape sequence \\{source[stop + 1]}")
    return ParseError(at, f"unexpected character {mark!r}", found=mark)


class TokenStream:
    """Cursor over a token iterator, holding `current` and at most two tokens ahead.

    As a context manager, it lexes the rest when a ParseError leaves the block:
    the source's first lexical fault wins over an earlier syntax error.
    """

    def __init__(self, tokens: Iterable[Token]) -> None:
        self._tokens = iter(tokens)
        self._ahead: list[Token] = []  # tokens after `current` that `peek` has read
        self.current = next(self._tokens)
        self.depth = 0  # nesting levels entered

    def __enter__(self) -> TokenStream:
        return self

    def __exit__(self, kind: type | None, error: BaseException | None, trace: object) -> None:
        if isinstance(error, ParseError):
            for _ in self._tokens:  # raises a later lexical fault
                pass

    def peek(self, offset: int) -> Token:
        """The token `offset` (1 or 2) after `current`; EOF past the end."""
        ahead = self._ahead
        while len(ahead) < offset:  # once the iterator ends, the last token, EOF, repeats
            ahead.append(next(self._tokens, ahead[-1] if ahead else self.current))
        return ahead[offset - 1]

    def at(self, value: str) -> bool:
        return self.current.value == value and self.current.kind in (IDENT, PUNCTUATION)

    def keyword(self) -> str | None:
        """The current token's text if `at` can match it, else None."""
        tok = self.current
        return tok.value if tok.kind in (IDENT, PUNCTUATION) else None

    def take(self) -> Token:
        tok = self.current
        if tok.kind != EOF:
            self.current = self._ahead.pop(0) if self._ahead else next(self._tokens)
        return tok

    def take_int(self, what: str) -> int:
        """Take a NUMBER without a fraction; refuse one with more digits than `int()` reads."""
        if self.current.kind != NUMBER or "." in self.current.value:
            raise self.error((what,))
        tok = self.take()
        try:
            return int(tok.value)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise ParseError(tok.span, f"integer longer than {limit} digits") from None

    def enter(self) -> Token:
        """Take the token that opens a nesting level; past MAX_NESTING, refuse it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(self.current.span, f"nesting deeper than {MAX_NESTING} levels")
        return self.take()

    def leave(self) -> None:
        self.depth -= 1

    def expect(self, value: str) -> Token:
        if self.at(value):
            return self.take()
        raise self.error((repr(value),))

    def expect_kind(self, kind: str, what: str) -> Token:
        if self.current.kind == kind:
            return self.take()
        raise self.error((what,))

    def error(self, expected: tuple[str, ...]) -> ParseError:
        found = str(self.current)
        message = f"expected {', '.join(expected)}, found {found!r}"
        return ParseError(self.current.span, message, expected=expected, found=found)
