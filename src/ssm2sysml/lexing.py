"""Lexer shared by the `.ssm` and `.sysml` front ends, and their literal format.

Both languages use the same token shapes (identifiers, strings, numbers,
punctuation); they differ only in comment style and in whether quoted
names and ``/* ... */`` text blocks are legal.  Each notation has one
compiled master pattern whose named groups are the token kinds, so
every token costs one match.  `quote` and `IDENT_RE` are the printers'
side of the same format: what they write, `lex` reads back unchanged.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

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

_LAYOUT = "layout"  # whitespace and line comments, dropped
_OPEN_BLOCK = "openblock"  # "/*" with no closing "*/"; must win over "/"

_UNESCAPE = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "'": "'"}
_ESCAPE_RE = re.compile(r"\\(.)")

# Longest first: alternation takes the first punctuator that matches.
_PUNCT = ":>> :> :: := == != <= >= -> .. { } ; : = < > + - * / ( ) [ ] . , @".split()


def _body(mark: str) -> str:
    """String content up to `mark`: no raw newline, only escapes `lex` decodes."""
    plain = rf"[^{mark}\\\n]*"
    return rf"{plain}(?:\\[{re.escape(''.join(_UNESCAPE))}]{plain})*"


def _master(style: str) -> re.Pattern[str]:
    comment = "//" if style == "sysml" else "#"
    groups = [
        (_LAYOUT, rf"(?:[ \t\r\n]|{comment}[^\n]*)+"),
        (IDENT, IDENT_RE.pattern),
        (NUMBER, r"[0-9]+(?:\.[0-9]+)?"),
        (STRING, '"' + _body('"') + '"'),
    ]
    if style == "sysml":
        groups += [
            (QNAME, "'" + _body("'") + "'"),
            (BLOCKTEXT, r"/\*.*?\*/"),
            (_OPEN_BLOCK, r"/\*"),
        ]
    groups.append((PUNCTUATION, "|".join(map(re.escape, _PUNCT))))
    return re.compile("|".join(f"(?P<{name}>{body})" for name, body in groups), re.DOTALL)


_PATTERNS = {style: _master(style) for style in ("ssm", "sysml")}


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    span: SourceSpan

    def __str__(self) -> str:
        return self.value if self.kind != EOF else "<end of input>"


def quote(text: str, mark: str = '"') -> str:
    """`text` as a string (`mark` `"`) or quoted name (`'`) that `lex` reads back."""
    escaped = text.replace("\\", "\\\\").replace(mark, "\\" + mark)
    return mark + escaped.replace("\n", "\\n").replace("\t", "\\t") + mark


def _decode(escape: re.Match[str]) -> str:
    return _UNESCAPE[escape.group(1)]


def lex(source: str, file: str, style: str) -> list[Token]:
    """Tokenize `source`; `style` is 'ssm' or 'sysml'.

    One match of the notation's master pattern per token.  Only layout
    and block text can contain a newline, so only they move `line`.
    """
    match = _PATTERNS[style].match
    tokens: list[Token] = []
    line, col, pos, n = 1, 1, 0, len(source)
    while pos < n:
        m = match(source, pos)
        kind = m and m.lastgroup
        if kind is None or kind == _OPEN_BLOCK:
            raise _fault(source, pos, style, SourceSpan.point(file, line, col))
        text = m.group()
        pos = m.end()
        if kind == _LAYOUT or kind == BLOCKTEXT:
            first_line, first_col = line, col
            breaks = text.count("\n")
            if breaks:
                line += breaks
                col = len(text) - text.rfind("\n")
            else:
                col += len(text)
            if kind == BLOCKTEXT:
                span = SourceSpan(file, first_line, first_col, line, col)
                tokens.append(Token(kind, text[2:-2], span))
            continue
        end = col + len(text)
        if kind == STRING or kind == QNAME:
            text = _ESCAPE_RE.sub(_decode, text[1:-1])
        tokens.append(Token(kind, text, SourceSpan(file, line, col, line, end)))
        col = end
    tokens.append(Token(EOF, "", SourceSpan.point(file, line, col)))
    return tokens


def _fault(source: str, pos: int, style: str, at: SourceSpan) -> ParseError:
    """The error for `pos`, where no token of `style` matches."""
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
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def at(self, value: str) -> bool:
        tok = self.current
        return tok.kind in (IDENT, PUNCTUATION) and tok.value == value

    def at_kind(self, kind: str) -> bool:
        return self.current.kind == kind

    def accept(self, value: str) -> Token | None:
        if self.at(value):
            return self.take()
        return None

    def take(self) -> Token:
        tok = self.current
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def expect(self, value: str, what: str | None = None) -> Token:
        if self.at(value):
            return self.take()
        raise self.error((what or repr(value),))

    def expect_kind(self, kind: str, what: str) -> Token:
        if self.current.kind == kind:
            return self.take()
        raise self.error((what,))

    def error(self, expected: tuple[str, ...]) -> ParseError:
        tok = self.current
        listing = ", ".join(expected)
        return ParseError(
            tok.span,
            f"expected {listing}, found {str(tok)!r}",
            expected=expected,
            found=str(tok),
        )
