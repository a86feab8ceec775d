"""Expression trees used by constraints, derived attributes, and guards.

Expressions are always stored as trees, never as strings, so constraint
bodies stay analyzable.  The grammar covers qualified paths, literals,
enum literals (``Enum::Value``), ``+ - * /``, comparisons, and
``and/or/not`` with parentheses.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

from .errors import ParseError
from .lexing import IDENT, NUMBER, STRING, TokenStream, iter_lex, quote

Expr = Union["Ref", "Lit", "EnumLit", "Unary", "Binary"]


@dataclass(frozen=True, slots=True)
class Ref:
    """Dot-qualified attribute or element path, e.g. license.availability."""

    path: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Lit:
    value: int | float | str | bool

    def __post_init__(self) -> None:
        """Refuse a number with no notation: inf, nan, more digits than `int()` reads,
        or a sign (-0.0 too), since the parsers read `-n` as a `Unary`."""
        value = self.value
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"literal {value!r} is not a finite number")
        # A set digit limit is at least 640, and 3 * 640 bits make fewer digits.
        if isinstance(value, int) and value.bit_length() > 3 * 640:
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if limit and abs(value) >= 10**limit:
                raise ValueError(f"integer literal longer than {limit} digits")
        if not isinstance(value, str) and (
            value < 0 or value == 0 and math.copysign(1.0, value) < 0
        ):
            raise ValueError(f"literal {value!r} is negative; build Unary('-', Lit({-value!r}))")


@dataclass(frozen=True, slots=True)
class EnumLit:
    """Enum literal reference, e.g. CatwoeElement::Actor."""

    enum: tuple[str, ...]
    literal: str


@dataclass(frozen=True, slots=True)
class Unary:
    op: str  # 'not' or '-'
    operand: Expr


@dataclass(frozen=True, slots=True)
class Binary:
    op: str  # 'or' 'and' '==' '!=' '<' '<=' '>' '>=' '+' '-' '*' '/'
    left: Expr
    right: Expr


_CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")

_PREC = {"or": 1, "and": 2, "not": 3}
_PREC.update({op: 4 for op in _CMP_OPS})
_PREC.update({"+": 5, "-": 5, "*": 6, "/": 6, "neg": 7})
_BINARY = {op: prec for op, prec in _PREC.items() if op not in ("not", "neg")}


def parse_expr(ts: TokenStream) -> Expr:
    """Parse one expression from the stream, leaving trailing tokens."""
    return _parse(ts, _PREC["or"])


def parse_operand(ts: TokenStream) -> Expr:
    """Parse a single comparison operand: no and/or/not, no comparisons.

    Used where an expression is followed by keywords that double as
    expression operators (e.g. view filter clauses).
    """
    return _parse(ts, _PREC["+"])


def _parse(ts: TokenStream, min_prec: int) -> Expr:
    """The operators that bind at least as tightly as `min_prec` (precedence climbing).

    `not` takes a comparison as its operand and comparisons do not
    chain, so after either only `and` and `or` may follow.
    """
    word = ts.keyword()
    top = _PREC["*"]  # the tightest operator that may still follow
    if word == "not" and min_prec <= _PREC["not"]:
        ts.enter()
        left = Unary("not", _parse(ts, _PREC["not"]))
        ts.leave()
        top = _PREC["not"]
    elif word == "-":
        ts.enter()
        doubled = ts.at("-")  # printed as `-(-a)`: count the parenthesis too
        ts.depth += doubled
        left = Unary("-", _parse(ts, _PREC["neg"]))
        ts.depth -= doubled
        ts.leave()
    else:
        left = _parse_atom(ts)
    outer = ts.depth
    ts.depth -= 1  # each operator after a chain's first nests the chain before it: a level
    while True:
        prec = _BINARY.get(ts.keyword())
        if prec is None or not min_prec <= prec <= top:
            ts.depth = outer
            return left
        left = Binary(ts.enter().value, left, _parse(ts, prec + 1))
        if prec <= _PREC["=="]:
            top = _PREC["not"]


def _parse_atom(ts: TokenStream) -> Expr:
    tok = ts.current
    if tok.kind == NUMBER:
        if "." in tok.value and math.isinf(float(tok.value)):
            raise ParseError(tok.span, "number out of floating-point range")
        return Lit(float(ts.take().value) if "." in tok.value else ts.take_int("a number"))
    if tok.kind == STRING:
        ts.take()
        return Lit(tok.value)
    if ts.at("("):
        ts.enter()
        inner = _parse(ts, _PREC["or"])
        ts.expect(")")
        ts.leave()
        return inner
    if tok.kind == IDENT:
        if tok.value == "true":
            ts.take()
            return Lit(True)
        if tok.value == "false":
            ts.take()
            return Lit(False)
        path = [ts.take().value]
        while ts.at(".") and ts.peek(1).kind == IDENT:
            ts.take()
            path.append(ts.take().value)
        if ts.at("::"):
            ts.take()
            literal = ts.expect_kind(IDENT, "enum literal name").value
            return EnumLit(tuple(path), literal)
        return Ref(tuple(path))
    raise ts.error(("an expression",))


def parse_expr_text(text: str, file: str = "<expr>", depth: int = 0) -> Expr:
    """Parse a whole expression string, to be written inside `depth` open nesting levels."""
    with TokenStream(iter_lex(text, file, "sysml")) as ts:
        ts.depth = depth
        expr = parse_expr(ts)
        if ts.current.kind != "eof":
            raise ts.error(("end of expression",))
    return expr


def expr_to_text(expr: Expr) -> str:
    """Canonical rendering; parse_expr_text(expr_to_text(e)) == e."""
    return _render(expr, 0)


def _render(expr: Expr, parent_prec: int) -> str:
    if isinstance(expr, Lit):
        if isinstance(expr.value, bool):
            return "true" if expr.value else "false"
        if isinstance(expr.value, str):
            return quote(expr.value)
        text = repr(expr.value)
        if "e" in text:  # the same shortest digits, positional, so that they lex as a NUMBER
            from decimal import Decimal

            text = format(Decimal(text), "f")
            if "." not in text:
                text += ".0"
        return text
    if isinstance(expr, Ref):
        return ".".join(expr.path)
    if isinstance(expr, EnumLit):
        return ".".join(expr.enum) + "::" + expr.literal
    if isinstance(expr, Unary):
        if expr.op == "not":
            prec = _PREC["not"]
            body = f"not {_render(expr.operand, prec)}"
        else:
            prec = _PREC["neg"]
            body = f"-{_render(expr.operand, prec + 1)}"
        return f"({body})" if prec < parent_prec else body
    assert isinstance(expr, Binary)
    prec = _PREC[expr.op]
    # Right operand of a left-associative chain needs parens at equal precedence;
    # comparisons do not chain at all, so neither of their operands may be one.
    left = _render(expr.left, prec + 1 if prec == _PREC["=="] else prec)
    right = _render(expr.right, prec + 1)
    body = f"{left} {expr.op} {right}"
    return f"({body})" if prec < parent_prec else body
