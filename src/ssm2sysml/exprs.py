"""Expression trees used by constraints, derived attributes, guards and view filters.

Expressions are always stored as trees, never as strings, so constraint
bodies stay analyzable.  The grammar covers qualified paths, literals,
enum literals (``Enum::Value``), ``+ - * /``, comparisons, and
``and/or/not`` with parentheses.  A view filter is read and printed by
the same precedence climber and printer, over its own atoms.
"""
from __future__ import annotations

import math
import sys
from typing import Callable, Union

from .errors import ParseError, UnsupportedElement
from .lexing import IDENT, NUMBER, STRING, TokenStream, iter_lex, quote
from .source import record

Expr = Union["Ref", "Lit", "EnumLit", "Unary", "Binary"]


@record
class Ref:
    """Dot-qualified attribute or element path, e.g. license.availability."""

    path: tuple[str, ...]


@record
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


@record
class EnumLit:
    """Enum literal reference, e.g. CatwoeElement::Actor."""

    enum: tuple[str, ...]
    literal: str


@record
class Unary:
    op: str  # 'not' or '-'
    operand: Expr


@record
class Binary:
    op: str  # 'or' 'and' '==' '!=' '<' '<=' '>' '>=' '+' '-' '*' '/'
    left: Expr
    right: Expr


_CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")

_PREC = {"or": 1, "and": 2, "not": 3}
_PREC.update({op: 4 for op in _CMP_OPS})
_PREC.update({"+": 5, "-": 5, "*": 6, "/": 6, "neg": 7})
_BINARY = {op: prec for op, prec in _PREC.items() if op not in ("not", "neg")}


def parse_expr(
    ts: TokenStream, ops: dict[str, int] = _BINARY, atom: Callable | None = None
) -> Expr:
    """Parse one expression from the stream, leaving trailing tokens.  A grammar other than
    the default, such as a view filter's, gives its binary operators' precedences and atoms."""
    return _parse(ts, _PREC["or"], ops, atom or _parse_atom)


def parse_operand(ts: TokenStream) -> Expr:
    """Parse a single comparison operand: no and/or/not, no comparisons.

    Used where an expression is followed by keywords that double as
    expression operators (e.g. view filter clauses).
    """
    return _parse(ts, _PREC["+"], _BINARY, _parse_atom)


def _parse(ts: TokenStream, min_prec: int, ops: dict[str, int], atom: Callable) -> Expr:
    """The operators of `ops` that bind at least as tightly as `min_prec` (precedence climbing).

    `not` takes a comparison as its operand and comparisons do not
    chain, so after either only `and` and `or` may follow.  Unary `-`
    is read only where `ops` holds `-`.
    """
    word = ts.keyword()
    top = _PREC["*"]  # the tightest operator that may still follow
    if word == "not" and min_prec <= _PREC["not"]:
        ts.enter()
        left = Unary("not", _parse(ts, _PREC["not"], ops, atom))
        ts.leave()
        top = _PREC["not"]
    elif word == "-" and "-" in ops:
        ts.enter()
        doubled = ts.at("-")  # printed as `-(-a)`: count the parenthesis too
        ts.depth += doubled
        left = Unary("-", _parse(ts, _PREC["neg"], ops, atom))
        ts.depth -= doubled
        ts.leave()
    elif word == "(":
        ts.enter()
        left = _parse(ts, _PREC["or"], ops, atom)
        ts.expect(")")
        ts.leave()
    else:
        left = atom(ts)
    outer = ts.depth
    ts.depth -= 1  # each operator after a chain's first nests the chain before it: a level
    while True:
        prec = ops.get(ts.keyword())
        if prec is None or not min_prec <= prec <= top:
            ts.depth = outer
            return left
        left = Binary(ts.enter().value, left, _parse(ts, prec + 1, ops, atom))
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


def expr_to_text(expr: Expr, ops: dict[str, int] = _BINARY, atom: Callable | None = None) -> str:
    """Canonical rendering; parse_expr_text(expr_to_text(e)) == e.  `atom` prints each node
    that is not `not`, a `-` that `ops` holds or another operator of `ops`."""
    return _render(expr, 0, ops, atom or _atom_text)


def _render(expr: Expr, parent_prec: int, ops: dict[str, int], atom: Callable) -> str:
    if isinstance(expr, Binary) and expr.op in ops:
        prec = ops[expr.op]
        # Right operand of a left-associative chain needs parens at equal precedence;
        # comparisons do not chain at all, so neither of their operands may be one.
        left = _render(expr.left, prec + 1 if prec == _PREC["=="] else prec, ops, atom)
        body = f"{left} {expr.op} {_render(expr.right, prec + 1, ops, atom)}"
    elif isinstance(expr, Unary) and expr.op == "not":
        prec = _PREC["not"]
        body = f"not {_render(expr.operand, prec, ops, atom)}"
    elif isinstance(expr, Unary) and expr.op == "-" and "-" in ops:
        prec = _PREC["neg"]
        body = f"-{_render(expr.operand, prec + 1, ops, atom)}"
    else:
        return atom(expr)
    return f"({body})" if prec < parent_prec else body


def _atom_text(expr: Expr) -> str:
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
    raise UnsupportedElement(f"no rendering rule for expression node {expr!r}")
