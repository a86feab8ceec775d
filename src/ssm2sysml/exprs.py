"""Expression trees used by constraints, derived attributes, and guards.

Expressions are always stored as trees, never as strings, so constraint
bodies stay analyzable.  The grammar covers qualified paths, literals,
enum literals (``Enum::Value``), ``+ - * /``, comparisons, and
``and/or/not`` with parentheses.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .lexing import IDENT, NUMBER, STRING, TokenStream, lex, quote

Expr = Union["Ref", "Lit", "EnumLit", "Unary", "Binary"]


@dataclass(frozen=True)
class Ref:
    """Dot-qualified attribute or element path, e.g. license.availability."""

    path: tuple[str, ...]


@dataclass(frozen=True)
class Lit:
    value: int | float | str | bool


@dataclass(frozen=True)
class EnumLit:
    """Enum literal reference, e.g. CatwoeElement::Actor."""

    enum: tuple[str, ...]
    literal: str


@dataclass(frozen=True)
class Unary:
    op: str  # 'not' or '-'
    operand: Expr


@dataclass(frozen=True)
class Binary:
    op: str  # 'or' 'and' '==' '!=' '<' '<=' '>' '>=' '+' '-' '*' '/'
    left: Expr
    right: Expr


_CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")

_PREC = {"or": 1, "and": 2, "not": 3}
_PREC.update({op: 4 for op in _CMP_OPS})
_PREC.update({"+": 5, "-": 5, "*": 6, "/": 6, "neg": 7})


def parse_expr(ts: TokenStream) -> Expr:
    """Parse one expression from the stream, leaving trailing tokens."""
    return _parse_or(ts)


def parse_operand(ts: TokenStream) -> Expr:
    """Parse a single comparison operand: no and/or/not, no comparisons.

    Used where an expression is followed by keywords that double as
    expression operators (e.g. view filter clauses).
    """
    return _parse_add(ts)


def _parse_or(ts: TokenStream) -> Expr:
    left = _parse_and(ts)
    while ts.at("or"):
        ts.take()
        left = Binary("or", left, _parse_and(ts))
    return left


def _parse_and(ts: TokenStream) -> Expr:
    left = _parse_not(ts)
    while ts.at("and"):
        ts.take()
        left = Binary("and", left, _parse_not(ts))
    return left


def _parse_not(ts: TokenStream) -> Expr:
    if ts.at("not"):
        ts.take()
        return Unary("not", _parse_not(ts))
    return _parse_cmp(ts)


def _parse_cmp(ts: TokenStream) -> Expr:
    left = _parse_add(ts)
    for op in _CMP_OPS:
        if ts.at(op):
            ts.take()
            return Binary(op, left, _parse_add(ts))
    return left


def _parse_add(ts: TokenStream) -> Expr:
    left = _parse_mul(ts)
    while ts.at("+") or ts.at("-"):
        op = ts.take().value
        left = Binary(op, left, _parse_mul(ts))
    return left


def _parse_mul(ts: TokenStream) -> Expr:
    left = _parse_unary(ts)
    while ts.at("*") or ts.at("/"):
        op = ts.take().value
        left = Binary(op, left, _parse_unary(ts))
    return left


def _parse_unary(ts: TokenStream) -> Expr:
    if ts.at("-"):
        ts.take()
        return Unary("-", _parse_unary(ts))
    return _parse_atom(ts)


def _parse_atom(ts: TokenStream) -> Expr:
    tok = ts.current
    if tok.kind == NUMBER:
        ts.take()
        return Lit(float(tok.value) if "." in tok.value else int(tok.value))
    if tok.kind == STRING:
        ts.take()
        return Lit(tok.value)
    if ts.at("("):
        ts.take()
        inner = _parse_or(ts)
        ts.expect(")")
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


def parse_expr_text(text: str, file: str = "<expr>") -> Expr:
    """Parse a standalone expression string; the whole string must parse."""
    ts = TokenStream(lex(text, file, "sysml"))
    expr = parse_expr(ts)
    if ts.current.kind != "eof":
        raise ts.error(("end of expression",))
    return expr


def expr_to_text(expr: Expr) -> str:
    """Canonical rendering; parse_expr_text(expr_to_text(e)) == e."""
    return _render(expr, 0)


def _prec_of(expr: Expr) -> int:
    if isinstance(expr, Binary):
        return _PREC[expr.op]
    if isinstance(expr, Unary):
        return _PREC["not"] if expr.op == "not" else _PREC["neg"]
    return 9


def _render(expr: Expr, parent_prec: int) -> str:
    if isinstance(expr, Lit):
        if isinstance(expr.value, bool):
            return "true" if expr.value else "false"
        if isinstance(expr.value, str):
            return quote(expr.value)
        return repr(expr.value)
    if isinstance(expr, Ref):
        return ".".join(expr.path)
    if isinstance(expr, EnumLit):
        return ".".join(expr.enum) + "::" + expr.literal
    if isinstance(expr, Unary):
        prec = _prec_of(expr)
        if expr.op == "not":
            body = f"not {_render(expr.operand, prec)}"
        else:
            body = f"-{_render(expr.operand, prec + 1)}"
        return f"({body})" if prec < parent_prec else body
    assert isinstance(expr, Binary)
    prec = _prec_of(expr)
    left = _render(expr.left, prec)
    # Right operand of a left-associative chain needs parens at equal precedence;
    # comparisons do not chain at all.
    right = _render(expr.right, prec + 1)
    body = f"{left} {expr.op} {right}"
    return f"({body})" if prec < parent_prec else body
