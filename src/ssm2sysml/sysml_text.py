"""Deterministic emitter and parser for the SysML v2 textual subset.

`emit` is a pure function of the model and produces byte-identical
text for structurally equal models; `parse_sysml` is its inverse on the
subset.  Grammar reference: docs/GRAMMAR.md.
"""
from __future__ import annotations

from .errors import ParseError, UnsupportedConstruct, UnsupportedElement
from .exprs import Expr, expr_to_text, parse_expr, parse_operand
from .lexing import BLOCKTEXT, EOF, IDENT, IDENT_RE, QNAME, TokenStream, lex, quote
from .sysml_ast import (
    Assignment,
    Element,
    ElementKind,
    FAnd,
    FHasMeta,
    FKind,
    FMetaEq,
    FNot,
    FOr,
    FTyped,
    FilterExpr,
    INLINE_REL_KINDS,
    Multiplicity,
    QName,
    RelKind,
    Relationship,
    Succession,
)

RESERVED = frozenset(
    """package metadata enum attribute individual part item requirement objective
    constraint require assume assert concern stakeholder viewpoint view use case
    def actor subject action state transition comment doc ref in out perform
    send accept decide first then by entry do if refines frame satisfy expose
    references filter assign istype iskind and or not true false""".split()
)

# Recognized SysML v2 keywords deliberately outside the subset.
UNSUPPORTED_KEYWORDS = frozenset(
    """calc allocation connection interface port analysis verification rendering
    occurrence snapshot timeslice flow succession binding alias import
    dependency event exhibit""".split()
)

_KEYWORD: dict[ElementKind, str] = {
    ElementKind.PACKAGE: "package",
    ElementKind.METADATA_DEF: "metadata def",
    ElementKind.ENUM_DEF: "enum def",
    ElementKind.ATTRIBUTE_DEF: "attribute def",
    ElementKind.ATTRIBUTE: "attribute",
    ElementKind.INDIVIDUAL_DEF: "individual def",
    ElementKind.INDIVIDUAL: "individual",
    ElementKind.PART_DEF: "part def",
    ElementKind.PART: "part",
    ElementKind.ITEM_DEF: "item def",
    ElementKind.ITEM: "item",
    ElementKind.REQUIREMENT_DEF: "requirement def",
    ElementKind.REQUIREMENT: "requirement",
    ElementKind.CONCERN_DEF: "concern def",
    ElementKind.CONCERN: "concern",
    ElementKind.STAKEHOLDER: "stakeholder",
    ElementKind.VIEWPOINT_DEF: "viewpoint def",
    ElementKind.VIEWPOINT: "viewpoint",
    ElementKind.VIEW: "view",
    ElementKind.USE_CASE_DEF: "use case def",
    ElementKind.USE_CASE: "use case",
    ElementKind.ACTOR: "actor",
    ElementKind.SUBJECT: "subject",
    ElementKind.ACTION: "action",
    ElementKind.STATE: "state",
}

_STATEMENT_REL = {
    RelKind.REFINES: "refines",
    RelKind.FRAMES: "frame",
    RelKind.SATISFIES: "satisfy",
    RelKind.EXPOSES: "expose",
    RelKind.REFERENCES: "references",
}
_STATEMENT_KEYWORD_TO_REL = {v: k for k, v in _STATEMENT_REL.items()}


_INDENT = "    "


# ---------------------------------------------------------------------------
# Emitter


def emit(model: Element) -> str:
    """Render a package in the subset grammar, LF-terminated."""
    if model.kind is not ElementKind.PACKAGE:
        raise UnsupportedElement("emit expects a package root")
    lines: list[str] = []
    _emit_element(model, 0, lines)
    return "\n".join(lines) + "\n"


def name_text(name: str) -> str:
    if IDENT_RE.fullmatch(name) and name not in RESERVED:
        return name
    return quote(name, "'")


def qname_to_text(path: QName) -> str:
    return ".".join(name_text(seg) for seg in path)


def _block_text(text: str, what: str) -> str:
    if "*/" in text:
        raise UnsupportedElement(f"{what} text may not contain '*/'")
    return f"/* {text} */" if text else "/*  */"


def _mult_text(mult: Multiplicity) -> str:
    if mult.upper is None:
        return f"[{mult.lower}..*]"
    if mult.upper == mult.lower:
        return f"[{mult.lower}]"
    return f"[{mult.lower}..{mult.upper}]"


def filter_to_text(expr: FilterExpr) -> str:
    return _filter_text(expr, 0)


def _filter_text(expr: FilterExpr, parent_prec: int) -> str:
    if isinstance(expr, FOr):
        body = f"{_filter_text(expr.left, 1)} or {_filter_text(expr.right, 2)}"
        prec = 1
    elif isinstance(expr, FAnd):
        body = f"{_filter_text(expr.left, 2)} and {_filter_text(expr.right, 3)}"
        prec = 2
    elif isinstance(expr, FNot):
        body = f"not {_filter_text(expr.operand, 3)}"
        prec = 3
    elif isinstance(expr, FHasMeta):
        body = "@" + qname_to_text(expr.metadata_def)
        prec = 4
    elif isinstance(expr, FMetaEq):
        body = (
            "@"
            + qname_to_text(expr.metadata_def)
            + "."
            + name_text(expr.attribute)
            + " == "
            + expr_to_text(expr.literal)
        )
        prec = 4
    elif isinstance(expr, FTyped):
        body = "istype " + qname_to_text(expr.type_name)
        prec = 4
    elif isinstance(expr, FKind):
        body = "iskind " + expr.kind
        prec = 4
    else:
        raise UnsupportedElement(f"no rendering rule for filter node {expr!r}")
    return f"({body})" if prec < parent_prec else body


def _emit_element(el: Element, depth: int, lines: list[str]) -> None:
    pad = _INDENT * depth
    if (el.direction or el.is_ref) and (el.kind not in _PREFIXABLE_KINDS or el.is_objective):
        kind = "objective" if el.is_objective else el.kind.value
        field_name = "direction" if el.direction else "is_ref"
        raise UnsupportedElement(f"an element of kind {kind} takes no {field_name}")

    if el.kind is ElementKind.COMMENT:
        lines.append(f"{pad}comment {_block_text(el.doc or '', 'comment')}")
        return

    if el.kind is ElementKind.METADATA:
        if el.meta_def is None:
            raise UnsupportedElement("metadata application lacks a target definition")
        head = f"{pad}@{qname_to_text(el.meta_def)}"
        if el.bindings:
            parts = " ".join(
                f"{name_text(attr)} = {expr_to_text(value)};" for attr, value in el.bindings
            )
            lines.append(f"{head} {{ {parts} }}")
        else:
            lines.append(f"{head};")
        return

    if el.kind is ElementKind.TRANSITION:
        if el.source is None or el.target is None:
            raise UnsupportedElement("transition lacks source/target states")
        bits = [f"{pad}transition"]
        if el.name:
            bits.append(name_text(el.name))
        bits.append(f"first {name_text(el.source)}")
        if el.trigger is not None:
            bits.append(f"accept {qname_to_text(el.trigger)}")
        if el.guard is not None:
            bits.append(f"if {expr_to_text(el.guard)}")
        if el.effect is not None:
            bits.append(f"do {qname_to_text(el.effect)}")
        bits.append(f"then {name_text(el.target)}")
        lines.append(" ".join(bits) + ";")
        return

    if el.kind is ElementKind.ACTION and el.flavor in ("send", "accept"):
        if el.signal is None:
            raise UnsupportedElement(f"{el.flavor} action lacks a signal name")
        lines.append(f"{pad}{el.flavor} {qname_to_text(el.signal)};")
        return

    if el.kind is ElementKind.CONSTRAINT:
        if el.constraint_expr is None:
            raise UnsupportedElement("constraint element lacks an expression")
        head = pad
        if el.constraint_kind:
            head += el.constraint_kind + " "
        head += "constraint"
        if el.name:
            head += " " + name_text(el.name)
        lines.append(f"{head} {{ {expr_to_text(el.constraint_expr)} }}")
        return

    declarator = _declarator(el)
    body = _body_lines(el, depth + 1)
    if body:
        lines.append(f"{pad}{declarator} {{")
        lines.extend(body)
        lines.append(f"{pad}}}")
    else:
        lines.append(f"{pad}{declarator};")


def _declarator(el: Element) -> str:
    if el.kind is ElementKind.ACTION:
        if el.flavor == "decide":
            keyword = "decide"
        elif el.is_perform:
            keyword = "perform action"
        else:
            keyword = "action"
    elif el.kind is ElementKind.REQUIREMENT and el.is_objective:
        keyword = "objective"
    else:
        keyword = _KEYWORD.get(el.kind)
        if keyword is None:
            raise UnsupportedElement(f"no emission rule for element kind {el.kind}")

    bits: list[str] = []
    if el.direction:
        bits.append(el.direction)
    if el.is_ref:
        bits.append("ref")
    bits.append(keyword)
    if el.name:
        bits.append(name_text(el.name))

    binding: Relationship | None = None
    for rel in el.relationships:
        if rel.kind is RelKind.BINDING:
            binding = rel
        elif rel.kind in INLINE_REL_KINDS:
            bits.append(f"{rel.kind.value} {qname_to_text(rel.target)}")
    if el.multiplicity is not None:
        bits.append(_mult_text(el.multiplicity))
    if binding is not None:
        bits.append(f"= {qname_to_text(binding.target)}")
    if el.value is not None:
        bits.append(f"= {expr_to_text(el.value)}")
    if el.performer is not None:
        bits.append(f"by {qname_to_text(el.performer)}")
    return " ".join(bits)


def _body_lines(el: Element, depth: int) -> list[str]:
    pad = _INDENT * depth
    out: list[str] = []
    if el.doc is not None:
        out.append(f"{pad}doc {_block_text(el.doc, 'doc')}")
    for literal in el.enum_literals:
        out.append(f"{pad}{name_text(literal)};")
    if el.entry_action is not None:
        out.append(f"{pad}entry {qname_to_text(el.entry_action)};")
    if el.do_action is not None:
        out.append(f"{pad}do {qname_to_text(el.do_action)};")
    for rel in el.relationships:
        keyword = _STATEMENT_REL.get(rel.kind)
        if keyword:
            out.append(f"{pad}{keyword} {qname_to_text(rel.target)};")
    if el.filter is not None:
        out.append(f"{pad}filter {filter_to_text(el.filter)};")
    for child in el.children:
        _emit_element(child, depth, out)
    for assignment in el.assignments:
        out.append(
            f"{pad}assign {qname_to_text(assignment.target)} := "
            f"{expr_to_text(assignment.value)};"
        )
    for succ in el.successions:
        out.append(f"{pad}first {name_text(succ.source)} then {name_text(succ.target)};")
    return out


# ---------------------------------------------------------------------------
# Parser


def parse_sysml(source: str, file_name: str = "<sysml>") -> Element:
    """Parse subset text into a Package element; raises ParseError."""
    ts = TokenStream(lex(source, file_name, "sysml"))
    if not ts.at("package"):
        raise ts.error(("package",))
    pkg = _parse_declaration(ts)
    ts.expect_kind(EOF, "end of input")
    return pkg


def _parse_name(ts: TokenStream) -> str | None:
    tok = ts.current
    if tok.kind == QNAME:
        ts.take()
        return tok.value
    if tok.kind == IDENT and tok.value not in RESERVED:
        ts.take()
        return tok.value
    return None


def _parse_qname(ts: TokenStream, what: str = "qualified name") -> QName:
    segs: list[str] = []
    tok = ts.current
    if tok.kind not in (IDENT, QNAME):
        raise ts.error((what,))
    segs.append(ts.take().value)
    while ts.at(".") and ts.peek(1).kind in (IDENT, QNAME):
        ts.take()
        segs.append(ts.take().value)
    return tuple(segs)


def _parse_multiplicity(ts: TokenStream) -> Multiplicity:
    ts.expect("[")
    lower = ts.take_int("multiplicity lower bound")
    upper: int | None = lower
    if ts.at(".."):
        ts.take()
        if ts.at("*"):
            ts.take()
            upper = None
        else:
            upper = ts.take_int("multiplicity upper bound")
    ts.expect("]")
    try:
        return Multiplicity(lower, upper)
    except ValueError as exc:
        raise ParseError(ts.current.span, str(exc)) from exc


def _parse_metadata_application(ts: TokenStream) -> Element:
    start = ts.expect("@")
    meta_def = _parse_qname(ts, "metadata definition name")
    bindings: list[tuple[str, Expr]] = []
    if ts.at("{"):
        ts.take()
        while not ts.at("}"):
            attr = ts.current
            if attr.kind not in (IDENT, QNAME):
                raise ts.error(("attribute name", "'}'"))
            ts.take()
            ts.expect("=")
            value = parse_expr(ts)
            ts.expect(";")
            bindings.append((attr.value, value))
        end = ts.take()
    else:
        end = ts.expect(";")
    return Element(
        ElementKind.METADATA,
        meta_def=meta_def,
        bindings=tuple(bindings),
        span=start.through(end),
    )


_FILTER_OPS = {"or": (1, FOr), "and": (2, FAnd)}
_FILTER_NOT = 3  # `not` binds tighter than `and` and `or`


def _parse_filter_expr(ts: TokenStream, min_prec: int = 1) -> FilterExpr:
    """The filter operators that bind at least as tightly as `min_prec`."""
    if ts.at("not"):
        ts.enter()
        left = FNot(_parse_filter_expr(ts, _FILTER_NOT))
        ts.leave()
    else:
        left = _parse_filter_atom(ts)
    while True:
        op = _FILTER_OPS.get(ts.keyword())
        if op is None or op[0] < min_prec:
            return left
        ts.take()
        left = op[1](left, _parse_filter_expr(ts, op[0] + 1))


def _parse_filter_atom(ts: TokenStream) -> FilterExpr:
    if ts.at("("):
        ts.enter()
        inner = _parse_filter_expr(ts)
        ts.expect(")")
        ts.leave()
        return inner
    if ts.at("@"):
        ts.take()
        path = _parse_qname(ts, "metadata definition name")
        if ts.at("=="):
            if len(path) < 2:
                raise ts.error(("metadata attribute path (Def.attr)",))
            ts.take()
            literal = parse_operand(ts)
            return FMetaEq(path[:-1], path[-1], literal)
        return FHasMeta(path)
    if ts.at("istype"):
        ts.take()
        return FTyped(_parse_qname(ts, "type name"))
    if ts.at("iskind"):
        ts.take()
        kind = ts.expect_kind(IDENT, "element kind name").value
        try:
            ElementKind(kind)
        except ValueError as exc:
            raise ParseError(
                ts.peek(-1).span if ts.pos else ts.current.span,
                f"unknown element kind {kind!r}",
                found=kind,
            ) from exc
        return FKind(kind)
    raise ts.error(("'@'", "istype", "iskind", "'('", "not"))


class _Body:
    """Mutable accumulator for one element body while parsing."""

    def __init__(self) -> None:
        self.children: list[Element] = []
        self.statement_rels: list[Relationship] = []
        self.doc: str | None = None
        self.filter: FilterExpr | None = None
        self.assignments: list[Assignment] = []
        self.successions: list[Succession] = []
        self.entry_action: QName | None = None
        self.do_action: QName | None = None
        self.enum_literals: list[str] = []


def _parse_body(ts: TokenStream, kind: ElementKind) -> _Body:
    """Parse member statements up to, not including, the closing '}'."""
    body = _Body()
    statements = _STATE_STATEMENTS if kind is ElementKind.STATE else _STATEMENTS
    while not ts.at("}"):
        tok = ts.current
        statement = statements.get(ts.keyword())
        if statement is not None:
            statement(ts, body)
        elif tok.kind == EOF:
            raise ts.error(("'}'",))
        elif kind is ElementKind.ENUM_DEF and tok.kind in (IDENT, QNAME):
            name = _parse_name(ts)
            if name is None:
                raise ts.error(("enum literal name",))
            ts.expect(";")
            body.enum_literals.append(name)
        else:
            body.children.append(_parse_declaration(ts))
    return body


# Body statements, each parsed from its keyword on.


def _metadata_statement(ts: TokenStream, body: _Body) -> None:
    body.children.append(_parse_metadata_application(ts))


def _doc_statement(ts: TokenStream, body: _Body) -> None:
    ts.take()
    body.doc = ts.expect_kind(BLOCKTEXT, "/* documentation */").value.strip()


def _comment_statement(ts: TokenStream, body: _Body) -> None:
    start = ts.take()
    text = ts.expect_kind(BLOCKTEXT, "/* comment */")
    span = start.through(text)
    body.children.append(Element(ElementKind.COMMENT, doc=text.value.strip(), span=span))


def _relationship_statement(ts: TokenStream, body: _Body) -> None:
    kind = _STATEMENT_KEYWORD_TO_REL[ts.take().value]
    target = _parse_qname(ts)
    ts.expect(";")
    body.statement_rels.append(Relationship(kind, target))


def _filter_statement(ts: TokenStream, body: _Body) -> None:
    ts.take()
    body.filter = _parse_filter_expr(ts)
    ts.expect(";")


def _succession_statement(ts: TokenStream, body: _Body) -> None:
    ts.take()
    source = _parse_name(ts)
    if source is None:
        raise ts.error(("succession source name",))
    ts.expect("then")
    target = _parse_name(ts)
    if target is None:
        raise ts.error(("succession target name",))
    ts.expect(";")
    body.successions.append(Succession(source, target))


def _assign_statement(ts: TokenStream, body: _Body) -> None:
    ts.take()
    target = _parse_qname(ts, "assignment target")
    ts.expect(":=")
    value = parse_expr(ts)
    ts.expect(";")
    body.assignments.append(Assignment(target, value))


def _entry_statement(ts: TokenStream, body: _Body) -> None:
    ts.take()
    body.entry_action = _parse_qname(ts, "entry action name")
    ts.expect(";")


def _do_statement(ts: TokenStream, body: _Body) -> None:
    ts.take()
    body.do_action = _parse_qname(ts, "do action name")
    ts.expect(";")


def _signal_statement(ts: TokenStream, body: _Body) -> None:
    flavor = ts.take()
    signal = _parse_qname(ts, "signal name")
    span = flavor.through(ts.expect(";"))
    body.children.append(
        Element(ElementKind.ACTION, flavor=flavor.value, signal=signal, span=span)
    )


_STATEMENTS = {
    "@": _metadata_statement,
    "doc": _doc_statement,
    "comment": _comment_statement,
    **dict.fromkeys(_STATEMENT_KEYWORD_TO_REL, _relationship_statement),
    "filter": _filter_statement,
    "first": _succession_statement,
    "assign": _assign_statement,
    "send": _signal_statement,
    "accept": _signal_statement,
}
_STATE_STATEMENTS = {**_STATEMENTS, "entry": _entry_statement, "do": _do_statement}


_PREFIXED: dict[str, tuple[ElementKind | None, ElementKind]] = {
    # keyword -> (usage kind, or None where only `def` may follow; def kind)
    "metadata": (None, ElementKind.METADATA_DEF),
    "enum": (None, ElementKind.ENUM_DEF),
    "attribute": (ElementKind.ATTRIBUTE, ElementKind.ATTRIBUTE_DEF),
    "individual": (ElementKind.INDIVIDUAL, ElementKind.INDIVIDUAL_DEF),
    "part": (ElementKind.PART, ElementKind.PART_DEF),
    "item": (ElementKind.ITEM, ElementKind.ITEM_DEF),
    "requirement": (ElementKind.REQUIREMENT, ElementKind.REQUIREMENT_DEF),
    "concern": (ElementKind.CONCERN, ElementKind.CONCERN_DEF),
    "viewpoint": (ElementKind.VIEWPOINT, ElementKind.VIEWPOINT_DEF),
}

# The usages that `in`, `out` and `ref` may precede.  No declaration with
# further fields (`objective`, `perform action`, `decide`) takes them.
_PREFIXABLE_KINDS = frozenset(map(ElementKind, (
    "attribute individual part item requirement concern"
    " stakeholder viewpoint view actor subject state"
).split()))

# keyword -> (usage kind, def kind, required second keyword, further fields)
_DECLARATORS: dict[str, tuple[ElementKind | None, ElementKind | None, str | None, dict]] = {
    **{word: (usage, def_kind, None, {}) for word, (usage, def_kind) in _PREFIXED.items()},
    "package": (ElementKind.PACKAGE, None, None, {}),
    "use": (ElementKind.USE_CASE, ElementKind.USE_CASE_DEF, "case", {}),
    "view": (ElementKind.VIEW, None, None, {}),
    "stakeholder": (ElementKind.STAKEHOLDER, None, None, {}),
    "actor": (ElementKind.ACTOR, None, None, {}),
    "subject": (ElementKind.SUBJECT, None, None, {}),
    "objective": (ElementKind.REQUIREMENT, None, None, {"is_objective": True}),
    "perform": (ElementKind.ACTION, None, "action", {"is_perform": True}),
    "action": (ElementKind.ACTION, None, None, {}),
    "decide": (ElementKind.ACTION, None, None, {"flavor": "decide"}),
    "state": (ElementKind.STATE, None, None, {}),
}

_INLINE_REL = {":>>": RelKind.REDEFINES, ":>": RelKind.SUBSETS, ":": RelKind.TYPING}


def _parse_declaration(ts: TokenStream) -> Element:
    first = ts.current
    if first.kind != IDENT:
        raise ts.error(("an element declaration",))
    word = first.value
    if word in UNSUPPORTED_KEYWORDS:
        raise UnsupportedConstruct(first.span, word, tuple(sorted(_PREFIXED)))

    direction: str | None = None
    if word == "in" or word == "out":
        direction = ts.take().value
        word = ts.current.value
    is_ref = ts.at("ref")
    if is_ref:
        ts.take()
        word = ts.current.value

    special = _SPECIAL_DECLARATIONS.get(word)
    if special is not None:
        if direction is not None or is_ref:
            raise ParseError(first.span, f"{word!r} takes no {first.value!r} prefix")
        return special(ts)
    form = _DECLARATORS.get(word)
    if form is None:
        raise ts.error(("an element declaration",))
    usage_kind, def_kind, second, fields = form
    ts.take()
    if second is not None:
        ts.expect(second)
    if def_kind is not None and ts.at("def"):
        ts.take()
        kind = def_kind
    elif usage_kind is None:
        raise ts.error(("def",))
    else:
        kind = usage_kind
    if (direction is not None or is_ref) and (kind not in _PREFIXABLE_KINDS or fields):
        declared = " ".join(w for w in (word, second, "def" * (kind is def_kind)) if w)
        raise ParseError(first.span, f"{declared!r} takes no {first.value!r} prefix")

    name = _parse_name(ts)
    relationships: list[Relationship] = []
    multiplicity: Multiplicity | None = None
    value: Expr | None = None
    performer: QName | None = None
    while True:
        word = ts.keyword()
        if word in _INLINE_REL:
            ts.take()
            relationships.append(Relationship(_INLINE_REL[word], _parse_qname(ts)))
        elif word == "[":
            multiplicity = _parse_multiplicity(ts)
        elif word == "=":
            ts.take()
            if kind is ElementKind.ATTRIBUTE:
                value = parse_expr(ts)
            else:
                relationships.append(Relationship(RelKind.BINDING, _parse_qname(ts)))
        elif word == "by" and kind is ElementKind.ACTION:
            ts.take()
            performer = _parse_qname(ts, "performer name")
        else:
            break

    fields = dict(
        fields,
        kind=kind,
        name=name,
        multiplicity=multiplicity,
        direction=direction,
        is_ref=is_ref,
        performer=performer,
        value=value,
    )
    if ts.at(";"):
        span = first.through(ts.take())
        return Element(relationships=tuple(relationships), span=span, **fields)
    if not ts.at("{"):
        raise ts.error(("';'", "'{'"))
    ts.enter()
    body = _parse_body(ts, kind)
    ts.leave()
    return Element(
        relationships=tuple(relationships) + tuple(body.statement_rels),
        doc=body.doc,
        enum_literals=tuple(body.enum_literals),
        entry_action=body.entry_action,
        do_action=body.do_action,
        filter=body.filter,
        assignments=tuple(body.assignments),
        successions=tuple(body.successions),
        children=tuple(body.children),
        span=first.through(ts.take()),
        **fields,
    )


def _parse_transition(ts: TokenStream) -> Element:
    start = ts.expect("transition")
    name = _parse_name(ts)
    ts.expect("first")
    source = _parse_name(ts)
    if source is None:
        raise ts.error(("source state name",))
    trigger: QName | None = None
    guard: Expr | None = None
    effect: QName | None = None
    if ts.at("accept"):
        ts.take()
        trigger = _parse_qname(ts, "trigger signal name")
    if ts.at("if"):
        ts.take()
        guard = parse_expr(ts)
    if ts.at("do"):
        ts.take()
        effect = _parse_qname(ts, "effect action name")
    ts.expect("then")
    target = _parse_name(ts)
    if target is None:
        raise ts.error(("target state name",))
    end = ts.expect(";")
    return Element(
        ElementKind.TRANSITION,
        name=name,
        source=source,
        target=target,
        trigger=trigger,
        guard=guard,
        effect=effect,
        span=start.through(end),
    )


def _parse_constraint(ts: TokenStream) -> Element:
    start = ts.current
    constraint_kind: str | None = None
    if start.value in ("require", "assume", "assert"):
        constraint_kind = ts.take().value
    ts.expect("constraint")
    name = _parse_name(ts)
    ts.expect("{")
    expr = parse_expr(ts)
    end = ts.expect("}")
    return Element(
        ElementKind.CONSTRAINT,
        name=name,
        constraint_kind=constraint_kind,
        constraint_expr=expr,
        span=start.through(end),
    )


_SPECIAL_DECLARATIONS = {
    "transition": _parse_transition,
    **dict.fromkeys(("require", "assume", "assert", "constraint"), _parse_constraint),
}
