"""Deterministic emitter and parser for the SysML v2 textual subset.

`emit` is a pure function of the model and produces byte-identical
text for structurally equal models; `parse_sysml` is its inverse on the
subset.  Grammar reference: docs/GRAMMAR.md.
"""
from __future__ import annotations

import dataclasses
from operator import attrgetter

from .errors import ParseError, UnsupportedConstruct, UnsupportedElement
from .exprs import Expr, expr_to_text, parse_expr, parse_operand
from .lexing import (
    BLOCKTEXT, EOF, IDENT, IDENT_RE, MAX_NESTING, QNAME, TokenStream, iter_lex, quote
)
from .sysml_ast import (
    BODY_FIELDS,
    Assignment,
    Element,
    ElementKind,
    FHasMeta,
    FILTER_OPS,
    FKind,
    FMetaEq,
    FORMS,
    FTyped,
    FilterExpr,
    Multiplicity,
    QName,
    RelKind,
    Relationship,
    SEGMENT_FORM,
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

# The notations `emit` writes apart from FORMS, in its shape: each writes one line of just
# the fields it lists, a required one marked '!'.  `send` and `accept` come before `action`.
_LINE_FORMS = (
    ("comment", ElementKind.COMMENT, None, "doc!"),
    ("@", ElementKind.METADATA, None, "meta_def! bindings"),
    ("transition", ElementKind.TRANSITION, None, "name source! target! trigger guard effect"),
    ("constraint", ElementKind.CONSTRAINT, None, "name constraint_kind constraint_expr!"),
    ("send", ElementKind.ACTION, ("flavor", "send"), "signal!"),
    ("accept", ElementKind.ACTION, ("flavor", "accept"), "signal!"),
)
# The keywords that spell `direction` and `constraint_kind`; `emit` refuses any other value.
_SPELLINGS = {"direction": ("in", "out"), "constraint_kind": ("require", "assume", "assert")}
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(Element) if f.compare}
del _DEFAULTS["kind"]


def _notation(row: tuple, writes: str) -> tuple:
    """`row`, the fields it does not write, a getter of them, their defaults and the
    fields it requires; `writes` names the fields it writes beside its fixed one."""
    written = {word.strip("!") for word in writes.split()} | {row[2] and row[2][0]}
    unwritten = tuple(name for name in _DEFAULTS if name not in written)
    required = tuple(word[:-1] for word in writes.split() if word.endswith("!"))
    return row, unwritten, attrgetter(*unwritten), tuple(map(_DEFAULTS.get, unwritten)), required


_NOTATIONS = [_notation(row, row[3]) for row in _LINE_FORMS]
_NOTATIONS += [_notation(row, f"{row[3]} {BODY_FIELDS}") for row in FORMS]
_KIND_NOTATIONS = {kind: [n for n in _NOTATIONS if n[0][1] is kind] for kind in ElementKind}

# The order `emit` writes relationships in: inline relations, the binding, then the
# statements, each named by a word.
_REL_RANK = {kind: 2 if kind.value.isalpha() else kind is RelKind.BINDING for kind in RelKind}


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
    return expr_to_text(expr, FILTER_OPS, _filter_atom_text)


def _filter_atom_text(expr: FilterExpr) -> str:
    if isinstance(expr, FHasMeta):
        return "@" + qname_to_text(expr.metadata_def)
    if isinstance(expr, FMetaEq):
        return (
            "@"
            + qname_to_text(expr.metadata_def)
            + "."
            + name_text(expr.attribute)
            + " == "
            + expr_to_text(expr.literal)
        )
    if isinstance(expr, FTyped):
        return "istype " + qname_to_text(expr.type_name)
    if isinstance(expr, FKind):
        return "iskind " + expr.kind
    raise UnsupportedElement(f"no rendering rule for filter node {expr!r}")


def _emit_element(el: Element, depth: int, lines: list[str]) -> None:
    pad = _INDENT * depth
    if el.name and "@" in el.name and SEGMENT_FORM.fullmatch(el.name):
        raise UnsupportedElement(f"name {el.name!r} spells an unnamed element's segment")
    form, unwritten, values, defaults, required = _form(el)
    word = form[0]
    if values(el) != defaults:
        field = next(name for name, d in zip(unwritten, defaults) if getattr(el, name) != d)
        raise _refusal(el, word, f"takes no {field}")
    for field in required:
        if getattr(el, field) is None:
            raise _refusal(el, word, f"lacks its {field}")
    if el.name == "":  # written as nothing, it would read back as None
        raise _refusal(el, word, "has no notation for name ''")

    if word == "comment":
        lines.append(f"{pad}comment {_block_text(el.doc, 'comment')}")
        return

    if word == "@":
        parts = "".join(f" {name_text(a)} = {expr_to_text(v)};" for a, v in el.bindings)
        lines.append(f"{pad}@{qname_to_text(el.meta_def)}" + (f" {{{parts} }}" if parts else ";"))
        return

    if word == "transition":
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

    if word in ("send", "accept"):
        lines.append(f"{pad}{word} {qname_to_text(el.signal)};")
        return

    if word == "constraint":
        _check_spelling(el, word, "constraint_kind")
        bits = (el.constraint_kind, "constraint", el.name and name_text(el.name))
        head = " ".join(bit for bit in bits if bit)
        lines.append(f"{pad}{head} {{ {expr_to_text(el.constraint_expr)} }}")
        return

    # `parse_sysml` refuses a body that opens past MAX_NESTING.  Children make a body, and
    # are tested first, so the recursion stops here however deep the model is.
    if depth >= MAX_NESTING and (el.children or _body_lines(el, depth + 1)):
        raise UnsupportedElement(f"nesting deeper than {MAX_NESTING} levels")
    declarator = _declarator(el, form)
    body = _body_lines(el, depth + 1)
    if body:
        lines.append(f"{pad}{declarator} {{")
        lines.extend(body)
        lines.append(f"{pad}}}")
    else:
        lines.append(f"{pad}{declarator};")


def _refusal(el: Element, word: str, what: str) -> UnsupportedElement:
    """The error for an element, written as `word`, that `what`; it names the element's
    kind, or `objective`, which is a notation of its own."""
    kind = "objective" if word == "objective" else el.kind.value
    return UnsupportedElement(f"an element of kind {kind} {what}")


def _check_spelling(el: Element, word: str, field: str) -> None:
    """Refuse a value of `field` that none of its keywords in `_SPELLINGS` spells."""
    value = getattr(el, field)
    if value is not None and value not in _SPELLINGS[field]:
        raise _refusal(el, word, f"has no notation for {field} {value!r}")


def _form(el: Element) -> tuple:
    """The first of its kind's notations whose fixed field the element has, as `_notation`
    gives it; each kind has one that fixes none."""
    for notation in _KIND_NOTATIONS[el.kind]:
        fixed = notation[0][2]
        if fixed is None or getattr(el, fixed[0]) == fixed[1]:
            return notation


def _declarator(el: Element, form: tuple) -> str:
    bits: list[str] = []
    if el.direction is not None:
        _check_spelling(el, form[0], "direction")
        bits.append(el.direction)
    if el.is_ref:
        bits.append("ref")
    bits.append(form[0])
    if el.name:
        bits.append(name_text(el.name))

    binding: Relationship | None = None
    rank = 0
    for rel in el.relationships:
        if _REL_RANK[rel.kind] < rank:
            order = ", ".join(rel.kind.name for rel in el.relationships)
            raise UnsupportedElement(
                f"relationships ({order}) would read back reordered: inline relations"
                " come first, then the binding, then relationship statements"
            )
        rank = _REL_RANK[rel.kind]
        if rel.kind is RelKind.BINDING:
            if binding is not None or el.value is not None:
                raise UnsupportedElement("an element takes at most one '=' clause")
            if "value" in form[3]:  # its '=' reads back as a value
                raise UnsupportedElement(
                    f"an element of kind {el.kind.value} takes no BINDING relationship"
                )
            binding = rel
        elif not rank:
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
        if _REL_RANK[rel.kind] == 2:
            out.append(f"{pad}{rel.kind.value} {qname_to_text(rel.target)};")
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
    with TokenStream(iter_lex(source, file_name, "sysml")) as ts:
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


def _parse_element_name(ts: TokenStream) -> str | None:
    """A declared element's name; a quoted one may not spell a `kind@index` segment."""
    tok = ts.current
    if tok.kind == QNAME and SEGMENT_FORM.fullmatch(tok.value):
        raise ParseError(tok.span, f"name {tok.value!r} spells an unnamed element's segment")
    return _parse_name(ts)


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
    """A multiplicity from after its '['."""
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


def _parse_filter_atom(ts: TokenStream) -> FilterExpr:
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
        tok = ts.expect_kind(IDENT, "element kind name")
        try:
            ElementKind(tok.value)
        except ValueError as exc:
            message = f"unknown element kind {tok.value!r}"
            raise ParseError(tok.span, message, found=tok.value) from exc
        return FKind(tok.value)
    raise ts.error(("'@'", "istype", "iskind", "'('", "not"))


# Element's fields that a declaration builds item by item; each becomes a tuple at its end.
_SEQUENCES = ("relationships", "enum_literals", "assignments", "successions", "children")


def _claim(ts: TokenStream, fields: dict, field: str) -> None:
    """Take the keyword of a clause that sets the single-valued `field`, marked set at None.

    A second clause that sets it is refused at its keyword, so none replaces another.
    """
    tok = ts.current
    if field in fields:
        raise ParseError(
            tok.span, f"{tok.value!r} may occur only once in a declaration", found=tok.value
        )
    fields[field] = None
    ts.take()


def _parse_body(ts: TokenStream, fields: dict, writes: str) -> None:
    """Parse member statements into `fields` up to, not including, the closing '}';
    `writes` is the form's fourth column in FORMS."""
    statements = _STATE_STATEMENTS if "entry_action" in writes else _STATEMENTS
    while not ts.at("}"):
        statement = statements.get(ts.keyword())
        if statement is not None:
            statement(ts, fields)
        elif ts.current.kind == EOF:
            raise ts.error(("'}'",))
        elif "enum_literals" in writes and (name := _parse_name(ts)) is not None:
            ts.expect(";")
            fields["enum_literals"].append(name)
        else:
            fields["children"].append(_parse_declaration(ts))


# Body statements, each parsed from its keyword on into its element's fields.


def _metadata_statement(ts: TokenStream, fields: dict) -> None:
    start = ts.take()
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
    span = start.through(end)
    fields["children"].append(
        Element(ElementKind.METADATA, meta_def=meta_def, bindings=tuple(bindings), span=span)
    )


def _doc_statement(ts: TokenStream, fields: dict) -> None:
    _claim(ts, fields, "doc")
    fields["doc"] = ts.expect_kind(BLOCKTEXT, "/* documentation */").value.strip()


def _comment_statement(ts: TokenStream, fields: dict) -> None:
    start = ts.take()
    text = ts.expect_kind(BLOCKTEXT, "/* comment */")
    span = start.through(text)
    fields["children"].append(Element(ElementKind.COMMENT, doc=text.value.strip(), span=span))


def _relationship_statement(ts: TokenStream, fields: dict) -> None:
    kind = RelKind(ts.take().value)
    target = _parse_qname(ts)
    ts.expect(";")
    fields["relationships"].append(Relationship(kind, target))


def _filter_statement(ts: TokenStream, fields: dict) -> None:
    _claim(ts, fields, "filter")
    fields["filter"] = parse_expr(ts, FILTER_OPS, _parse_filter_atom)
    ts.expect(";")


def _succession_statement(ts: TokenStream, fields: dict) -> None:
    ts.take()
    source = _parse_name(ts)
    if source is None:
        raise ts.error(("succession source name",))
    ts.expect("then")
    target = _parse_name(ts)
    if target is None:
        raise ts.error(("succession target name",))
    ts.expect(";")
    fields["successions"].append(Succession(source, target))


def _assign_statement(ts: TokenStream, fields: dict) -> None:
    ts.take()
    target = _parse_qname(ts, "assignment target")
    ts.expect(":=")
    value = parse_expr(ts)
    ts.expect(";")
    fields["assignments"].append(Assignment(target, value))


def _state_action_statement(ts: TokenStream, fields: dict) -> None:
    """`entry` or `do`, naming the action a state runs: `entry_action` or `do_action`."""
    word = ts.current.value
    _claim(ts, fields, f"{word}_action")
    fields[f"{word}_action"] = _parse_qname(ts, f"{word} action name")
    ts.expect(";")


def _signal_statement(ts: TokenStream, fields: dict) -> None:
    flavor = ts.take()
    signal = _parse_qname(ts, "signal name")
    span = flavor.through(ts.expect(";"))
    fields["children"].append(
        Element(ElementKind.ACTION, flavor=flavor.value, signal=signal, span=span)
    )


_STATEMENTS = {
    "@": _metadata_statement,
    "doc": _doc_statement,
    "comment": _comment_statement,
    **{kind.value: _relationship_statement for kind in RelKind if _REL_RANK[kind] == 2},
    "filter": _filter_statement,
    "first": _succession_statement,
    "assign": _assign_statement,
    "send": _signal_statement,
    "accept": _signal_statement,
}
_STATE_STATEMENTS = {**_STATEMENTS, **dict.fromkeys(("entry", "do"), _state_action_statement)}


# Each keyword phrase of FORMS to its row, and each proper prefix of one to the word after it.
_PHRASES: dict[str, tuple | str] = {
    " ".join(words[:n]): words[n]
    for words in (form[0].split() for form in FORMS)
    for n in range(1, len(words))
}
_PHRASES.update((form[0], form) for form in FORMS)
# The one-word keywords that `def` follows: the error for a construct outside the subset lists them.
_SUPPORTED = tuple(sorted(w for w in _PHRASES if " " not in w and f"{w} def" in _PHRASES))

# Each declarator clause's rank in the order docs/GRAMMAR.md gives: the inline relations
# first; `by` only where the form writes `performer`.
_CLAUSE_RANK = {kind.value: 0 for kind in RelKind if not _REL_RANK[kind]}
_CLAUSE_RANK.update({"[": 1, "=": 2, "by": 3})


def _parse_declaration(ts: TokenStream) -> Element:
    first = ts.current
    if first.kind != IDENT:
        raise ts.error(("an element declaration",))
    word = first.value
    if word in UNSUPPORTED_KEYWORDS:
        raise UnsupportedConstruct(first.span, word, _SUPPORTED)

    direction: str | None = None
    if word in _SPELLINGS["direction"]:
        direction = ts.take().value
        word = ts.keyword()
    is_ref = ts.at("ref")
    if is_ref:
        ts.take()
        word = ts.keyword()

    special = _SPECIAL_DECLARATIONS.get(word)
    if special is None:
        if word not in _PHRASES:
            raise ts.error(("an element declaration",))
        ts.take()
        while f"{word} {ts.keyword()}" in _PHRASES:
            word += " " + ts.take().value
        form = _PHRASES[word]
        if isinstance(form, str):  # a proper prefix only, such as `use` without `case`
            raise ts.error((form if form == "def" else repr(form),))
    if (direction is not None or is_ref) and (special is not None or "is_ref" not in form[3]):
        raise ParseError(first.span, f"{word!r} takes no {first.value!r} prefix")
    if special is not None:
        return special(ts)
    _, kind, fixed, writes = form

    fields = {key: [] for key in _SEQUENCES}
    if fixed:
        fields[fixed[0]] = fixed[1]
    fields.update(kind=kind, name=_parse_element_name(ts), direction=direction, is_ref=is_ref)
    last, last_rank = "", 0  # the previous clause's keyword and rank
    while True:
        word = ts.keyword()
        rank = _CLAUSE_RANK.get(word)
        if rank is None or word == "by" and "performer" not in writes:
            break
        if rank < last_rank or rank == last_rank > 0:  # relations alone may repeat
            rule = f"may not follow {last!r}" if rank < last_rank else "may occur only once"
            raise ParseError(ts.current.span, f"{word!r} {rule} in a declaration", found=word)
        last, last_rank = ts.take().value, rank
        if not rank:
            fields["relationships"].append(Relationship(RelKind(word), _parse_qname(ts)))
        elif word == "[":
            fields["multiplicity"] = _parse_multiplicity(ts)
        elif word == "by":
            fields["performer"] = _parse_qname(ts, "performer name")
        elif "value" in writes:  # `=` sets the value the form writes, or else a binding
            fields["value"] = parse_expr(ts)
        else:
            fields["relationships"].append(Relationship(RelKind.BINDING, _parse_qname(ts)))

    if ts.at("{"):
        ts.enter()
        _parse_body(ts, fields, writes)
        ts.leave()
    elif not ts.at(";"):
        raise ts.error(("';'", "'{'"))
    for key in _SEQUENCES:
        fields[key] = tuple(fields[key])
    try:
        return Element(span=first.through(ts.take()), **fields)
    except ValueError:  # a repeated name: a name that spells a segment is refused above
        named: dict[str, Element] = {}
        for child in filter(attrgetter("name"), fields["children"]):
            earlier = named.setdefault(child.name, child)
            if earlier is not child:
                message = f"duplicate member name {child.name!r} (first declared at {earlier.span})"
                raise ParseError(child.span, message, found=child.name) from None


def _parse_transition(ts: TokenStream) -> Element:
    start = ts.expect("transition")
    fields = {"name": _parse_element_name(ts)}
    ts.expect("first")
    fields["source"] = _parse_name(ts)
    if fields["source"] is None:
        raise ts.error(("source state name",))
    if ts.at("accept"):
        ts.take()
        fields["trigger"] = _parse_qname(ts, "trigger signal name")
    if ts.at("if"):
        ts.take()
        fields["guard"] = parse_expr(ts)
    if ts.at("do"):
        ts.take()
        fields["effect"] = _parse_qname(ts, "effect action name")
    ts.expect("then")
    fields["target"] = _parse_name(ts)
    if fields["target"] is None:
        raise ts.error(("target state name",))
    return Element(ElementKind.TRANSITION, span=start.through(ts.expect(";")), **fields)


def _parse_constraint(ts: TokenStream) -> Element:
    start = ts.current
    fields = {"constraint_kind": None if start.value == "constraint" else ts.take().value}
    ts.expect("constraint")
    fields["name"] = _parse_element_name(ts)
    ts.expect("{")
    fields["constraint_expr"] = parse_expr(ts)
    return Element(ElementKind.CONSTRAINT, span=start.through(ts.expect("}")), **fields)


_SPECIAL_DECLARATIONS = {
    "transition": _parse_transition,
    **dict.fromkeys((*_SPELLINGS["constraint_kind"], "constraint"), _parse_constraint),
}
