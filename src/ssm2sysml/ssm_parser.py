"""Parser and canonical formatter for the `.ssm` input format.

The format is block structured and line oriented::

    context Office {
        individual manager : Employee "Manager"
        root-definition assign {
            customer manager ;
            actor it manager ;
            owner it ;
            transformation "do the thing" {
                subject roleA : Role ;
                input tool : Tool ;
                output license : License ;
            } ;
            worldview "why this makes sense" ;
            environmental-constraint EC1 "text" require "x > 0" refines EC0 ;
        }
        conceptual-model assign {
            activity a1 "label" by manager ;
            flow a1 -> a2 ;
            monitor m1 "label" controls a1, a2 ;
        }
    }

`#` starts a line comment.  Any number of `;` may follow any member,
blocks included; the formatter writes one after each statement inside a
root definition or a conceptual model.

Each of the four blocks has a statement table, in the order its errors
list them, from keyword to the function that parses the rest of the
statement; one loop, `_block`, reads any of them.  Each record's span
runs from its first token through its last.
"""
from __future__ import annotations

from typing import Callable

from .errors import ParseError
from .exprs import expr_to_text, parse_expr_text
from .lexing import CONSTRAINT_DEPTH, EOF, IDENT, PUNCTUATION, STRING, Token, TokenStream, iter_lex, quote
from .source import SourceSpan
from .ssm_model import (
    Activity,
    ConceptualModel,
    EnvConstraint,
    Flow,
    IdRef,
    Individual,
    MonitorLink,
    RootDefinition,
    SsmContext,
    Transformation,
)

_CONSTRAINT_KINDS = ("require", "assume", "assert")


def parse_ssm(source: str, file_name: str = "<ssm>") -> SsmContext:
    """Parse `.ssm` text into an SsmContext; raises ParseError on fault.

    Dangling references are allowed here; `validate_context` reports
    them.  Duplicate top-level ids are a parse-level error.
    """
    with TokenStream(iter_lex(source, file_name, "ssm")) as ts:
        first = ts.expect("context")
        name = ts.expect_kind(IDENT, "context name").value
        ts.expect("{")
        members, end = _block(ts, _CONTEXT)
        ts.expect_kind(EOF, "end of input")
    return SsmContext(
        name=name,
        file=file_name,
        individuals=tuple(members["individual"]),
        root_definitions=tuple(members["root-definition"]),
        conceptual_models=tuple(members["conceptual-model"]),
        span=first.through(end),
    )


# Parses a statement after its keyword, whose first token it is given, with the
# enclosing block's members so far; returns what the block keeps for the statement.
_Statement = Callable[[TokenStream, Token, dict], object]


def _block(ts: TokenStream, table: dict[str, _Statement]) -> tuple[dict, Token]:
    """Parse the statements of `table` up to the block's `}`, and take it.

    Returns each keyword's values in source order, and the `}`.  A
    hyphenated keyword such as `root-definition`, lexed as three tokens,
    is looked up as one word.  A keyword of `_ONCE` is refused the second
    time.  Any number of `;` may follow a statement.
    """
    members: dict = {keyword: [] for keyword in table}
    while not ts.at("}"):
        first = ts.current
        keyword = ts.keyword()
        if keyword not in table:
            dash, second = ts.peek(1), ts.peek(2)
            if dash.kind == PUNCTUATION and dash.value == "-" and second.kind == IDENT:
                keyword = f"{keyword}-{second.value}"
            if keyword not in table:
                raise ts.error((*table, "'}'"))
            ts.take()
            ts.take()
        if keyword in _ONCE and members[keyword]:
            raise ParseError(
                first.span, f"{keyword!r} may occur only once in a {_ONCE[keyword]}", found=keyword
            )
        ts.take()
        members[keyword].append(table[keyword](ts, first, members))
        while ts.at(";"):
            ts.take()
    return members, ts.take()


def _idref(tok: Token) -> IdRef:
    return IdRef(tok.value, tok.span)


def _claim(members: dict, name: str, span: SourceSpan) -> None:
    """Record a top-level id of the context; a second declaration of it is an error."""
    first = members.setdefault("top-level ids", {}).setdefault(name, span)
    if first is not span:
        raise ParseError(
            span, f"duplicate top-level id {name!r} (first declared at {first})", found=name
        )


def _individual(ts: TokenStream, first: Token, members: dict) -> Individual:
    id_tok = ts.expect_kind(IDENT, "individual id")
    ts.expect(":")
    def_type = ts.expect_kind(IDENT, "definition type").value
    name_tok = ts.expect_kind(STRING, "display name string")
    individual = Individual(
        id=id_tok.value,
        display_name=name_tok.value,
        definition_type=def_type,
        span=first.through(name_tok),
    )
    _claim(members, individual.id, individual.span)
    return individual


def _root_definition(ts: TokenStream, first: Token, members: dict) -> RootDefinition:
    id_tok = ts.expect_kind(IDENT, "root definition id")
    ts.expect("{")
    parts, end = _block(ts, _ROOT_DEFINITION)
    # Every member but the constraints is required.
    missing = [
        keyword
        for keyword, values in parts.items()
        if keyword != "environmental-constraint" and not values
    ]
    if missing:
        raise ParseError(
            end.span,
            f"root definition {id_tok.value!r} is missing: {', '.join(missing)}",
            expected=tuple(missing),
        )
    _claim(members, id_tok.value, id_tok.span)
    return RootDefinition(
        id=id_tok.value,
        customers=tuple(ref for refs in parts["customer"] for ref in refs),
        actors=tuple(ref for refs in parts["actor"] for ref in refs),
        owner=parts["owner"][0],
        transformation=parts["transformation"][0],
        worldview=parts["worldview"][0],
        environmental_constraints=tuple(parts["environmental-constraint"]),
        span=first.through(end),
    )


def _idrefs(ts: TokenStream, first: Token, members: dict) -> list[IdRef]:
    """A customer or actor list: ids up to the first word of the next statement."""
    refs = [_idref(ts.expect_kind(IDENT, f"{first.value} id"))]
    while ts.current.kind == IDENT and ts.current.value not in _RD_WORDS:
        refs.append(_idref(ts.take()))
    return refs


def _owner(ts: TokenStream, first: Token, members: dict) -> IdRef:
    return _idref(ts.expect_kind(IDENT, "owner id"))


def _worldview(ts: TokenStream, first: Token, members: dict) -> str:
    return ts.expect_kind(STRING, "worldview string").value


def _transformation(ts: TokenStream, first: Token, members: dict) -> Transformation:
    statement = ts.expect_kind(STRING, "transformation statement string").value
    ts.expect("{")
    parts, end = _block(ts, _TRANSFORMATION)
    if not parts["subject"]:
        raise ParseError(end.span, "transformation block lacks a subject", expected=("subject",))
    subject_name, subject_type = parts["subject"][0]
    return Transformation(
        statement=statement,
        subject_name=subject_name,
        subject_type=subject_type,
        inputs=tuple(parts["input"]),
        outputs=tuple(parts["output"]),
        span=first.through(end),
    )


def _parameter(ts: TokenStream, first: Token, members: dict) -> tuple[str, str]:
    """A subject, input or output: its name and type."""
    what = "subject" if first.value == "subject" else "parameter"
    name = ts.expect_kind(IDENT, f"{what} name").value
    ts.expect(":")
    return name, ts.expect_kind(IDENT, f"{what} type").value


def _env_constraint(ts: TokenStream, first: Token, members: dict) -> EnvConstraint:
    id_tok = ts.expect_kind(IDENT, "constraint id")
    last = ts.expect_kind(STRING, "constraint text string")
    text = last.value
    kind = "require"
    expr = refines = None
    while True:
        if ts.current.kind == IDENT and ts.current.value in _CONSTRAINT_KINDS:
            kind = ts.take().value
            last = ts.expect_kind(STRING, "constraint expression string")
            try:
                expr = parse_expr_text(last.value, last.file, CONSTRAINT_DEPTH)
            except ParseError as exc:
                raise ParseError(
                    last.span,
                    f"bad constraint expression: {exc.message}",
                    expected=exc.expected,
                    found=exc.found,
                ) from exc
        elif ts.at("refines"):
            ts.take()
            last = ts.expect_kind(IDENT, "refined constraint id")
            refines = _idref(last)
        else:
            break
    return EnvConstraint(
        id=id_tok.value,
        text=text,
        expr=expr,
        kind=kind,
        refines=refines,
        span=first.through(last),
    )


def _conceptual_model(ts: TokenStream, first: Token, members: dict) -> ConceptualModel:
    rd_ref = _idref(ts.expect_kind(IDENT, "root definition id"))
    ts.expect("{")
    parts, end = _block(ts, _CONCEPTUAL_MODEL)
    return ConceptualModel(
        root_definition_id=rd_ref,
        activities=tuple(parts["activity"]),
        flows=tuple(parts["flow"]),
        monitors=tuple(parts["monitor"]),
        span=first.through(end),
    )


def _activity(ts: TokenStream, first: Token, members: dict) -> Activity:
    id_tok = ts.expect_kind(IDENT, "activity id")
    label = ts.expect_kind(STRING, "activity label string").value
    ts.expect("by")
    performer = ts.expect_kind(IDENT, "performer id")
    return Activity(id_tok.value, label, _idref(performer), first.through(performer))


def _flow(ts: TokenStream, first: Token, members: dict) -> Flow:
    source = ts.expect_kind(IDENT, "flow source activity id")
    ts.expect("->")
    target = ts.expect_kind(IDENT, "flow target activity id")
    return Flow(_idref(source), _idref(target), first.through(target))


def _monitor(ts: TokenStream, first: Token, members: dict) -> MonitorLink:
    id_tok = ts.expect_kind(IDENT, "monitor id")
    label = ts.expect_kind(STRING, "monitor label string").value
    ts.expect("controls")
    controls = [ts.expect_kind(IDENT, "controlled activity id")]
    while ts.at(","):
        ts.take()
        controls.append(ts.expect_kind(IDENT, "controlled activity id"))
    return MonitorLink(
        id_tok.value, label, tuple(map(_idref, controls)), first.through(controls[-1])
    )


# The statement tables, each in the order its block's errors list the keywords.
_CONTEXT: dict[str, _Statement] = {
    "individual": _individual,
    "root-definition": _root_definition,
    "conceptual-model": _conceptual_model,
}
_ROOT_DEFINITION: dict[str, _Statement] = {
    "customer": _idrefs,
    "actor": _idrefs,
    "owner": _owner,
    "transformation": _transformation,
    "worldview": _worldview,
    "environmental-constraint": _env_constraint,
}
_TRANSFORMATION: dict[str, _Statement] = dict.fromkeys(("subject", "input", "output"), _parameter)
_CONCEPTUAL_MODEL: dict[str, _Statement] = {
    "activity": _activity,
    "flow": _flow,
    "monitor": _monitor,
}
# The statements that set a single value, each to the block it may occur in once.
_ONCE = {
    "owner": "root definition",
    "transformation": "root definition",
    "worldview": "root definition",
    "subject": "transformation",
}
# A customer or actor list ends at an identifier that starts a root-definition keyword.
_RD_WORDS = frozenset(keyword.split("-")[0] for keyword in _ROOT_DEFINITION)


# ---------------------------------------------------------------------------
# Formatter


def format_ssm(ctx: SsmContext) -> str:
    """Canonical `.ssm` text; parse_ssm(format_ssm(ctx)) == ctx structurally."""
    out: list[str] = [f"context {ctx.name} {{"]
    ind = " " * 4

    for person in ctx.individuals:
        out.append(
            f"{ind}individual {person.id} : {person.definition_type} "
            f"{quote(person.display_name)}"
        )

    for rd in ctx.root_definitions:
        out.append(f"{ind}root-definition {rd.id} {{")
        body = ind * 2
        for keyword, refs in (("customer", rd.customers), ("actor", rd.actors)):
            # A later id that would end the list (see `_RD_WORDS`) starts a new statement.
            ids = (
                f";\n{body}{keyword} {ref.id}" if i and ref.id in _RD_WORDS else ref.id
                for i, ref in enumerate(refs)
            )
            out.append(f"{body}{keyword} " + " ".join(ids) + " ;")
        out.append(f"{body}owner {rd.owner.id} ;")
        tr = rd.transformation
        out.append(f"{body}transformation {quote(tr.statement)} {{")
        inner = ind * 3
        out.append(f"{inner}subject {tr.subject_name} : {tr.subject_type} ;")
        for name, type_name in tr.inputs:
            out.append(f"{inner}input {name} : {type_name} ;")
        for name, type_name in tr.outputs:
            out.append(f"{inner}output {name} : {type_name} ;")
        out.append(f"{body}}} ;")
        out.append(f"{body}worldview {quote(rd.worldview)} ;")
        for ec in rd.environmental_constraints:
            line = f"{body}environmental-constraint {ec.id} {quote(ec.text)}"
            if ec.expr is not None:
                line += f" {ec.kind} {quote(expr_to_text(ec.expr))}"
            if ec.refines is not None:
                line += f" refines {ec.refines.id}"
            out.append(line + " ;")
        out.append(f"{ind}}}")

    for cm in ctx.conceptual_models:
        out.append(f"{ind}conceptual-model {cm.root_definition_id.id} {{")
        body = ind * 2
        for act in cm.activities:
            out.append(
                f"{body}activity {act.id} {quote(act.label)} by {act.performed_by.id} ;"
            )
        for flow in cm.flows:
            out.append(f"{body}flow {flow.source.id} -> {flow.target.id} ;")
        for mon in cm.monitors:
            targets = ", ".join(c.id for c in mon.controls)
            out.append(f"{body}monitor {mon.id} {quote(mon.label)} controls {targets} ;")
        out.append(f"{ind}}}")

    out.append("}")
    return "\n".join(out) + "\n"
