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

`#` starts a line comment.  Semicolons between block members are
optional on input; the formatter always writes them.
"""
from __future__ import annotations

from .errors import ParseError
from .exprs import Expr, expr_to_text, parse_expr_text
from .lexing import CONSTRAINT_DEPTH, EOF, IDENT, STRING, Token, TokenStream, lex, quote
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
    ts = TokenStream(lex(source, file_name, "ssm"))
    ctx = _parse_context(ts, file_name)
    ts.expect_kind(EOF, "end of input")
    return ctx


def _ident(ts: TokenStream, what: str) -> Token:
    return ts.expect_kind(IDENT, what)


def _string(ts: TokenStream, what: str) -> Token:
    return ts.expect_kind(STRING, what)


def _hyphenated(ts: TokenStream, first: str, second: str) -> bool:
    """True if the stream sits on e.g. `root - definition` (lexed as 3 tokens)."""
    return (
        ts.at(first)
        and ts.peek(1).kind == "punct"
        and ts.peek(1).value == "-"
        and ts.peek(2).kind == IDENT
        and ts.peek(2).value == second
    )


def _take_hyphenated(ts: TokenStream) -> Token:
    start = ts.take()
    ts.take()
    ts.take()
    return start


def _skip_semi(ts: TokenStream) -> None:
    while ts.at(";"):
        ts.take()


def _parse_context(ts: TokenStream, file_name: str) -> SsmContext:
    start = ts.expect("context").span
    name = _ident(ts, "context name").value
    ts.expect("{")

    individuals: list[Individual] = []
    root_definitions: list[RootDefinition] = []
    conceptual_models: list[ConceptualModel] = []
    top_ids: dict[str, SourceSpan] = {}

    def claim(name: str, span: SourceSpan) -> None:
        if name in top_ids:
            raise ParseError(
                span,
                f"duplicate top-level id {name!r} (first declared at {top_ids[name]})",
                found=name,
            )
        top_ids[name] = span

    while not ts.at("}"):
        if ts.at("individual"):
            ind = _parse_individual(ts)
            claim(ind.id, ind.span)
            individuals.append(ind)
        elif _hyphenated(ts, "root", "definition"):
            rd, id_tok = _parse_root_definition(ts)
            claim(id_tok.value, id_tok.span)
            root_definitions.append(rd)
        elif _hyphenated(ts, "conceptual", "model"):
            conceptual_models.append(_parse_conceptual_model(ts))
        else:
            raise ts.error(
                ("individual", "root-definition", "conceptual-model", "'}'")
            )
    end = ts.take().span
    return SsmContext(
        name=name,
        file=file_name,
        individuals=tuple(individuals),
        root_definitions=tuple(root_definitions),
        conceptual_models=tuple(conceptual_models),
        span=start.to(end),
    )


def _parse_individual(ts: TokenStream) -> Individual:
    start = ts.take().span
    id_tok = _ident(ts, "individual id")
    ts.expect(":")
    def_type = _ident(ts, "definition type").value
    name_tok = _string(ts, "display name string")
    _skip_semi(ts)
    return Individual(
        id=id_tok.value,
        display_name=name_tok.value,
        definition_type=def_type,
        span=start.to(name_tok.span),
    )


def _idref(ts: TokenStream, what: str) -> IdRef:
    tok = _ident(ts, what)
    return IdRef(tok.value, tok.span)


def _parse_root_definition(ts: TokenStream) -> tuple[RootDefinition, Token]:
    start = _take_hyphenated(ts).span
    id_tok = _ident(ts, "root definition id")
    ts.expect("{")

    customers: list[IdRef] = []
    actors: list[IdRef] = []
    owner: IdRef | None = None
    transformation: Transformation | None = None
    worldview: str | None = None
    constraints: list[EnvConstraint] = []

    while not ts.at("}"):
        if ts.at("customer"):
            ts.take()
            customers.append(_idref(ts, "customer id"))
            while ts.current.kind == IDENT and not _at_rd_keyword(ts):
                customers.append(_idref(ts, "customer id"))
        elif ts.at("actor"):
            ts.take()
            actors.append(_idref(ts, "actor id"))
            while ts.current.kind == IDENT and not _at_rd_keyword(ts):
                actors.append(_idref(ts, "actor id"))
        elif ts.at("owner"):
            ts.take()
            owner = _idref(ts, "owner id")
        elif ts.at("transformation"):
            transformation = _parse_transformation(ts)
        elif ts.at("worldview"):
            ts.take()
            worldview = _string(ts, "worldview string").value
        elif _hyphenated(ts, "environmental", "constraint"):
            constraints.append(_parse_env_constraint(ts))
        else:
            raise ts.error(
                (
                    "customer",
                    "actor",
                    "owner",
                    "transformation",
                    "worldview",
                    "environmental-constraint",
                    "'}'",
                )
            )
        _skip_semi(ts)

    end = ts.take().span
    missing = [
        label
        for label, value in (
            ("customer", customers),
            ("actor", actors),
            ("owner", owner),
            ("transformation", transformation),
            ("worldview", worldview),
        )
        if not value
    ]
    if missing:
        raise ParseError(
            end,
            f"root definition {id_tok.value!r} is missing: {', '.join(missing)}",
            expected=tuple(missing),
        )
    assert owner is not None and transformation is not None and worldview is not None
    rd = RootDefinition(
        id=id_tok.value,
        customers=tuple(customers),
        actors=tuple(actors),
        owner=owner,
        transformation=transformation,
        worldview=worldview,
        environmental_constraints=tuple(constraints),
        span=start.to(end),
    )
    return rd, id_tok


_RD_KEYWORDS = {
    "customer",
    "actor",
    "owner",
    "transformation",
    "worldview",
    "environmental",
}


def _at_rd_keyword(ts: TokenStream) -> bool:
    return ts.current.kind == IDENT and ts.current.value in _RD_KEYWORDS


def _parse_transformation(ts: TokenStream) -> Transformation:
    start = ts.take().span
    statement = _string(ts, "transformation statement string").value
    ts.expect("{")
    subject: tuple[str, str] | None = None
    inputs: list[tuple[str, str]] = []
    outputs: list[tuple[str, str]] = []
    while not ts.at("}"):
        if ts.at("subject"):
            ts.take()
            name = _ident(ts, "subject name").value
            ts.expect(":")
            subject = (name, _ident(ts, "subject type").value)
        elif ts.at("input") or ts.at("output"):
            bucket = inputs if ts.take().value == "input" else outputs
            name = _ident(ts, "parameter name").value
            ts.expect(":")
            bucket.append((name, _ident(ts, "parameter type").value))
        else:
            raise ts.error(("subject", "input", "output", "'}'"))
        _skip_semi(ts)
    end = ts.take().span
    if subject is None:
        raise ParseError(end, "transformation block lacks a subject", expected=("subject",))
    return Transformation(
        statement=statement,
        subject_name=subject[0],
        subject_type=subject[1],
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        span=start.to(end),
    )


def _parse_env_constraint(ts: TokenStream) -> EnvConstraint:
    start = _take_hyphenated(ts).span
    id_tok = _ident(ts, "constraint id")
    text_tok = _string(ts, "constraint text string")
    end = text_tok.span

    kind = "require"
    expr: Expr | None = None
    refines: IdRef | None = None
    while True:
        if ts.current.kind == IDENT and ts.current.value in _CONSTRAINT_KINDS:
            kind = ts.take().value
            expr_tok = _string(ts, "constraint expression string")
            try:
                expr = parse_expr_text(expr_tok.value, expr_tok.span.file, CONSTRAINT_DEPTH)
            except ParseError as exc:
                raise ParseError(
                    expr_tok.span,
                    f"bad constraint expression: {exc.message}",
                    expected=exc.expected,
                    found=exc.found,
                ) from exc
            end = expr_tok.span
        elif ts.at("refines"):
            ts.take()
            refines = _idref(ts, "refined constraint id")
            end = refines.span or end
        else:
            break
    return EnvConstraint(
        id=id_tok.value,
        text=text_tok.value,
        expr=expr,
        kind=kind,
        refines=refines,
        span=start.to(end),
    )


def _parse_conceptual_model(ts: TokenStream) -> ConceptualModel:
    start = _take_hyphenated(ts).span
    rd_ref = _idref(ts, "root definition id")
    ts.expect("{")
    activities: list[Activity] = []
    flows: list[Flow] = []
    monitors: list[MonitorLink] = []
    while not ts.at("}"):
        if ts.at("activity"):
            a_start = ts.take().span
            id_tok = _ident(ts, "activity id")
            label = _string(ts, "activity label string").value
            ts.expect("by")
            performer = _idref(ts, "performer id")
            activities.append(
                Activity(id_tok.value, label, performer, a_start.to(performer.span or a_start))
            )
        elif ts.at("flow"):
            f_start = ts.take().span
            source = _idref(ts, "flow source activity id")
            ts.expect("->")
            target = _idref(ts, "flow target activity id")
            flows.append(Flow(source, target, f_start.to(target.span or f_start)))
        elif ts.at("monitor"):
            m_start = ts.take().span
            id_tok = _ident(ts, "monitor id")
            label = _string(ts, "monitor label string").value
            ts.expect("controls")
            controls = [_idref(ts, "controlled activity id")]
            while ts.at(","):
                ts.take()
                controls.append(_idref(ts, "controlled activity id"))
            monitors.append(
                MonitorLink(
                    id_tok.value,
                    label,
                    tuple(controls),
                    m_start.to(controls[-1].span or m_start),
                )
            )
        else:
            raise ts.error(("activity", "flow", "monitor", "'}'"))
        _skip_semi(ts)
    end = ts.take().span
    return ConceptualModel(
        root_definition_id=rd_ref,
        activities=tuple(activities),
        flows=tuple(flows),
        monitors=tuple(monitors),
        span=start.to(end),
    )


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
        out.append(f"{body}customer " + " ".join(c.id for c in rd.customers) + " ;")
        out.append(f"{body}actor " + " ".join(a.id for a in rd.actors) + " ;")
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
