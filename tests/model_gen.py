"""Seeded random generator for subset models.

Used by the round-trip property tests: every element kind and every
relationship kind appears somewhere in a few hundred generated models.
The generator stays inside what the canonical printer can represent:
no `*/` or newlines in doc text.  A negative number is `Unary('-', ...)`,
the only form `Lit` admits.  Names are drawn from small pools, so about
one draw in five gives two siblings one name, and the `Element`
constructor refuses it; `draw` turns that refusal into None.
"""
from __future__ import annotations

import random
from dataclasses import replace

from ssm2sysml.exprs import Binary, EnumLit, Expr, Lit, Ref, Unary
from ssm2sysml.sysml_ast import (
    Assignment,
    Element,
    ElementKind,
    FHasMeta,
    FKind,
    FMetaEq,
    FTyped,
    FilterExpr,
    Multiplicity,
    RelKind,
    Relationship,
    Succession,
)

PLAIN_NAMES = (
    "alpha", "beta", "gamma", "delta", "widget", "sensor", "pump",
    "Kettle", "flowRate", "x1", "y2", "Zeta", "core", "aux",
)
QUOTED_NAMES = (
    "License Allocation", "first", "then", "two words", "Dotted.Name",
    "weird-name", "Ünit", "a'b", "line\nbreak", "tab\there", "back\\slash",
)
TYPE_NAMES = ("Widget", "Sensor", "Pump", "Resource", "Agent")
CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


def pick_name(rng: random.Random) -> str:
    pool = PLAIN_NAMES if rng.random() < 0.8 else QUOTED_NAMES
    return rng.choice(pool)


def pick_qname(rng: random.Random) -> tuple[str, ...]:
    return tuple(pick_name(rng) for _ in range(rng.randint(1, 2)))


def pick_doc(rng: random.Random) -> str:
    words = rng.sample(["the", "unit", "holds", "state", "until", "reset"], 3)
    return " ".join(words)


# --- expressions (mirrors the expression grammar levels) -------------------


def gen_expr(rng: random.Random, depth: int = 2) -> Expr:
    return _gen_or(rng, depth)


def _gen_or(rng: random.Random, depth: int) -> Expr:
    if depth > 0 and rng.random() < 0.3:
        return Binary("or", _gen_and(rng, depth - 1), _gen_and(rng, depth - 1))
    return _gen_and(rng, depth)


def _gen_and(rng: random.Random, depth: int) -> Expr:
    if depth > 0 and rng.random() < 0.3:
        return Binary("and", _gen_not(rng, depth - 1), _gen_not(rng, depth - 1))
    return _gen_not(rng, depth)


def _gen_not(rng: random.Random, depth: int) -> Expr:
    if depth > 0 and rng.random() < 0.2:
        return Unary("not", _gen_not(rng, depth - 1))
    return _gen_cmp(rng, depth)


def _gen_cmp(rng: random.Random, depth: int) -> Expr:
    if depth > 0 and rng.random() < 0.4:
        # Either operand may be a comparison again, which the printer parenthesizes.
        return Binary(rng.choice(CMP_OPS), _gen_cmp(rng, depth - 1), _gen_cmp(rng, depth - 1))
    return gen_operand(rng, depth)


def gen_operand(rng: random.Random, depth: int = 1) -> Expr:
    if depth > 0 and rng.random() < 0.3:
        op = rng.choice(["+", "-", "*", "/"])
        return Binary(op, gen_operand(rng, depth - 1), _gen_unary(rng, depth - 1))
    return _gen_unary(rng, depth)


def _gen_unary(rng: random.Random, depth: int) -> Expr:
    if depth > 0 and rng.random() < 0.15:
        return Unary("-", _gen_unary(rng, depth - 1))
    return _gen_atom(rng)


def _gen_atom(rng: random.Random) -> Expr:
    roll = rng.random()
    if roll < 0.25:
        return Lit(rng.randint(0, 999))
    if roll < 0.35:
        return Lit(round(rng.uniform(0, 100), 2))
    if roll < 0.4:  # 1e-30 to 1e+31, so that many a repr has an exponent: 1e-05, 1.5e+20
        return Lit(round(rng.uniform(1, 10), rng.randint(0, 3)) * 10.0 ** rng.randint(-30, 30))
    if roll < 0.55:
        return Lit(rng.choice(["plain", 'with "quotes"', "tab\tand\nnewline", "back\\slash"]))
    if roll < 0.65:
        return Lit(rng.choice([True, False]))
    if roll < 0.85:
        return Ref(tuple(rng.choice(PLAIN_NAMES) for _ in range(rng.randint(1, 3))))
    return EnumLit((rng.choice(TYPE_NAMES),), rng.choice(PLAIN_NAMES))


# --- view filters -----------------------------------------------------------


def gen_filter(rng: random.Random, depth: int = 2) -> FilterExpr:
    if depth > 0:
        roll = rng.random()
        if roll < 0.25:
            return Binary("and", gen_filter(rng, depth - 1), gen_filter(rng, depth - 1))
        if roll < 0.5:
            return Binary("or", gen_filter(rng, depth - 1), gen_filter(rng, depth - 1))
        if roll < 0.65:
            return Unary("not", gen_filter(rng, depth - 1))
    roll = rng.random()
    if roll < 0.25:
        return FHasMeta(pick_qname(rng))
    if roll < 0.5:
        return FMetaEq(pick_qname(rng), rng.choice(PLAIN_NAMES), gen_operand(rng, 1))
    if roll < 0.75:
        return FTyped((rng.choice(TYPE_NAMES),))
    return FKind(rng.choice([k.value for k in ElementKind]))


# --- elements ----------------------------------------------------------------


def _inline_rels(rng: random.Random, allow_binding: bool) -> tuple[Relationship, ...]:
    rels: list[Relationship] = []
    for kind in (RelKind.TYPING, RelKind.SUBSETS, RelKind.REDEFINES):
        if rng.random() < 0.3:
            rels.append(Relationship(kind, pick_qname(rng)))
    if allow_binding and rng.random() < 0.15:
        rels.append(Relationship(RelKind.BINDING, pick_qname(rng)))
    return tuple(rels)


def _statement_rels(rng: random.Random) -> tuple[Relationship, ...]:
    rels: list[Relationship] = []
    for kind in (
        RelKind.REFINES,
        RelKind.FRAMES,
        RelKind.SATISFIES,
        RelKind.EXPOSES,
        RelKind.REFERENCES,
    ):
        if rng.random() < 0.12:
            rels.append(Relationship(kind, pick_qname(rng)))
    return tuple(rels)


def _multiplicity(rng: random.Random) -> Multiplicity | None:
    if rng.random() > 0.2:
        return None
    lower = rng.randint(0, 3)
    roll = rng.random()
    if roll < 0.33:
        return Multiplicity(lower, None)
    if roll < 0.66:
        return Multiplicity(lower, lower)
    return Multiplicity(lower, lower + rng.randint(1, 4))


def gen_metadata_app(rng: random.Random) -> Element:
    bindings = tuple(
        (rng.choice(PLAIN_NAMES), gen_expr(rng, 1)) for _ in range(rng.randint(0, 2))
    )
    return Element(ElementKind.METADATA, meta_def=pick_qname(rng), bindings=bindings)


def gen_transition(rng: random.Random) -> Element:
    return Element(
        ElementKind.TRANSITION,
        name=pick_name(rng) if rng.random() < 0.5 else None,
        source=pick_name(rng),
        target=pick_name(rng),
        trigger=pick_qname(rng) if rng.random() < 0.5 else None,
        guard=gen_expr(rng, 1) if rng.random() < 0.5 else None,
        effect=pick_qname(rng) if rng.random() < 0.4 else None,
    )


def gen_constraint(rng: random.Random) -> Element:
    return Element(
        ElementKind.CONSTRAINT,
        name=pick_name(rng) if rng.random() < 0.3 else None,
        constraint_kind=rng.choice([None, "require", "assume", "assert"]),
        constraint_expr=gen_expr(rng),
    )


def gen_action(rng: random.Random, depth: int) -> Element:
    roll = rng.random()
    if roll < 0.2:
        return Element(
            ElementKind.ACTION,
            flavor=rng.choice(["send", "accept"]),
            signal=pick_qname(rng),
        )
    assignments = tuple(
        Assignment(pick_qname(rng), gen_expr(rng, 1))
        for _ in range(rng.randint(0, 2))
    )
    flavor = "decide" if roll > 0.9 else None
    return Element(
        ElementKind.ACTION,
        name=pick_name(rng),
        is_perform=flavor is None and rng.random() < 0.4,
        flavor=flavor,
        performer=pick_qname(rng) if rng.random() < 0.3 else None,
        doc=pick_doc(rng) if rng.random() < 0.3 else None,
        assignments=assignments,
        children=_gen_children(rng, depth, (ElementKind.ACTION, ElementKind.COMMENT)),
        successions=_gen_successions(rng),
    )


def gen_state(rng: random.Random, depth: int) -> Element:
    return Element(
        ElementKind.STATE,
        name=pick_name(rng),
        entry_action=pick_qname(rng) if rng.random() < 0.3 else None,
        do_action=pick_qname(rng) if rng.random() < 0.3 else None,
        children=_gen_children(
            rng, depth, (ElementKind.STATE, ElementKind.TRANSITION, ElementKind.ACTION)
        ),
    )


def _gen_successions(rng: random.Random) -> tuple[Succession, ...]:
    return tuple(
        Succession(pick_name(rng), pick_name(rng)) for _ in range(rng.randint(0, 2))
    )


_SIMPLE_USAGES = (
    ElementKind.ATTRIBUTE,
    ElementKind.PART,
    ElementKind.ITEM,
    ElementKind.INDIVIDUAL,
)

_DEF_POOL = (
    ElementKind.METADATA_DEF,
    ElementKind.ENUM_DEF,
    ElementKind.ATTRIBUTE_DEF,
    ElementKind.INDIVIDUAL_DEF,
    ElementKind.PART_DEF,
    ElementKind.ITEM_DEF,
    ElementKind.REQUIREMENT_DEF,
    ElementKind.CONCERN_DEF,
    ElementKind.VIEWPOINT_DEF,
    ElementKind.USE_CASE_DEF,
)

_MEMBER_POOL = _DEF_POOL + _SIMPLE_USAGES + (
    ElementKind.REQUIREMENT,
    ElementKind.CONCERN,
    ElementKind.STAKEHOLDER,
    ElementKind.VIEWPOINT,
    ElementKind.VIEW,
    ElementKind.USE_CASE,
    ElementKind.ACTOR,
    ElementKind.SUBJECT,
    ElementKind.ACTION,
    ElementKind.STATE,
    ElementKind.TRANSITION,
    ElementKind.COMMENT,
    ElementKind.METADATA,
    ElementKind.CONSTRAINT,
    ElementKind.PACKAGE,
)


def _gen_children(
    rng: random.Random, depth: int, pool: tuple[ElementKind, ...] = _MEMBER_POOL
) -> tuple[Element, ...]:
    if depth <= 0:
        return ()
    return tuple(
        gen_element(rng, depth - 1, rng.choice(pool))
        for _ in range(rng.randint(0, 2))
    )


def gen_element(rng: random.Random, depth: int, kind: ElementKind) -> Element:
    if kind is ElementKind.METADATA:
        return gen_metadata_app(rng)
    if kind is ElementKind.TRANSITION:
        return gen_transition(rng)
    if kind is ElementKind.CONSTRAINT:
        return gen_constraint(rng)
    if kind is ElementKind.ACTION:
        return gen_action(rng, depth)
    if kind is ElementKind.STATE:
        return gen_state(rng, depth)
    if kind is ElementKind.COMMENT:
        return Element(ElementKind.COMMENT, doc=pick_doc(rng))
    if kind is ElementKind.ENUM_DEF:
        literals = tuple(
            dict.fromkeys(pick_name(rng) for _ in range(rng.randint(1, 4)))
        )
        return Element(ElementKind.ENUM_DEF, name=pick_name(rng), enum_literals=literals)
    if kind is ElementKind.PACKAGE:
        return Element(
            ElementKind.PACKAGE, name=pick_name(rng), children=_gen_children(rng, depth)
        )

    name: str | None = pick_name(rng)
    if kind is ElementKind.SUBJECT and rng.random() < 0.6:
        name = None
    direction = None
    is_ref = False
    value = None
    if kind in (ElementKind.ITEM, ElementKind.ATTRIBUTE) and rng.random() < 0.3:
        direction = rng.choice(["in", "out"])
    if kind in (ElementKind.ITEM, ElementKind.PART) and rng.random() < 0.3:
        is_ref = True
    if kind is ElementKind.ATTRIBUTE and rng.random() < 0.4:
        value = gen_expr(rng, 1)
    allow_binding = kind in (ElementKind.PART, ElementKind.ITEM) and value is None
    children = _gen_children(rng, depth) if rng.random() < 0.6 else ()
    if kind is ElementKind.USE_CASE and rng.random() < 0.5:
        children += (
            Element(
                ElementKind.REQUIREMENT,
                is_objective=True,
                relationships=(Relationship(RelKind.REFERENCES, pick_qname(rng)),),
            ),
        )
    return Element(
        kind,
        name=name,
        relationships=_inline_rels(rng, allow_binding) + _statement_rels(rng),
        multiplicity=_multiplicity(rng),
        direction=direction,
        is_ref=is_ref,
        value=value,
        doc=pick_doc(rng) if rng.random() < 0.25 else None,
        filter=gen_filter(rng) if kind is ElementKind.VIEW and rng.random() < 0.6 else None,
        children=children,
        successions=_gen_successions(rng) if kind is ElementKind.USE_CASE else (),
    )


def package(name: str, *children: Element, **kwargs) -> Element:
    return Element(ElementKind.PACKAGE, name=name, children=tuple(children), **kwargs)


def chain(depth: int, **leaf) -> Element:
    """Package P holding `depth` parts named `a`, each nested in the one before; the
    innermost takes the fields `leaf`."""
    inner = Element(ElementKind.PART, name="a", **leaf)
    for _ in range(depth - 1):
        inner = Element(ElementKind.PART, name="a", children=(inner,))
    return package("P", inner)


def gen_model(seed: int) -> Element:
    rng = random.Random(seed)
    members = tuple(
        gen_element(rng, 3, rng.choice(_MEMBER_POOL))
        for _ in range(rng.randint(1, 6))
    )
    return Element(ElementKind.PACKAGE, name=pick_name(rng), children=members)


def draw(seed: int) -> Element | None:
    """`gen_model(seed)`, or None where the draw gives two siblings one name, which
    the `Element` constructor refuses with `duplicate member name`."""
    try:
        return gen_model(seed)
    except ValueError as exc:
        if not str(exc).startswith("duplicate member name"):
            raise
        return None


def gen_shared_model(seed: int) -> Element | None:
    """`gen_model(seed)` with one named member also placed inside a sibling that
    has a body, so one object sits at two positions; None where no member can.
    Raises ValueError where the draw, or the sibling, already holds that name."""
    model = gen_model(seed)
    rng = random.Random(seed)
    named = [child for child in model.children if child.name]
    hosts = [i for i, host in enumerate(model.children) if host.children]
    pairs = [(child, i) for child in named for i in hosts if model.children[i] is not child]
    if not pairs:
        return None
    child, i = rng.choice(pairs)
    members = list(model.children)
    members[i] = replace(members[i], children=members[i].children + (child,))
    return replace(model, children=tuple(members))


def kitchen_sink() -> Element:
    """One deterministic model touching every kind and relationship; a member whose
    drawn name an earlier member has is renamed `name_i`, after its index."""
    rng = random.Random(0xC0FFEE)
    members: list[Element] = []
    for i, kind in enumerate(_MEMBER_POOL):
        member = gen_element(rng, 2, kind)
        if member.name and any(member.name == other.name for other in members):
            member = replace(member, name=f"{member.name}_{i}")
        members.append(member)
    members.append(
        Element(
            ElementKind.VIEW,
            name="everything",
            relationships=(
                Relationship(RelKind.SATISFIES, ("vp",)),
                Relationship(RelKind.EXPOSES, ("core",)),
            ),
            filter=Binary("and", FHasMeta(("M",)), Unary("not", FKind("comment"))),
        )
    )
    return Element(ElementKind.PACKAGE, name="Sink", children=tuple(members))
