"""Map a validated SsmContext onto a SysML v2 package.

The reference architecture is fixed: individuals become individual
occurrences typed by per-type definitions; environmental constraints
become requirement definitions typed by a shared Environment-tagged
definition; the owner and customers become stakeholders of concerns;
the worldview becomes rationale metadata on a viewpoint; and each root
definition's transformation becomes a use case hosted in an enclosing
part together with its subject.

Mapping runs in two passes.  `_plan` allocates every member name the
mapper writes (in the package, each transformation part, each use case
and each concern) in one table keyed by (namespace, role, source id),
in emitted order; so the table's package slots, (role, source id), are
the one statement of the package's layout.  The building pass writes
each slot with its role's builder, taking every name and every reference
from the table, and reads the report's provenance from what it built.
Collision rule: in each namespace the member written first keeps its
name and later ones get `_2`, `_3`, ...  A nested namespace first
reserves the names written inside it as references to elements outside
it, so no member hides such a target; the package reserves `String`.
`validate_context` refuses a repeated declaration (SSM-004).

`map_context` is pure: equal inputs produce structurally equal packages
and byte-identical emitted text.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .diagnostics import COMPILE_CODES, Diagnostic
from .errors import MappingError
from .exprs import EnumLit, Lit
from .source import SourceSpan
from .ssm_model import (
    CatwoeRole,
    ConceptualModel,
    EnvConstraint,
    Individual,
    RootDefinition,
    SsmContext,
    validate_context,
)
from .sysml_ast import (
    CATWOE_DEF,
    RATIONALE_DEF,
    Element,
    ElementKind,
    RelKind,
    Relationship,
    Succession,
    iter_walk,
    qname_text,
)

CATWOE_ENUM = "CatwoeElement"
# Names of the scaffolding written around the source's own elements.  They
# enter the name table like any member, at the place they are written.
OWNER_CONCERN_DEF = "OwnerConcern"
CUSTOMER_CONCERN_DEF = "CustomerConcern"
VIEWPOINT_DEF = "ResourceAllocation"
TRANSFORMATION_DEF = "CATWOE_Transformation"
ENVIRONMENT_DEF = "EnvironmentalConstraints"
TRANSFORMATION_PART = "transformationSystem"
VIEWPOINT_NAME = "licenseManagement"
VIEW_NAME = "License Allocation"
OWNER_CONCERN_NAME = "resources"
CUSTOMER_CONCERN_NAME = "customerConcern"


@dataclass(frozen=True)
class MappingOptions:
    """How to map; the scaffolding names are the module's constants."""

    # Root-definition ids whose subject is modelled with a state machine
    # (idle -> transformed on a completion signal) in addition to the
    # plain in/out reference usages.
    state_pattern: frozenset[str] = frozenset()


DEFAULT_OPTIONS = MappingOptions()


@dataclass(frozen=True)
class ProvenanceEntry:
    """Where one emitted element came from, and which role it realizes."""

    element_path: str
    span: SourceSpan | None
    role: CatwoeRole | None

    def to_json(self) -> dict:
        return {
            "element": self.element_path,
            "file": self.span.file if self.span else None,
            "line": self.span.start_line if self.span else None,
            "col": self.span.start_col if self.span else None,
            "role": self.role.label if self.role else None,
        }


@dataclass(frozen=True)
class MappingReport:
    element_provenance: tuple[ProvenanceEntry, ...]
    warnings: tuple[Diagnostic, ...]

    def to_json(self) -> dict:
        return {
            "provenance": [p.to_json() for p in self.element_provenance],
            "warnings": [w.to_json() for w in self.warnings],
        }


# ---------------------------------------------------------------------------
# Small builders


def catwoe_tag(role: CatwoeRole) -> Element:
    """`@CATWOE { element = CatwoeElement::<Role>; }`"""
    return Element(
        ElementKind.METADATA,
        meta_def=(CATWOE_DEF,),
        bindings=(("element", EnumLit((CATWOE_ENUM,), role.label)),),
    )


def rationale_tag(text: str) -> Element:
    return Element(
        ElementKind.METADATA,
        meta_def=(RATIONALE_DEF,),
        bindings=(("text", Lit(text)),),
    )


def _typed_attribute(name: str, type_name: str) -> Element:
    return Element(ElementKind.ATTRIBUTE, name=name, relationships=_typing(type_name))


def _scaffold(wanted: str, name: str) -> Element:
    """The scaffolding definition named `wanted` by its constant, written as `name`."""
    kind, child = {
        CATWOE_ENUM: (ElementKind.ENUM_DEF, None),
        CATWOE_DEF: (ElementKind.METADATA_DEF, lambda: _typed_attribute("element", CATWOE_ENUM)),
        RATIONALE_DEF: (ElementKind.METADATA_DEF, lambda: _typed_attribute("text", "String")),
        ENVIRONMENT_DEF: (ElementKind.REQUIREMENT_DEF, lambda: catwoe_tag(CatwoeRole.ENVIRONMENT)),
        OWNER_CONCERN_DEF: (ElementKind.CONCERN_DEF, None),
        CUSTOMER_CONCERN_DEF: (ElementKind.CONCERN_DEF, None),
        VIEWPOINT_DEF: (ElementKind.VIEWPOINT_DEF, lambda: catwoe_tag(CatwoeRole.WORLDVIEW)),
        TRANSFORMATION_DEF: (ElementKind.USE_CASE_DEF, None),
    }[wanted]
    literals = tuple(role.label for role in CatwoeRole) if wanted == CATWOE_ENUM else ()
    return Element(kind, name=name, enum_literals=literals, children=(child(),) if child else ())


def _typing(target: str) -> tuple[Relationship, ...]:
    return (Relationship(RelKind.TYPING, (target,)),)


def _subsets(*path: str) -> tuple[Relationship, ...]:
    return (Relationship(RelKind.SUBSETS, tuple(path)),)


def individual_roles(ctx: SsmContext) -> dict[str, set[CatwoeRole]]:
    """Which roles each individual fills, across all root definitions."""
    roles: dict[str, set[CatwoeRole]] = {}
    for rd in ctx.root_definitions:
        for refs, role in (
            (rd.customers, CatwoeRole.CUSTOMER),
            (rd.actors, CatwoeRole.ACTOR),
            ((rd.owner,), CatwoeRole.OWNER),
        ):
            for ref in refs:
                roles.setdefault(ref.id, set()).add(role)
    return roles


def _concerns(rd: RootDefinition):
    """The owner's and the customers' concerns: label -> (role, definition, individuals)."""
    return {
        "owner": (CatwoeRole.OWNER, OWNER_CONCERN_DEF, (rd.owner,)),
        "customer": (CatwoeRole.CUSTOMER, CUSTOMER_CONCERN_DEF, rd.customers),
    }


def _type_kinds(ctx: SsmContext) -> dict[str, ElementKind]:
    """Each subject/input/output type's definition kind, taken from its first use."""
    kinds: dict[str, ElementKind] = {}
    for rd in ctx.root_definitions:
        tr = rd.transformation
        kinds.setdefault(tr.subject_type, ElementKind.PART_DEF)
        for _, type_name in tr.inputs + tr.outputs:
            kinds.setdefault(type_name, ElementKind.ITEM_DEF)
    return kinds


# ---------------------------------------------------------------------------
# Planning pass: the name table

_PACKAGE: tuple = ()  # a namespace key; the others are (kind, root-definition id)
_TAGS = (CATWOE_ENUM, CATWOE_DEF)  # what a CATWOE tag refers to


class _Names:
    """Every member name, by (namespace, role, source id); unique per namespace."""

    def __init__(self) -> None:
        self.planned: dict[tuple, str] = {}  # in allocation order
        self.taken: dict[tuple, set[str]] = {}

    def reserve(self, names, ns: tuple = _PACKAGE) -> None:
        self.taken.setdefault(ns, set()).update(names)

    def add(self, role: str, key, wanted: str, ns: tuple = _PACKAGE) -> str:
        """Allocate `wanted` in `ns` under the collision rule; each key is added once."""
        taken = self.taken.setdefault(ns, set())
        name, n = wanted, 1
        while name in taken:
            n += 1
            name = f"{wanted}_{n}"
        taken.add(name)
        self.planned[ns, role, key] = name
        return name

    def __call__(self, role: str, key, ns: tuple = _PACKAGE) -> str:
        return self.planned[ns, role, key]


def _plan(
    ctx: SsmContext,
    kinds: dict[str, ElementKind],
    models: dict[str, ConceptualModel],
    orders: dict[str, list[str]],
) -> _Names:
    """Allocate every member name, namespace by namespace, in emitted order."""
    names = _Names()
    add = names.add
    rds = ctx.root_definitions
    names.reserve(("String",))
    for scaffold in (CATWOE_ENUM, CATWOE_DEF, RATIONALE_DEF):
        add("scaffold", scaffold, scaffold)
    for def_type in dict.fromkeys(ind.definition_type for ind in ctx.individuals):
        add("individual def", def_type, def_type)
    for ind in ctx.individuals:
        add("individual", ind.id, ind.id)
    # Part defs, then item defs, each in first-use order.
    for type_name in sorted(kinds, key=lambda t: kinds[t] is ElementKind.ITEM_DEF):
        add("type", type_name, type_name)
    for type_name in kinds:
        add("usage", type_name, type_name[:1].lower() + type_name[1:])
    if not rds:
        return names
    suffix = {rd.id: f"_{rd.id}" if len(rds) > 1 else "" for rd in rds}
    add("scaffold", ENVIRONMENT_DEF, ENVIRONMENT_DEF)
    for rd in rds:
        for ec in rd.environmental_constraints:
            add("ec", (rd.id, ec.id), ec.id)
    add("scaffold", OWNER_CONCERN_DEF, OWNER_CONCERN_DEF)
    add("scaffold", CUSTOMER_CONCERN_DEF, CUSTOMER_CONCERN_DEF)
    for rd in rds:
        add("owner concern", rd.id, OWNER_CONCERN_NAME + suffix[rd.id])
        add("customer concern", rd.id, CUSTOMER_CONCERN_NAME + suffix[rd.id])
    add("scaffold", VIEWPOINT_DEF, VIEWPOINT_DEF)
    for rd in rds:
        add("viewpoint", rd.id, VIEWPOINT_NAME + suffix[rd.id])
    for rd in rds:
        add("view", rd.id, VIEW_NAME + (f" {rd.id}" if suffix[rd.id] else ""))
    add("scaffold", TRANSFORMATION_DEF, TRANSFORMATION_DEF)
    for rd in rds:
        uc_def = rd.id[:1].upper() + rd.id[1:]
        add("use case def", rd.id, uc_def if uc_def != rd.id else rd.id + "_Def")
    for rd in rds:
        add("part", rd.id, TRANSFORMATION_PART + suffix[rd.id])

    # Inside each root definition's part, use case and concerns.
    for rd in rds:
        tr, cm = rd.transformation, models.get(rd.id)
        part, ucase = ("part", rd.id), ("use case", rd.id)
        # What the use case's members refer to outside it: their typings,
        # subsettings, performers, objective targets and tags.
        from_ucase = {
            *_TAGS,
            names("scaffold", ENVIRONMENT_DEF),
            names("customer concern", rd.id),
            *(names("individual", ref.id) for ref in rd.actors + (rd.owner,)),
            *(names("ec", (rd.id, ec.id)) for ec in rd.environmental_constraints),
            *(names("type", type_name) for _, type_name in tr.inputs + tr.outputs),
        }
        typings = {names("type", tr.subject_type), names("use case def", rd.id)}
        names.reserve(from_ucase | typings, part)
        subject = add("subject", rd.id, tr.subject_name, part)
        add("use case", rd.id, rd.id, part)

        names.reserve(from_ucase | {subject}, ucase)
        for ref in rd.actors:
            add("actor", ref.id, f"actor_{ref.id}", ucase)
        for item, _ in tr.inputs + tr.outputs:
            add("item", item, item, ucase)
        for act_id in orders.get(rd.id, ()):
            add("action", act_id, act_id, ucase)
        for mon in cm.monitors if cm is not None else ():
            add("monitor", mon.id, mon.id, ucase)

        for label, (_, _, refs) in _concerns(rd).items():
            concern = (f"{label} concern", rd.id)
            people = {names("individual", ref.id) for ref in refs}
            names.reserve({*_TAGS, names("part", rd.id), *people}, concern)
            for ref in refs:
                add("stakeholder", ref.id, f"{label}_{ref.id}", concern)
    return names


# ---------------------------------------------------------------------------
# Building pass: one builder per slot role; every name and reference is a
# table lookup


def _individual(ind: Individual, roles, name: _Names) -> Element:
    """An individual occurrence, tagged with the roles it fills."""
    display_name = Element(
        ElementKind.ATTRIBUTE,
        relationships=(Relationship(RelKind.REDEFINES, ("name",)),),
        value=Lit(ind.display_name),
    )
    return Element(
        ElementKind.INDIVIDUAL,
        name=name("individual", ind.id),
        relationships=_typing(name("individual def", ind.definition_type)),
        children=tuple(catwoe_tag(role) for role in sorted(roles)) + (display_name,),
        span=ind.span,
    )


def _type_def(type_name: str, kind: ElementKind, rd_ids, name: _Names) -> Element:
    """A subject/input/output type's definition; the part def of the subject of the
    state-pattern root definitions `rd_ids` gets an idle->transformed state machine."""
    machine: tuple[Element, ...] = ()
    if kind is ElementKind.PART_DEF and rd_ids:
        machine = (
            Element(ElementKind.STATE, name="idle"),
            Element(ElementKind.STATE, name="transformed"),
        ) + tuple(
            Element(
                ElementKind.TRANSITION,
                name=f"t_{rd_id}",
                source="idle",
                target="transformed",
                trigger=(f"{rd_id}Done",),
            )
            for rd_id in rd_ids
        )
    return Element(kind, name=name("type", type_name), children=machine)


# `lexing.CONSTRAINT_DEPTH` counts the package and requirement-def bodies
# written around each constraint.
def _ec_requirement(rd_id: str, ec: EnvConstraint, name: _Names) -> Element:
    rels = _typing(name("scaffold", ENVIRONMENT_DEF))
    if ec.refines is not None:
        rels += (Relationship(RelKind.REFINES, (name("ec", (rd_id, ec.refines.id)),)),)
    constraint = Element(
        ElementKind.CONSTRAINT,
        constraint_kind=ec.kind,
        constraint_expr=ec.expr if ec.expr is not None else Lit(True),
    )
    return Element(
        ElementKind.REQUIREMENT_DEF,
        name=name("ec", (rd_id, ec.id)),
        relationships=rels,
        doc=ec.text,
        children=(constraint,),
        span=ec.span,
    )


def _concern(rd: RootDefinition, label: str, name: _Names) -> Element:
    """The concern `label` of `_concerns(rd)`, with its stakeholders."""
    role, def_name, refs = _concerns(rd)[label]
    concern, part = (f"{label} concern", rd.id), ("part", rd.id)
    subject = Element(
        ElementKind.SUBJECT,
        relationships=_subsets(name("part", rd.id), name("subject", rd.id, part)),
    )
    stakeholders = tuple(
        Element(
            ElementKind.STAKEHOLDER,
            name=name("stakeholder", ref.id, concern),
            relationships=_subsets(name("individual", ref.id)),
            children=(catwoe_tag(role),),
            span=ref.span,
        )
        for ref in refs
    )
    return Element(
        ElementKind.CONCERN,
        name=name(*concern),
        relationships=_typing(name("scaffold", def_name)),
        children=(subject,) + stakeholders,
        span=rd.span,
    )


def _part(
    rd: RootDefinition,
    cm: ConceptualModel | None,
    order: list[str],
    name: _Names,
    options: MappingOptions,
) -> Element:
    """The part hosting the transformation's subject and, as a use case,
    the transformation with its actors and its actions.

    Actions follow the topological flow order, then monitors."""
    tr = rd.transformation
    part, ucase = ("part", rd.id), ("use case", rd.id)
    actors = tuple(
        Element(
            ElementKind.ACTOR,
            name=name("actor", ref.id, ucase),
            relationships=_subsets(name("individual", ref.id)),
            children=(catwoe_tag(CatwoeRole.ACTOR),),
            span=ref.span,
        )
        for ref in rd.actors
    )
    # The objective references every environmental constraint: the root
    # definition does not single one out, so none is dropped.  With no
    # constraints at all it references the shared environment definition
    # so the use case still points at a requirement.
    targets = [name("ec", (rd.id, ec.id)) for ec in rd.environmental_constraints]
    objective = Element(
        ElementKind.REQUIREMENT,
        is_objective=True,
        relationships=tuple(
            Relationship(RelKind.REFERENCES, (target,))
            for target in targets or [name("scaffold", ENVIRONMENT_DEF)]
        )
        + (Relationship(RelKind.FRAMES, (name("customer concern", rd.id),)),),
    )
    ios = tuple(
        Element(
            ElementKind.ITEM,
            name=name("item", item, ucase),
            direction=direction,
            is_ref=True,
            relationships=_typing(name("type", type_name)),
        )
        for direction, params in (("in", tr.inputs), ("out", tr.outputs))
        for item, type_name in params
    )
    subject = Element(
        ElementKind.SUBJECT, relationships=_subsets(name("subject", rd.id, part))
    )
    actions: tuple[Element, ...] = ()
    successions: tuple[Succession, ...] = ()
    if cm is not None:
        by_id = {act.id: act for act in cm.activities}
        action = {act_id: name("action", act_id, ucase) for act_id in order}
        actor_ids = {ref.id for ref in rd.actors}
        actions = tuple(
            Element(
                ElementKind.ACTION,
                name=action[act_id],
                is_perform=True,
                # The local actor usage, or the occurrence: the owner may
                # perform activities without being an actor.
                performer=(
                    name("actor", performer, ucase)
                    if performer in actor_ids
                    else name("individual", performer),
                ),
                doc=by_id[act_id].label,
                span=by_id[act_id].span,
            )
            for act_id in order
            for performer in (by_id[act_id].performed_by.id,)
        ) + tuple(
            Element(
                ElementKind.ACTION,
                name=name("monitor", mon.id, ucase),
                doc=mon.label,
                children=(
                    Element(
                        ElementKind.COMMENT,
                        doc="monitors: "
                        + ", ".join(action[ref.id] for ref in mon.controls),
                    ),
                ),
                span=mon.span,
            )
            for mon in cm.monitors
        )
        position = {act_id: i for i, act_id in enumerate(order)}
        successions = tuple(
            Succession(action[flow.source.id], action[flow.target.id])
            for flow in sorted(
                cm.flows, key=lambda f: (position[f.source.id], position[f.target.id])
            )
        )
    if rd.id in options.state_pattern:
        send = Element(ElementKind.ACTION, flavor="send", signal=(f"{rd.id}Done",))
        actions += (send,)
    use_case = Element(
        ElementKind.USE_CASE,
        name=name("use case", rd.id, part),
        relationships=_typing(name("use case def", rd.id)),
        children=(subject,) + actors + (objective,) + ios + actions,
        successions=successions,
        doc=tr.statement,
        span=rd.span,
    )
    part_subject = Element(
        ElementKind.PART,
        name=name("subject", rd.id, part),
        relationships=_typing(name("type", tr.subject_type)),
        span=tr.span,
    )
    return Element(
        ElementKind.PART, name=name(*part), children=(part_subject, use_case), span=rd.span
    )


def _topological_order(cm: ConceptualModel) -> list[str]:
    """Kahn's algorithm, always taking the earliest-declared ready activity."""
    position = {act.id: i for i, act in enumerate(cm.activities)}
    indegree = dict.fromkeys(position, 0)
    out_edges: dict[str, list[str]] = {act_id: [] for act_id in position}
    for flow in cm.flows:
        if flow.source.id in out_edges and flow.target.id in indegree:
            out_edges[flow.source.id].append(flow.target.id)
            indegree[flow.target.id] += 1
    # Already in declaration order, so already a heap.
    ready = [(i, act_id) for act_id, i in position.items() if indegree[act_id] == 0]
    order: list[str] = []
    while ready:
        _, current = heapq.heappop(ready)
        order.append(current)
        for nxt in out_edges[current]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, (position[nxt], nxt))
    # Validated contexts are acyclic, so every activity is ordered.
    return order


# ---------------------------------------------------------------------------
# Whole-context mapping


def map_context(
    ctx: SsmContext, options: MappingOptions = DEFAULT_OPTIONS
) -> tuple[Element, MappingReport]:
    """Transform a validated context into (package, report).

    Raises MappingError when the context fails validation: mapping an
    inconsistent context would silently drop references.
    """
    problems = validate_context(ctx)
    if any(d.is_error for d in problems):
        raise MappingError(problems)

    kinds = _type_kinds(ctx)
    models = {cm.root_definition_id.id: cm for cm in ctx.conceptual_models}
    orders = {rd_id: _topological_order(cm) for rd_id, cm in models.items()}
    name = _plan(ctx, kinds, models, orders)

    individuals = {ind.id: ind for ind in ctx.individuals}
    roles = individual_roles(ctx)
    rds = {rd.id: rd for rd in ctx.root_definitions}
    ecs = {(rd.id, ec.id): ec for rd in rds.values() for ec in rd.environmental_constraints}
    machines: dict[str, list[str]] = {}  # subject type -> state-pattern root definitions
    for rd in rds.values():
        if rd.id in options.state_pattern:
            machines.setdefault(rd.transformation.subject_type, []).append(rd.id)

    builders = {
        "scaffold": lambda wanted: _scaffold(wanted, name("scaffold", wanted)),
        "individual def": lambda type_name: Element(
            ElementKind.INDIVIDUAL_DEF,
            name=name("individual def", type_name),
            children=(_typed_attribute("name", "String"),),
        ),
        "individual": lambda ind_id: _individual(
            individuals[ind_id], roles.get(ind_id, ()), name
        ),
        "type": lambda type_name: _type_def(
            type_name, kinds[type_name], machines.get(type_name), name
        ),
        "usage": lambda type_name: Element(
            ElementKind.PART if kinds[type_name] is ElementKind.PART_DEF else ElementKind.ITEM,
            name=name("usage", type_name),
            relationships=_typing(name("type", type_name)),
        ),
        "ec": lambda key: _ec_requirement(key[0], ecs[key], name),
        "owner concern": lambda rd_id: _concern(rds[rd_id], "owner", name),
        "customer concern": lambda rd_id: _concern(rds[rd_id], "customer", name),
        "viewpoint": lambda rd_id: Element(
            ElementKind.VIEWPOINT,
            name=name("viewpoint", rd_id),
            relationships=_typing(name("scaffold", VIEWPOINT_DEF))
            + (Relationship(RelKind.FRAMES, (name("owner concern", rd_id),)),),
            children=(rationale_tag(rds[rd_id].worldview),),
            span=rds[rd_id].span,
        ),
        # Body deliberately left blank: the view exists to satisfy the
        # viewpoint; exposure and filtering are the modeller's choice.
        "view": lambda rd_id: Element(
            ElementKind.VIEW,
            name=name("view", rd_id),
            relationships=(Relationship(RelKind.SATISFIES, (name("viewpoint", rd_id),)),),
        ),
        "use case def": lambda rd_id: Element(
            ElementKind.USE_CASE_DEF,
            name=name("use case def", rd_id),
            relationships=_typing(name("scaffold", TRANSFORMATION_DEF)),
            children=(catwoe_tag(CatwoeRole.TRANSFORMATION),),
        ),
        "part": lambda rd_id: _part(
            rds[rd_id], models.get(rd_id), orders.get(rd_id, []), name, options
        ),
    }
    # The package's slots, (role, source id), in the order they were planned.
    layout = [(role, key) for ns, role, key in name.planned if ns == _PACKAGE]
    members = tuple(builders[role](key) for role, key in layout)
    model = Element(ElementKind.PACKAGE, name=ctx.name, children=members, span=ctx.span)
    paths = {id(element): path for element, path in iter_walk(model)}  # shares no object
    report = MappingReport(
        tuple(
            ProvenanceEntry(qname_text(paths[id(element)]), element.span, role)
            for element, role in _provenance(ctx, dict(zip(layout, members)))
        ),
        tuple(_warnings(ctx, name, models)),
    )
    return model, report


def _provenance(ctx: SsmContext, member: dict) -> list[tuple[Element, CatwoeRole | None]]:
    """(element, role) in report order, read from the package's members by slot."""
    entries: list[tuple[Element, CatwoeRole | None]] = [
        (member["individual", ind.id], None) for ind in ctx.individuals
    ]
    for rd in ctx.root_definitions:
        ecs = [member["ec", (rd.id, ec.id)] for ec in rd.environmental_constraints]
        entries += [
            (ec, CatwoeRole.ENVIRONMENT) for ec in ecs or [member["scaffold", ENVIRONMENT_DEF]]
        ]
        subject, ucase = member["part", rd.id].children
        entries += [
            (ucase, CatwoeRole.TRANSFORMATION),
            (member["viewpoint", rd.id], CatwoeRole.WORLDVIEW),
            (subject, None),
        ]
        for label, (role, _, _) in _concerns(rd).items():
            concern = member[f"{label} concern", rd.id]
            entries += [(c, role) for c in concern.children if c.kind is ElementKind.STAKEHOLDER]
        entries += [(c, CatwoeRole.ACTOR) for c in ucase.children if c.kind is ElementKind.ACTOR]
        entries += [(c, None) for c in ucase.children if c.kind is ElementKind.ACTION]
    return entries


def _warnings(ctx: SsmContext, name: _Names, models: dict[str, ConceptualModel]):
    """The W-* warnings: shared display names, then each root definition's."""
    first_with: dict[str, str] = {}
    for ind in ctx.individuals:
        first = first_with.setdefault(ind.display_name, ind.id)
        if first != ind.id:
            yield COMPILE_CODES["W-DUPNAME"].at(
                f"{ctx.name}.{name('individual', ind.id)}",
                ind.span,
                f"individuals {first!r} and {ind.id!r} share the display name "
                f"{ind.display_name!r}",
            )
    for rd in ctx.root_definitions:
        if rd.id not in models:
            yield COMPILE_CODES["W-NOCM"].at(
                f"{ctx.name}.{name('part', rd.id)}.{name('use case', rd.id, ('part', rd.id))}",
                rd.span,
                f"root definition {rd.id!r} has no conceptual model; "
                "the use case body holds no activities",
            )
        for ec in rd.environmental_constraints:
            if ec.expr is None:
                yield COMPILE_CODES["W-NOEXPR"].at(
                    f"{ctx.name}.{name('ec', (rd.id, ec.id))}",
                    ec.span,
                    f"environmental constraint {ec.id!r} has no expression; "
                    "a placeholder `true` constraint was emitted",
                )
