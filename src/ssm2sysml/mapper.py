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
and each concern) in one table keyed by (namespace, role, source id);
the builders take every name and every reference from that table.
Collision rule: in each namespace the member written first keeps its
name and later ones get `_2`, `_3`, ...  A nested namespace first
reserves the names written inside it as references to elements outside
it, so no member hides such a target; the package reserves `String`.
A source id repeated within one root definition or conceptual model is
mapped once, from its first declaration.

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


def scaffolding() -> tuple[Element, ...]:
    """The metadata vocabulary every mapped package starts with."""
    return (
        Element(
            ElementKind.ENUM_DEF,
            name=CATWOE_ENUM,
            enum_literals=tuple(role.label for role in CatwoeRole),
        ),
        Element(
            ElementKind.METADATA_DEF,
            name=CATWOE_DEF,
            children=(_typed_attribute("element", CATWOE_ENUM),),
        ),
        Element(
            ElementKind.METADATA_DEF,
            name=RATIONALE_DEF,
            children=(_typed_attribute("text", "String"),),
        ),
    )


def _typing(target: str) -> tuple[Relationship, ...]:
    return (Relationship(RelKind.TYPING, (target,)),)


def _subsets(*path: str) -> tuple[Relationship, ...]:
    return (Relationship(RelKind.SUBSETS, tuple(path)),)


def _first_by_id(items):
    """The first item of each id, in order."""
    first: dict = {}
    for item in items:
        first.setdefault(item.id, item)
    return list(first.values())


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
    """(label, role, definition, individuals) of the owner's and customers' concerns."""
    return (
        ("owner", CatwoeRole.OWNER, OWNER_CONCERN_DEF, (rd.owner,)),
        ("customer", CatwoeRole.CUSTOMER, CUSTOMER_CONCERN_DEF, rd.customers),
    )


def _type_kinds(ctx: SsmContext) -> dict[str, ElementKind]:
    """Each subject/input/output type's definition kind, taken from its first use."""
    kinds: dict[str, ElementKind] = {}
    for rd in ctx.root_definitions:
        tr = rd.transformation
        kinds.setdefault(tr.subject_type, ElementKind.PART_DEF)
        for _, type_name in tr.inputs + tr.outputs:
            kinds.setdefault(type_name, ElementKind.ITEM_DEF)
    return kinds


def _def_order(kinds: dict[str, ElementKind]) -> list[str]:
    """Type definitions as written: part defs, then item defs, in first-use order."""
    return sorted(kinds, key=lambda type_name: kinds[type_name] is ElementKind.ITEM_DEF)


# ---------------------------------------------------------------------------
# Planning pass: the name table

_PACKAGE: tuple = ()  # a namespace key; the others are (kind, root-definition id)
_TAGS = (CATWOE_ENUM, CATWOE_DEF)  # what a CATWOE tag refers to


class _Names:
    """Every member name, by (namespace, role, source id); unique per namespace."""

    def __init__(self) -> None:
        self.planned: dict[tuple, str] = {}
        self.taken: dict[tuple, set[str]] = {}

    def reserve(self, names, ns: tuple = _PACKAGE) -> None:
        self.taken.setdefault(ns, set()).update(names)

    def add(self, role: str, key, wanted: str, ns: tuple = _PACKAGE) -> str:
        """Allocate `wanted` in `ns` under the collision rule, once per key."""
        slot = (ns, role, key)
        if slot not in self.planned:
            taken = self.taken.setdefault(ns, set())
            name, n = wanted, 1
            while name in taken:
                n += 1
                name = f"{wanted}_{n}"
            taken.add(name)
            self.planned[slot] = name
        return self.planned[slot]

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
    for ind in ctx.individuals:
        add("individual def", ind.definition_type, ind.definition_type)
    for ind in ctx.individuals:
        add("individual", ind.id, ind.id)
    for type_name in _def_order(kinds):
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

        for label, _, _, refs in _concerns(rd):
            concern = (f"{label} concern", rd.id)
            people = {names("individual", ref.id) for ref in refs}
            names.reserve({*_TAGS, names("part", rd.id), *people}, concern)
            for ref in refs:
                add("stakeholder", ref.id, f"{label}_{ref.id}", concern)
    return names


# ---------------------------------------------------------------------------
# Building pass: every name and reference is a table lookup


def _individuals(ctx: SsmContext, name: _Names) -> tuple[list[Element], list[Element]]:
    """Individual definitions (one per distinct type), and occurrences."""
    types = (ind.definition_type for ind in ctx.individuals)
    defs = dict.fromkeys(name("individual def", type_name) for type_name in types)
    roles = individual_roles(ctx)
    return [
        Element(
            ElementKind.INDIVIDUAL_DEF,
            name=def_name,
            children=(_typed_attribute("name", "String"),),
        )
        for def_name in defs
    ], [
        Element(
            ElementKind.INDIVIDUAL,
            name=name("individual", ind.id),
            relationships=_typing(name("individual def", ind.definition_type)),
            children=tuple(catwoe_tag(role) for role in sorted(roles.get(ind.id, ())))
            + (
                Element(
                    ElementKind.ATTRIBUTE,
                    relationships=(Relationship(RelKind.REDEFINES, ("name",)),),
                    value=Lit(ind.display_name),
                ),
            ),
            span=ind.span,
        )
        for ind in ctx.individuals
    ]


def _types(
    ctx: SsmContext,
    kinds: dict[str, ElementKind],
    name: _Names,
    options: MappingOptions,
) -> list[Element]:
    """Subject/input/output type definitions, then one usage of each."""
    transitions: dict[str, list[str]] = {}
    for rd in ctx.root_definitions:
        if rd.id in options.state_pattern:
            transitions.setdefault(rd.transformation.subject_type, []).append(rd.id)
    defs = []
    for type_name in _def_order(kinds):
        machine: tuple[Element, ...] = ()
        if kinds[type_name] is ElementKind.PART_DEF and type_name in transitions:
            # The subject's definition gets an idle->transformed state machine.
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
                for rd_id in transitions[type_name]
            )
        defs.append(
            Element(kinds[type_name], name=name("type", type_name), children=machine)
        )
    usages = [
        Element(
            ElementKind.PART if kind is ElementKind.PART_DEF else ElementKind.ITEM,
            name=name("usage", type_name),
            relationships=_typing(name("type", type_name)),
        )
        for type_name, kind in kinds.items()
    ]
    return defs + usages


# `lexing.CONSTRAINT_DEPTH` counts the package and requirement-def bodies
# written around each constraint.
def _ec_requirement(rd: RootDefinition, ec: EnvConstraint, name: _Names) -> Element:
    rels = _typing(name("scaffold", ENVIRONMENT_DEF))
    if ec.refines is not None:
        rels += (Relationship(RelKind.REFINES, (name("ec", (rd.id, ec.refines.id)),)),)
    constraint = Element(
        ElementKind.CONSTRAINT,
        constraint_kind=ec.kind,
        constraint_expr=ec.expr if ec.expr is not None else Lit(True),
    )
    return Element(
        ElementKind.REQUIREMENT_DEF,
        name=name("ec", (rd.id, ec.id)),
        relationships=rels,
        doc=ec.text,
        children=(constraint,),
        span=ec.span,
    )


def _concern(
    rd: RootDefinition, group, name: _Names
) -> tuple[Element, tuple[Element, ...]]:
    """The concern of one of `_concerns(rd)`, and its stakeholders."""
    label, role, def_name, refs = group
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
        for ref in _first_by_id(refs)
    )
    element = Element(
        ElementKind.CONCERN,
        name=name(concern[0], rd.id),
        relationships=_typing(name("scaffold", def_name)),
        children=(subject,) + stakeholders,
        span=rd.span,
    )
    return element, stakeholders


def _use_case(
    rd: RootDefinition,
    cm: ConceptualModel | None,
    order: list[str],
    name: _Names,
    options: MappingOptions,
) -> tuple[Element, tuple[Element, ...], tuple[Element, ...]]:
    """The transformation as a use case, its actors and its actions.

    Actions follow the topological flow order, then monitors."""
    tr = rd.transformation
    ucase = ("use case", rd.id)
    actors = tuple(
        Element(
            ElementKind.ACTOR,
            name=name("actor", ref.id, ucase),
            relationships=_subsets(name("individual", ref.id)),
            children=(catwoe_tag(CatwoeRole.ACTOR),),
            span=ref.span,
        )
        for ref in _first_by_id(rd.actors)
    )
    # The objective references every environmental constraint: the root
    # definition does not single one out, so none is dropped.  With no
    # constraints at all it references the shared environment definition
    # so the use case still points at a requirement.
    ecs = _first_by_id(rd.environmental_constraints)
    targets = [name("ec", (rd.id, ec.id)) for ec in ecs]
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
        ElementKind.SUBJECT,
        relationships=_subsets(name("subject", rd.id, ("part", rd.id))),
    )
    actions: tuple[Element, ...] = ()
    successions: tuple[Succession, ...] = ()
    if cm is not None:
        by_id = {act.id: act for act in _first_by_id(cm.activities)}
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
            for mon in _first_by_id(cm.monitors)
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
    element = Element(
        ElementKind.USE_CASE,
        name=name("use case", rd.id, ("part", rd.id)),
        relationships=_typing(name("use case def", rd.id)),
        children=(subject,) + actors + (objective,) + ios + actions,
        successions=successions,
        doc=tr.statement,
        span=rd.span,
    )
    return element, actors, actions


def _topological_order(cm: ConceptualModel) -> list[str]:
    """Kahn's algorithm, always taking the earliest-declared ready activity."""
    position = {act.id: i for i, act in enumerate(_first_by_id(cm.activities))}
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

    warnings: list[Diagnostic] = []
    seen_display: dict[str, str] = {}
    for ind in ctx.individuals:
        if ind.display_name in seen_display:
            warnings.append(COMPILE_CODES["W-DUPNAME"].at(
                f"{ctx.name}.{name('individual', ind.id)}",
                ind.span,
                f"individuals {seen_display[ind.display_name]!r} and "
                f"{ind.id!r} share the display name {ind.display_name!r}",
            ))
        else:
            seen_display[ind.display_name] = ind.id

    individual_defs, individuals = _individuals(ctx, name)
    # (element, role) in report order; paths come from the finished model.
    provenance: list[tuple[Element, CatwoeRole | None]] = [
        (occurrence, None) for occurrence in individuals
    ]
    members = [*scaffolding(), *individual_defs, *individuals]
    members += _types(ctx, kinds, name, options)
    rds = ctx.root_definitions
    env_def = Element(
        ElementKind.REQUIREMENT_DEF,
        name=name("scaffold", ENVIRONMENT_DEF),
        children=(catwoe_tag(CatwoeRole.ENVIRONMENT),),
    ) if rds else None
    ec_defs: list[Element] = []
    concerns: list[Element] = []
    viewpoints: list[Element] = []
    views: list[Element] = []
    uc_defs: list[Element] = []
    parts: list[Element] = []

    for rd in rds:
        cm = models.get(rd.id)
        part_name = name("part", rd.id)
        if cm is None:
            warnings.append(COMPILE_CODES["W-NOCM"].at(
                f"{ctx.name}.{part_name}.{name('use case', rd.id, ('part', rd.id))}",
                rd.span,
                f"root definition {rd.id!r} has no conceptual model; "
                "the use case body holds no activities",
            ))
        for ec in _first_by_id(rd.environmental_constraints):
            if ec.expr is None:
                warnings.append(COMPILE_CODES["W-NOEXPR"].at(
                    f"{ctx.name}.{name('ec', (rd.id, ec.id))}",
                    ec.span,
                    f"environmental constraint {ec.id!r} has no expression; "
                    "a placeholder `true` constraint was emitted",
                ))
            ec_defs.append(_ec_requirement(rd, ec, name))
            provenance.append((ec_defs[-1], CatwoeRole.ENVIRONMENT))
        if not rd.environmental_constraints:
            provenance.append((env_def, CatwoeRole.ENVIRONMENT))

        stakeholders = []
        for group in _concerns(rd):
            concern, members_of = _concern(rd, group, name)
            concerns.append(concern)
            stakeholders += [(s, group[1]) for s in members_of]
        viewpoint = Element(
            ElementKind.VIEWPOINT,
            name=name("viewpoint", rd.id),
            relationships=_typing(name("scaffold", VIEWPOINT_DEF))
            + (Relationship(RelKind.FRAMES, (name("owner concern", rd.id),)),),
            children=(rationale_tag(rd.worldview),),
            span=rd.span,
        )
        viewpoints.append(viewpoint)
        # Body deliberately left blank: the view exists to satisfy the
        # viewpoint; exposure and filtering are the modeller's choice.
        views.append(Element(
            ElementKind.VIEW,
            name=name("view", rd.id),
            relationships=(Relationship(RelKind.SATISFIES, (viewpoint.name,)),),
        ))
        uc_defs.append(Element(
            ElementKind.USE_CASE_DEF,
            name=name("use case def", rd.id),
            relationships=_typing(name("scaffold", TRANSFORMATION_DEF)),
            children=(catwoe_tag(CatwoeRole.TRANSFORMATION),),
        ))
        subject = Element(
            ElementKind.PART,
            name=name("subject", rd.id, ("part", rd.id)),
            relationships=_typing(name("type", rd.transformation.subject_type)),
            span=rd.transformation.span,
        )
        ucase, actors, actions = _use_case(rd, cm, orders.get(rd.id, []), name, options)
        parts.append(Element(
            ElementKind.PART, name=part_name, children=(subject, ucase), span=rd.span
        ))

        provenance += [
            (ucase, CatwoeRole.TRANSFORMATION),
            (viewpoint, CatwoeRole.WORLDVIEW),
            (subject, None),
            *stakeholders,
            *((actor, CatwoeRole.ACTOR) for actor in actors),
            *((action, None) for action in actions),
        ]

    if rds:
        members += [
            env_def,
            *ec_defs,
            *(
                Element(ElementKind.CONCERN_DEF, name=name("scaffold", def_name))
                for def_name in (OWNER_CONCERN_DEF, CUSTOMER_CONCERN_DEF)
            ),
            *concerns,
            Element(
                ElementKind.VIEWPOINT_DEF,
                name=name("scaffold", VIEWPOINT_DEF),
                children=(catwoe_tag(CatwoeRole.WORLDVIEW),),
            ),
            *viewpoints,
            *views,
            Element(
                ElementKind.USE_CASE_DEF, name=name("scaffold", TRANSFORMATION_DEF)
            ),
            *uc_defs,
            *parts,
        ]

    model = Element(
        ElementKind.PACKAGE, name=ctx.name, children=tuple(members), span=ctx.span
    )
    paths = {id(element): path for element, path in iter_walk(model)}  # shares no object
    report = MappingReport(
        tuple(
            ProvenanceEntry(qname_text(paths[id(element)]), element.span, role)
            for element, role in provenance
        ),
        tuple(warnings),
    )
    return model, report
