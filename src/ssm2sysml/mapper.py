"""Map a validated SsmContext onto a SysML v2 package.

The reference architecture is fixed: individuals become individual
occurrences typed by per-type definitions; environmental constraints
become requirement definitions typed by a shared Environment-tagged
definition; the owner and customers become stakeholders of concerns;
the worldview becomes rationale metadata on a viewpoint; and each root
definition's transformation becomes a use case hosted in an enclosing
part together with its subject.

`map_context` is pure: equal inputs produce structurally equal packages
and byte-identical emitted text.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

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
    ModelIndex,
    RelKind,
    Relationship,
    Succession,
    qname_text,
)

CATWOE_ENUM = "CatwoeElement"


@dataclass(frozen=True)
class MappingOptions:
    """Names used for the emitted scaffolding; defaults are overridable."""

    owner_concern_def: str = "OwnerConcern"
    customer_concern_def: str = "CustomerConcern"
    viewpoint_def: str = "ResourceAllocation"
    transformation_def: str = "CATWOE_Transformation"
    environment_def: str = "EnvironmentalConstraints"
    transformation_part: str = "transformationSystem"
    viewpoint_name: str = "licenseManagement"
    view_name: str = "License Allocation"
    owner_concern_name: str = "resources"
    customer_concern_name: str = "customerConcern"
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


def scaffolding() -> tuple[Element, ...]:
    """The metadata vocabulary every mapped package starts with."""
    enum = Element(
        ElementKind.ENUM_DEF,
        name=CATWOE_ENUM,
        enum_literals=tuple(role.label for role in CatwoeRole),
    )
    catwoe = Element(
        ElementKind.METADATA_DEF,
        name=CATWOE_DEF,
        children=(
            Element(
                ElementKind.ATTRIBUTE,
                name="element",
                relationships=(Relationship(RelKind.TYPING, (CATWOE_ENUM,)),),
            ),
        ),
    )
    rationale = Element(
        ElementKind.METADATA_DEF,
        name=RATIONALE_DEF,
        children=(
            Element(
                ElementKind.ATTRIBUTE,
                name="text",
                relationships=(Relationship(RelKind.TYPING, ("String",)),),
            ),
        ),
    )
    return (enum, catwoe, rationale)


def _typing(target: str) -> tuple[Relationship, ...]:
    return (Relationship(RelKind.TYPING, (target,)),)


def _subsets(*path: str) -> tuple[Relationship, ...]:
    return (Relationship(RelKind.SUBSETS, tuple(path)),)


def _capitalize(name: str) -> str:
    return name[0].upper() + name[1:] if name else name


def _lower(name: str) -> str:
    return name[0].lower() + name[1:] if name else name


# ---------------------------------------------------------------------------
# Per-root-definition naming

@dataclass(frozen=True)
class _RdNames:
    use_case_def: str
    use_case: str
    subject: str
    part: str
    owner_concern: str
    customer_concern: str
    viewpoint: str
    view: str
    ec_names: dict[str, str]  # source id -> emitted name


def _rd_names(
    rd: RootDefinition, options: MappingOptions, suffixed: bool, claim
) -> _RdNames:
    suffix = f"_{rd.id}" if suffixed else ""
    uc_def = _capitalize(rd.id)
    if uc_def == rd.id:
        uc_def = rd.id + "_Def"
    view = options.view_name + (f" {rd.id}" if suffixed else "")
    return _RdNames(
        use_case_def=claim(uc_def),
        use_case=rd.id,
        subject=rd.transformation.subject_name,
        part=claim(options.transformation_part + suffix),
        owner_concern=claim(options.owner_concern_name + suffix),
        customer_concern=claim(options.customer_concern_name + suffix),
        viewpoint=claim(options.viewpoint_name + suffix),
        view=claim(view),
        ec_names={ec.id: claim(ec.id) for ec in rd.environmental_constraints},
    )


# ---------------------------------------------------------------------------
# Sub-mappings (called by map_context)


def map_individuals(ctx: SsmContext) -> tuple[Element, ...]:
    """Individual definitions (one per distinct type) plus occurrences."""
    roles = individual_roles(ctx)
    defs: list[Element] = []
    seen_types: set[str] = set()
    for ind in ctx.individuals:
        if ind.definition_type in seen_types:
            continue
        seen_types.add(ind.definition_type)
        defs.append(
            Element(
                ElementKind.INDIVIDUAL_DEF,
                name=ind.definition_type,
                children=(
                    Element(
                        ElementKind.ATTRIBUTE,
                        name="name",
                        relationships=_typing("String"),
                    ),
                ),
            )
        )
    occurrences = [
        Element(
            ElementKind.INDIVIDUAL,
            name=ind.id,
            relationships=_typing(ind.definition_type),
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
    return tuple(defs) + tuple(occurrences)


def individual_roles(ctx: SsmContext) -> dict[str, set[CatwoeRole]]:
    """Which roles each individual fills, across all root definitions."""
    roles: dict[str, set[CatwoeRole]] = {}

    def add(ind_id: str, role: CatwoeRole) -> None:
        roles.setdefault(ind_id, set()).add(role)

    for rd in ctx.root_definitions:
        for ref in rd.customers:
            add(ref.id, CatwoeRole.CUSTOMER)
        for ref in rd.actors:
            add(ref.id, CatwoeRole.ACTOR)
        add(rd.owner.id, CatwoeRole.OWNER)
    return roles


def environment_def(options: MappingOptions = DEFAULT_OPTIONS) -> Element:
    return Element(
        ElementKind.REQUIREMENT_DEF,
        name=options.environment_def,
        children=(catwoe_tag(CatwoeRole.ENVIRONMENT),),
    )


# `lexing.CONSTRAINT_DEPTH` counts the package and requirement-def bodies
# written around each constraint.
def _ec_requirement(
    ec: EnvConstraint, names: dict[str, str], options: MappingOptions
) -> Element:
    rels = list(_typing(options.environment_def))
    if ec.refines is not None:
        rels.append(Relationship(RelKind.REFINES, (names[ec.refines.id],)))
    constraint = Element(
        ElementKind.CONSTRAINT,
        constraint_kind=ec.kind,
        constraint_expr=ec.expr if ec.expr is not None else Lit(True),
    )
    return Element(
        ElementKind.REQUIREMENT_DEF,
        name=names[ec.id],
        relationships=tuple(rels),
        doc=ec.text,
        children=(constraint,),
        span=ec.span,
    )


def map_actor_pattern(rd: RootDefinition, ucase: Element) -> Element:
    """Add one actor usage per CATWOE Actor, subsetting its occurrence."""
    actors = tuple(
        Element(
            ElementKind.ACTOR,
            name=f"actor_{ref.id}",
            relationships=_subsets(ref.id),
            children=(catwoe_tag(CatwoeRole.ACTOR),),
            span=ref.span,
        )
        for ref in rd.actors
    )
    return ucase.with_children(ucase.children + actors)


def _concern_subject(names: _RdNames) -> Element:
    return Element(
        ElementKind.SUBJECT,
        relationships=_subsets(names.part, names.subject),
    )


def _owner_concern(
    rd: RootDefinition, names: _RdNames, options: MappingOptions
) -> Element:
    stakeholder = Element(
        ElementKind.STAKEHOLDER,
        name=f"owner_{rd.owner.id}",
        relationships=_subsets(rd.owner.id),
        children=(catwoe_tag(CatwoeRole.OWNER),),
        span=rd.owner.span,
    )
    return Element(
        ElementKind.CONCERN,
        name=names.owner_concern,
        relationships=_typing(options.owner_concern_def),
        children=(_concern_subject(names), stakeholder),
        span=rd.span,
    )


def _viewpoint(rd: RootDefinition, names: _RdNames, options: MappingOptions) -> Element:
    return Element(
        ElementKind.VIEWPOINT,
        name=names.viewpoint,
        relationships=_typing(options.viewpoint_def)
        + (Relationship(RelKind.FRAMES, (names.owner_concern,)),),
        children=(rationale_tag(rd.worldview),),
        span=rd.span,
    )


def _view(names: _RdNames, options: MappingOptions) -> Element:
    # Body deliberately left blank: the view exists to satisfy the
    # viewpoint; exposure and filtering are the modeller's choice.
    return Element(
        ElementKind.VIEW,
        name=names.view,
        relationships=(Relationship(RelKind.SATISFIES, (names.viewpoint,)),),
    )


def _customer_concern(
    rd: RootDefinition, names: _RdNames, options: MappingOptions
) -> Element:
    stakeholders = tuple(
        Element(
            ElementKind.STAKEHOLDER,
            name=f"customer_{ref.id}",
            relationships=_subsets(ref.id),
            children=(catwoe_tag(CatwoeRole.CUSTOMER),),
            span=ref.span,
        )
        for ref in rd.customers
    )
    return Element(
        ElementKind.CONCERN,
        name=names.customer_concern,
        relationships=_typing(options.customer_concern_def),
        children=(_concern_subject(names),) + stakeholders,
        span=rd.span,
    )


def _use_case_def(names: _RdNames, options: MappingOptions) -> Element:
    return Element(
        ElementKind.USE_CASE_DEF,
        name=names.use_case_def,
        relationships=_typing(options.transformation_def),
        children=(catwoe_tag(CatwoeRole.TRANSFORMATION),),
    )


def _objective(rd: RootDefinition, names: _RdNames, options: MappingOptions) -> Element:
    # The objective references every environmental constraint: the root
    # definition does not single one out, so none is dropped.  With no
    # constraints at all it references the shared environment definition
    # so the use case still points at a requirement.
    refs = tuple(
        Relationship(RelKind.REFERENCES, (names.ec_names[ec.id],))
        for ec in rd.environmental_constraints
    ) or (Relationship(RelKind.REFERENCES, (options.environment_def,)),)
    rels = refs + (Relationship(RelKind.FRAMES, (names.customer_concern,)),)
    return Element(ElementKind.REQUIREMENT, is_objective=True, relationships=rels)


def _use_case_usage(
    rd: RootDefinition,
    cm: ConceptualModel | None,
    names: _RdNames,
    options: MappingOptions,
) -> Element:
    tr = rd.transformation
    subject = Element(ElementKind.SUBJECT, relationships=_subsets(names.subject))
    ios = tuple(
        Element(
            ElementKind.ITEM,
            name=name,
            direction=direction,
            is_ref=True,
            relationships=_typing(type_name),
        )
        for direction, params in (("in", tr.inputs), ("out", tr.outputs))
        for name, type_name in params
    )
    ucase = Element(
        ElementKind.USE_CASE,
        name=names.use_case,
        relationships=_typing(names.use_case_def),
        children=(subject,),
        doc=tr.statement,
        span=rd.span,
    )
    ucase = map_actor_pattern(rd, ucase)
    ucase = ucase.with_children(ucase.children + (_objective(rd, names, options),) + ios)
    if cm is not None:
        ucase = map_conceptual_model(cm, ucase)
    if rd.id in options.state_pattern:
        send = Element(
            ElementKind.ACTION, flavor="send", signal=(f"{rd.id}Done",)
        )
        ucase = ucase.with_children(ucase.children + (send,))
    return ucase


def _transformation_part(
    rd: RootDefinition,
    cm: ConceptualModel | None,
    names: _RdNames,
    options: MappingOptions,
) -> Element:
    subject_part = Element(
        ElementKind.PART,
        name=names.subject,
        relationships=_typing(rd.transformation.subject_type),
        span=rd.transformation.span,
    )
    return Element(
        ElementKind.PART,
        name=names.part,
        children=(subject_part, _use_case_usage(rd, cm, names, options)),
        span=rd.span,
    )


def map_conceptual_model(cm: ConceptualModel, ucase: Element) -> Element:
    """Actions in topological flow order, one succession per flow edge."""
    order = _topological_order(cm)
    position = {act_id: i for i, act_id in enumerate(order)}
    by_id = {act.id: act for act in cm.activities}
    actions = tuple(
        Element(
            ElementKind.ACTION,
            name=act_id,
            is_perform=True,
            performer=(_performer_name(cm, by_id[act_id].performed_by.id, ucase),),
            doc=by_id[act_id].label,
            span=by_id[act_id].span,
        )
        for act_id in order
    )
    monitors = tuple(
        Element(
            ElementKind.ACTION,
            name=mon.id,
            doc=mon.label,
            children=(
                Element(
                    ElementKind.COMMENT,
                    doc="monitors: " + ", ".join(c.id for c in mon.controls),
                ),
            ),
            span=mon.span,
        )
        for mon in cm.monitors
    )
    successions = tuple(
        Succession(flow.source.id, flow.target.id)
        for flow in sorted(
            cm.flows,
            key=lambda f: (position.get(f.source.id, 0), position.get(f.target.id, 0)),
        )
    )
    return replace(
        ucase,
        children=ucase.children + actions + monitors,
        successions=ucase.successions + successions,
    )


def _performer_name(cm: ConceptualModel, performer_id: str, ucase: Element) -> str:
    # Prefer the local actor usage; fall back to the occurrence (the
    # owner may perform activities without being an actor).
    for child in ucase.children:
        if child.kind is ElementKind.ACTOR and child.name == f"actor_{performer_id}":
            return child.name
    return performer_id


def _topological_order(cm: ConceptualModel) -> list[str]:
    """Kahn's algorithm; ties broken by activity declaration order."""
    order_index = {act.id: i for i, act in enumerate(cm.activities)}
    indegree = {act.id: 0 for act in cm.activities}
    out_edges: dict[str, list[str]] = {act.id: [] for act in cm.activities}
    for flow in cm.flows:
        if flow.source.id in out_edges and flow.target.id in indegree:
            out_edges[flow.source.id].append(flow.target.id)
            indegree[flow.target.id] += 1
    ready = sorted(
        (a for a, d in indegree.items() if d == 0), key=order_index.__getitem__
    )
    order: list[str] = []
    while ready:
        current = ready.pop(0)
        order.append(current)
        changed = False
        for nxt in out_edges[current]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
                changed = True
        if changed:
            ready.sort(key=order_index.__getitem__)
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
    problems = [d for d in validate_context(ctx) if d.is_error]
    if problems:
        raise MappingError(
            "context fails validation: " + "; ".join(d.message for d in problems)
        )

    warnings: list[Diagnostic] = []
    claimed: dict[str, int] = {}

    def claim(name: str) -> str:
        # Package-level member names must be unique; disambiguate with a
        # numeric suffix on collision (deterministic).
        if name not in claimed:
            claimed[name] = 1
            return name
        claimed[name] += 1
        return claim(f"{name}_{claimed[name]}")

    # Individuals -----------------------------------------------------------
    individuals = map_individuals(ctx)
    for el in individuals:
        claim(el.name or "")
    seen_display: dict[str, str] = {}
    for ind in ctx.individuals:
        if ind.display_name in seen_display:
            warnings.append(COMPILE_CODES["W-DUPNAME"].at(
                f"{ctx.name}.{ind.id}",
                ind.span,
                f"individuals {seen_display[ind.display_name]!r} and "
                f"{ind.id!r} share the display name {ind.display_name!r}",
            ))
        else:
            seen_display[ind.display_name] = ind.id

    # Subject / input / output types ---------------------------------------
    part_defs: list[Element] = []
    item_defs: list[Element] = []
    type_usages: list[Element] = []
    typed: set[str] = set()

    def declare_type(type_name: str, kind_def: ElementKind, kind_use: ElementKind) -> None:
        if type_name in typed:
            return
        typed.add(type_name)
        bucket = part_defs if kind_def is ElementKind.PART_DEF else item_defs
        bucket.append(Element(kind_def, name=claim(type_name)))
        type_usages.append(
            Element(kind_use, name=claim(_lower(type_name)), relationships=_typing(type_name))
        )

    for rd in ctx.root_definitions:
        tr = rd.transformation
        declare_type(tr.subject_type, ElementKind.PART_DEF, ElementKind.PART)
        for _, type_name in tr.inputs + tr.outputs:
            declare_type(type_name, ElementKind.ITEM_DEF, ElementKind.ITEM)

    # Per-root-definition structure ------------------------------------------
    suffixed = len(ctx.root_definitions) > 1
    models = {cm.root_definition_id.id: cm for cm in ctx.conceptual_models}
    has_rd = bool(ctx.root_definitions)

    env_def = environment_def(options) if has_rd else None
    if env_def is not None:
        claim(env_def.name or "")
    ec_defs: list[Element] = []
    concerns: list[Element] = []
    viewpoints: list[Element] = []
    views: list[Element] = []
    uc_defs: list[Element] = []
    parts: list[Element] = []
    prov_roles: list[tuple[Element, CatwoeRole | None]] = []
    state_defs: set[str] = set()

    for rd in ctx.root_definitions:
        names = _rd_names(rd, options, suffixed, claim)
        cm = models.get(rd.id)
        if cm is None:
            warnings.append(COMPILE_CODES["W-NOCM"].at(
                f"{ctx.name}.{names.part}.{names.use_case}",
                rd.span,
                f"root definition {rd.id!r} has no conceptual model; "
                "the use case body holds no activities",
            ))
        for ec in rd.environmental_constraints:
            if ec.expr is None:
                warnings.append(COMPILE_CODES["W-NOEXPR"].at(
                    f"{ctx.name}.{names.ec_names[ec.id]}",
                    ec.span,
                    f"environmental constraint {ec.id!r} has no expression; "
                    "a placeholder `true` constraint was emitted",
                ))
            ec_defs.append(_ec_requirement(ec, names.ec_names, options))
            prov_roles.append((ec_defs[-1], CatwoeRole.ENVIRONMENT))
        if not rd.environmental_constraints and env_def is not None:
            prov_roles.append((env_def, CatwoeRole.ENVIRONMENT))

        owner_concern = _owner_concern(rd, names, options)
        customer_concern = _customer_concern(rd, names, options)
        concerns.extend((owner_concern, customer_concern))
        viewpoint = _viewpoint(rd, names, options)
        viewpoints.append(viewpoint)
        views.append(_view(names, options))
        uc_def = _use_case_def(names, options)
        uc_defs.append(uc_def)
        part = _transformation_part(rd, cm, names, options)
        parts.append(part)

        if rd.id in options.state_pattern:
            _add_state_pattern(rd, part_defs, state_defs)

        ucase = part.children[1]
        prov_roles.append((ucase, CatwoeRole.TRANSFORMATION))
        prov_roles.append((viewpoint, CatwoeRole.WORLDVIEW))
        prov_roles.append((part.children[0], None))
        for child in owner_concern.children:
            if child.kind is ElementKind.STAKEHOLDER:
                prov_roles.append((child, CatwoeRole.OWNER))
        for child in customer_concern.children:
            if child.kind is ElementKind.STAKEHOLDER:
                prov_roles.append((child, CatwoeRole.CUSTOMER))
        for child in ucase.children:
            if child.kind is ElementKind.ACTOR:
                prov_roles.append((child, CatwoeRole.ACTOR))
            elif child.kind is ElementKind.ACTION:
                prov_roles.append((child, None))

    # Assemble ---------------------------------------------------------------
    members: list[Element] = list(scaffolding())
    members.extend(individuals)
    members.extend(part_defs)
    members.extend(item_defs)
    members.extend(type_usages)
    if env_def is not None:
        members.append(env_def)
    members.extend(ec_defs)
    if has_rd:
        members.append(Element(ElementKind.CONCERN_DEF, name=claim(options.owner_concern_def)))
        members.append(
            Element(ElementKind.CONCERN_DEF, name=claim(options.customer_concern_def))
        )
    members.extend(concerns)
    if has_rd:
        members.append(
            Element(
                ElementKind.VIEWPOINT_DEF,
                name=claim(options.viewpoint_def),
                children=(catwoe_tag(CatwoeRole.WORLDVIEW),),
            )
        )
    members.extend(viewpoints)
    members.extend(views)
    if has_rd:
        members.append(
            Element(ElementKind.USE_CASE_DEF, name=claim(options.transformation_def))
        )
    members.extend(uc_defs)
    members.extend(parts)

    model = Element(
        ElementKind.PACKAGE, name=ctx.name, children=tuple(members), span=ctx.span
    )

    index = ModelIndex(model)
    provenance: list[ProvenanceEntry] = []
    for ind in ctx.individuals:
        path = index.path(_find_occurrence(individuals, ind.id))
        if path is not None:
            provenance.append(ProvenanceEntry(qname_text(path), ind.span, None))
    for element, role in prov_roles:
        path = index.path(element)
        if path is not None:
            provenance.append(ProvenanceEntry(qname_text(path), element.span, role))

    report = MappingReport(tuple(provenance), tuple(warnings))
    return model, report


def _find_occurrence(individuals: tuple[Element, ...], ind_id: str) -> Element | None:
    for el in individuals:
        if el.kind is ElementKind.INDIVIDUAL and el.name == ind_id:
            return el
    return None


def _add_state_pattern(
    rd: RootDefinition, part_defs: list[Element], state_defs: set[str]
) -> None:
    """Give the subject's definition an idle->transformed state machine."""
    type_name = rd.transformation.subject_type
    for i, part_def in enumerate(part_defs):
        if part_def.name != type_name:
            continue
        extra: tuple[Element, ...] = ()
        if type_name not in state_defs:
            state_defs.add(type_name)
            extra = (
                Element(ElementKind.STATE, name="idle"),
                Element(ElementKind.STATE, name="transformed"),
            )
        transition = Element(
            ElementKind.TRANSITION,
            name=f"t_{rd.id}",
            source="idle",
            target="transformed",
            trigger=(f"{rd.id}Done",),
        )
        part_defs[i] = part_def.with_children(part_def.children + extra + (transition,))
        return
