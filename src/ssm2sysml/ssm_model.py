"""Domain types for the SSM side: individuals, root definitions, conceptual models.

All types are immutable after construction and safe to share across
threads.  Structural equality ignores source spans, so a parse/format
round trip compares equal.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter

from .diagnostics import COMPILE_CODES, Diagnostic
from .exprs import Expr
from .source import SourceSpan


@enum.unique
class CatwoeRole(enum.Enum):
    """The six root-definition roles, ordered C < A < T < W < O < E."""

    CUSTOMER = 0
    ACTOR = 1
    TRANSFORMATION = 2
    WORLDVIEW = 3
    OWNER = 4
    ENVIRONMENT = 5

    def __lt__(self, other: "CatwoeRole") -> bool:
        return self.value < other.value

    @property
    def label(self) -> str:
        return self.name.capitalize()


@dataclass(frozen=True)
class IdRef:
    """Reference to an individual/activity/constraint by id, with its own span."""

    id: str
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Individual:
    id: str
    display_name: str
    definition_type: str
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class EnvConstraint:
    id: str
    text: str
    expr: Expr | None = None
    kind: str = "require"  # require | assume | assert
    refines: IdRef | None = None
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Transformation:
    statement: str
    subject_name: str
    subject_type: str
    inputs: tuple[tuple[str, str], ...] = ()
    outputs: tuple[tuple[str, str], ...] = ()
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class RootDefinition:
    id: str
    customers: tuple[IdRef, ...]
    actors: tuple[IdRef, ...]
    owner: IdRef
    transformation: Transformation
    worldview: str
    environmental_constraints: tuple[EnvConstraint, ...] = ()
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Activity:
    id: str
    label: str
    performed_by: IdRef
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Flow:
    source: IdRef
    target: IdRef
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class MonitorLink:
    id: str
    label: str
    controls: tuple[IdRef, ...]
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ConceptualModel:
    root_definition_id: IdRef
    activities: tuple[Activity, ...]
    flows: tuple[Flow, ...] = ()
    monitors: tuple[MonitorLink, ...] = ()
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SsmContext:
    name: str
    file: str = field(default="<memory>", compare=False)
    individuals: tuple[Individual, ...] = ()
    root_definitions: tuple[RootDefinition, ...] = ()
    conceptual_models: tuple[ConceptualModel, ...] = ()
    span: SourceSpan | None = field(default=None, compare=False)

    def root_definition(self, id: str) -> RootDefinition | None:
        for rd in self.root_definitions:
            if rd.id == id:
                return rd
        return None


def validate_context(ctx: SsmContext) -> list[Diagnostic]:
    """Referential-integrity gate run before mapping.

    Returns an empty list iff every invariant holds.  Violations are
    data, not failures; diagnostics come back ordered by source
    position.  Pure and deterministic.
    """
    diags: list[Diagnostic] = []

    def err(code: str, path: str, span: SourceSpan | None, message: str) -> None:
        diags.append(COMPILE_CODES[code].at(path, span, message))

    def resolve(ref: IdRef, ids: set[str], path: str, span: SourceSpan | None, text: str) -> bool:
        """Whether `ref` names one of `ids`; if not, SSM-001 at the reference."""
        if ref.id not in ids:
            err("SSM-001", path, ref.span or span, text)
        return ref.id in ids

    known = {ind.id for ind in ctx.individuals}
    # The parser refuses a repeated top-level id; a context built in memory may hold one.
    for top in _repeats((*ctx.individuals, *ctx.root_definitions)):
        err("SSM-004", top.id, top.span, f"top-level id {top.id!r} is declared twice")
    for cm in _repeats(ctx.conceptual_models, attrgetter("root_definition_id.id")):
        err("SSM-004", f"cm:{cm.root_definition_id.id}", cm.span,
            f"root definition {cm.root_definition_id.id!r} has a second conceptual model")

    for ind in ctx.individuals:
        if not ind.display_name:
            err("SSM-005", ind.id, ind.span, f"individual {ind.id!r} has an empty display name")
        if not ind.definition_type:
            err("SSM-005", ind.id, ind.span, f"individual {ind.id!r} has an empty definition type")

    for rd in ctx.root_definitions:
        path = rd.id

        for role, refs in (("customer", rd.customers), ("actor", rd.actors), ("owner", [rd.owner])):
            if not refs:  # `.ssm` has no way to write an empty list
                err("SSM-005", path, rd.span, f"root definition {rd.id!r} has an empty {role} list")
            for ref in refs:
                resolve(ref, known, path, rd.span, f"{role} {ref.id!r} in root definition "
                        f"{rd.id!r} does not name a declared individual")

        if not rd.worldview:
            err("SSM-005", path, rd.span, f"root definition {rd.id!r} has an empty worldview")

        tr = rd.transformation
        if not tr.statement:
            err("SSM-005", path, tr.span or rd.span, f"transformation of {rd.id!r} has an empty statement")
        if not tr.subject_name or not tr.subject_type:
            err("SSM-005", path, tr.span or rd.span, f"transformation of {rd.id!r} lacks a subject")
        for name, _ in _repeats(tr.inputs + tr.outputs, itemgetter(0)):
            err("SSM-004", path, tr.span or rd.span,
                f"transformation of {rd.id!r} declares input/output name {name!r} twice")
        for what, records in (("customer", rd.customers), ("actor", rd.actors),
                              ("environmental constraint", rd.environmental_constraints)):
            for record in _repeats(records):
                err("SSM-004", path, record.span or rd.span,
                    f"root definition {rd.id!r} declares {what} {record.id!r} twice")

        ec_ids = {ec.id for ec in rd.environmental_constraints}
        for ec in rd.environmental_constraints:
            if not ec.text:
                err("SSM-005", f"{path}.{ec.id}", ec.span, f"environmental constraint {ec.id!r} has empty text")
            if ec.refines is not None:
                resolve(ec.refines, ec_ids - {ec.id}, f"{path}.{ec.id}", ec.span,
                        f"environmental constraint {ec.id!r} refines unknown "
                        f"constraint {ec.refines.id!r}")

    rd_ids = {rd.id for rd in ctx.root_definitions}
    for cm in ctx.conceptual_models:
        cm_path = f"cm:{cm.root_definition_id.id}"
        rd = ctx.root_definition(cm.root_definition_id.id)
        resolve(cm.root_definition_id, rd_ids, cm_path, cm.span,
                f"conceptual model references unknown root definition {cm.root_definition_id.id!r}")

        act_ids = {a.id for a in cm.activities}
        # Each kind apart: an activity and a monitor may share an id.
        for what, records in (("activity", cm.activities), ("monitor", cm.monitors)):
            for record in _repeats(records):
                err("SSM-004", f"{cm_path}.{record.id}", record.span,
                    f"conceptual model of {cm.root_definition_id.id!r} declares {what} {record.id!r} twice")
        performers: set[str] = set()
        if rd is not None:
            performers = {ref.id for ref in rd.actors} | {rd.owner.id}
        for act in cm.activities:
            if not resolve(act.performed_by, known, f"{cm_path}.{act.id}", act.span,
                           f"activity {act.id!r} is performed by unknown individual "
                           f"{act.performed_by.id!r}"):
                continue
            if rd is not None and act.performed_by.id not in performers:
                err(
                    "SSM-002",
                    f"{cm_path}.{act.id}",
                    act.performed_by.span or act.span,
                    f"activity {act.id!r} is performed by {act.performed_by.id!r}, "
                    "who is neither an actor nor the owner of the root definition",
                )
        for flow in cm.flows:
            for ref in (flow.source, flow.target):
                resolve(ref, act_ids, cm_path, flow.span,
                        f"flow endpoint {ref.id!r} does not name an activity")
        for mon in cm.monitors:
            for ref in mon.controls:
                resolve(ref, act_ids, f"{cm_path}.{mon.id}", mon.span,
                        f"monitor {mon.id!r} controls unknown activity {ref.id!r}")

        cycle = _find_cycle(cm)
        if cycle:
            err(
                "SSM-003",
                cm_path,
                cm.span,
                "conceptual model flows contain a cycle: " + " -> ".join(cycle),
            )

    diags.sort(key=Diagnostic.sort_key)
    return diags


def _repeats(records, key=attrgetter("id")):
    """Each record whose key an earlier record already has, in order."""
    seen: set = set()
    for record in records:
        if (k := key(record)) in seen:
            yield record
        seen.add(k)


def _find_cycle(cm: ConceptualModel) -> list[str] | None:
    """Return one flow cycle as a node list (closed), or None."""
    adjacency: dict[str, list[str]] = {a.id: [] for a in cm.activities}
    for flow in cm.flows:
        if flow.source.id in adjacency and flow.target.id in adjacency:
            adjacency[flow.source.id].append(flow.target.id)

    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in adjacency}
    for root in adjacency:
        if color[root] != WHITE:
            continue
        # Iterative DFS: `path` holds the grey nodes, `pending` the
        # unexplored successors of each, so long chains cannot overflow.
        color[root] = GREY
        path = [root]
        pending = [iter(adjacency[root])]
        while pending:
            for nxt in pending[-1]:
                if color[nxt] == GREY:
                    return path[path.index(nxt):] + [nxt]
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    pending.append(iter(adjacency[nxt]))
                    break
            else:
                color[path.pop()] = BLACK
                pending.pop()
    return None
