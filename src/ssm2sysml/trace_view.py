"""Traceability graph, metadata/type filters, and textual view rendering.

The graph is derived purely from the model and is rebuildable at any
time; it carries no independent state.  Edge direction encodes "serves"
semantics so that backward reachability from a concern collects every
element that ultimately supports it:

    typedBy     usage -> its definition
    subsets     usage -> subsetted element; for an actor inside a use
                case the edge is hoisted to occurrence -> use case, and
                for a stakeholder inside a concern to occurrence -> concern
    redefines   usage -> redefined feature
    subjectOf   use case -> its subject target, and subject target -> concern
    objectiveOf referenced requirement -> use case
    frames      viewpoint -> concern; an objective's frame is hoisted
                to use case -> concern
    satisfies   view -> viewpoint
    exposes     view -> exposed element
    refines     requirement -> refined requirement
    binds       bound usage -> bound element
"""
from __future__ import annotations

from dataclasses import field

from .errors import UnknownElement, UnknownMetadataDef, UnknownType
from .exprs import Binary, Unary
from .source import record
from .sysml_ast import (
    Element,
    ElementKind,
    FHasMeta,
    FILTER_OPS,
    FKind,
    FMetaEq,
    FTyped,
    FilterExpr,
    ModelIndex,
    Position,
    QName,
    RelKind,
    bound,
    iter_walk,
    qname,
    qname_text,
    segment,
    unknown_element,
)

# Relationships that become one edge from the element to the target.
_DIRECT = {
    RelKind.TYPING: "typedBy",
    RelKind.REDEFINES: "redefines",
    RelKind.REFINES: "refines",
    RelKind.SATISFIES: "satisfies",
    RelKind.EXPOSES: "exposes",
    RelKind.BINDING: "binds",
}
# With objective requirements, the only elements whose edges are hoisted
# to an enclosing use case or concern.
_HOISTING = frozenset({ElementKind.ACTOR, ElementKind.STAKEHOLDER, ElementKind.SUBJECT})

EDGE_KINDS = frozenset(
    {*_DIRECT.values(), "frames", "subsets", "objectiveOf", "performs", "subjectOf"}
)


@record
class TraceEdge:
    source: QName
    target: QName
    kind: str


@record
class TraceGraph:
    """Nodes and edges; the node set and each node's outgoing and incoming
    edges are derived once, eagerly since slots rule out `cached_property`."""

    nodes: tuple[QName, ...]
    edges: tuple[TraceEdge, ...]
    node_set: frozenset[QName] = field(init=False, compare=False, repr=False)
    outgoing: dict[QName, list[TraceEdge]] = field(init=False, compare=False, repr=False)
    incoming: dict[QName, list[TraceEdge]] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        outgoing: dict[QName, list[TraceEdge]] = {}
        incoming: dict[QName, list[TraceEdge]] = {}
        for edge in self.edges:
            outgoing.setdefault(edge.source, []).append(edge)
            incoming.setdefault(edge.target, []).append(edge)
        object.__setattr__(self, "node_set", frozenset(self.nodes))
        object.__setattr__(self, "outgoing", outgoing)
        object.__setattr__(self, "incoming", incoming)


def build_graph(model: Element) -> TraceGraph:
    """One node per element, one edge per relationship instance."""
    index = ModelIndex(model)
    nodes = tuple(path for _, path in index.pairs)
    edges: list[TraceEdge] = []

    def add(source: QName | None, target: QName | None, kind: str) -> None:
        if source is not None and target is not None:
            edges.append(TraceEdge(source, target, kind))

    use_cases = frozenset({ElementKind.USE_CASE, ElementKind.USE_CASE_DEF})
    concerns = frozenset({ElementKind.CONCERN, ElementKind.CONCERN_DEF})

    for element, path in index.pairs:
        in_objective = element.kind is ElementKind.REQUIREMENT and element.is_objective
        hoists = in_objective or element.kind in _HOISTING
        ucase_path = index.enclosing(path, use_cases) if hoists else None
        concern_path = index.enclosing(path, concerns) if hoists else None

        for rel in element.relationships:
            target = index.resolve_relative(path, rel.target)
            resolved = None if target is None else target[1]
            if rel.kind in _DIRECT:
                add(path, resolved, _DIRECT[rel.kind])
            elif rel.kind is RelKind.REFERENCES:
                if in_objective and ucase_path is not None:
                    add(resolved, ucase_path, "objectiveOf")
            elif rel.kind is RelKind.FRAMES:
                if in_objective and ucase_path is not None:
                    add(ucase_path, resolved, "frames")
                else:
                    add(path, resolved, "frames")
            elif rel.kind is RelKind.SUBSETS:
                if element.kind is ElementKind.ACTOR and ucase_path is not None:
                    add(resolved, ucase_path, "subsets")
                elif element.kind is ElementKind.STAKEHOLDER and concern_path is not None:
                    add(resolved, concern_path, "subsets")
                elif element.kind is ElementKind.SUBJECT and ucase_path is not None:
                    add(ucase_path, resolved, "subjectOf")
                elif element.kind is ElementKind.SUBJECT and concern_path is not None:
                    add(resolved, concern_path, "subjectOf")
                else:
                    add(path, resolved, "subsets")

        if element.performer is not None:
            performer = index.resolve_relative(path, element.performer)
            if performer is not None and performer[0].kind is ElementKind.ACTOR:
                # Trace through the local actor usage to the occurrence.
                occurrences = index.targets(*performer, RelKind.SUBSETS)
                performer = occurrences[0] if occurrences else performer
            if performer is not None:
                add(path, performer[1], "performs")

    return TraceGraph(nodes, tuple(edges))


def reach(
    graph: TraceGraph,
    start: QName | str,
    direction: str = "forward",
    kinds: frozenset[str] | None = None,
) -> set[QName]:
    """Transitive closure along permitted edge kinds; includes `start`."""
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward, not {direction!r}")
    path = qname(start) if isinstance(start, str) else start
    if path not in graph.node_set:
        raise unknown_element(path, graph.node_set)
    forward = direction == "forward"
    adjacency = graph.outgoing if forward else graph.incoming
    seen = {path}
    frontier = [path]
    while frontier:
        for edge in adjacency.get(frontier.pop(), ()):
            if kinds is not None and edge.kind not in kinds:
                continue
            nxt = edge.target if forward else edge.source
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# Filters


def evaluate_filter(model: Element, expr: FilterExpr) -> set[QName]:
    """Paths of exactly the elements satisfying `expr`.

    Metadata tags are inherited through typing chains.  Raises
    UnknownMetadataDef / UnknownType when an atom names nothing in the
    model, UnknownElement when no such metadata definition declares the
    attribute an atom compares, and TypeError for a node no filter holds.
    """
    index = ModelIndex(model)
    _validate_atoms(index, expr)
    return {pair[1] for pair in index.pairs if _matches(index, pair, expr)}


def _validate_atoms(index: ModelIndex, expr: FilterExpr) -> None:
    if isinstance(expr, Binary) and expr.op in FILTER_OPS:
        _validate_atoms(index, expr.left)
        _validate_atoms(index, expr.right)
    elif isinstance(expr, Unary) and expr.op == "not":
        _validate_atoms(index, expr.operand)
    elif isinstance(expr, (FHasMeta, FMetaEq)):
        name = expr.metadata_def[-1]
        found = False  # a definition of that name; stop at one that declares the attribute
        for el, _ in iter_walk(index.model):
            if el.kind is ElementKind.METADATA_DEF and el.name == name:
                found = True
                members = {member.name for member in el.children}
                if not isinstance(expr, FMetaEq) or expr.attribute in members:
                    return
        raise UnknownElement(f"{name}.{expr.attribute}", name) if found else UnknownMetadataDef(name)
    elif isinstance(expr, FTyped):
        name = expr.type_name[-1]
        if not any(el.name == name and el.is_def for el, _ in iter_walk(index.model)):
            raise UnknownType(name)
    elif not isinstance(expr, FKind):
        raise TypeError(f"not a filter expression: {expr!r}")


def _matches(index: ModelIndex, position: Position, expr: FilterExpr) -> bool:
    if isinstance(expr, Binary) and expr.op == "and":
        return _matches(index, position, expr.left) and _matches(index, position, expr.right)
    if isinstance(expr, Binary) and expr.op == "or":
        return _matches(index, position, expr.left) or _matches(index, position, expr.right)
    if isinstance(expr, Unary) and expr.op == "not":
        return not _matches(index, position, expr.operand)
    if isinstance(expr, FHasMeta):
        return any(
            app.meta_def and app.meta_def[-1] == expr.metadata_def[-1]
            for app in index.effective_metadata(*position)
        )
    if isinstance(expr, FMetaEq):
        apps = index.effective_metadata(*position)
        return expr.literal in bound(apps, expr.metadata_def[-1], expr.attribute)
    if isinstance(expr, FTyped):
        return any(
            _names_match(*reached, expr.type_name) for reached in index.typed_by(*position)[1:]
        )
    return position[0].kind.value == expr.kind  # an FKind, as `_validate_atoms` checked


def _names_match(element: Element, path: QName, type_name: QName) -> bool:
    if len(type_name) == 1:
        return element.name == type_name[0]
    return path[-len(type_name):] == type_name


# ---------------------------------------------------------------------------
# View rendering


def render_view(model: Element, view_path: QName | str) -> tuple[set[QName], str]:
    """Exposed subtrees intersected with the view's filter, plus a report."""
    path = qname(view_path) if isinstance(view_path, str) else view_path
    index = ModelIndex(model)
    found = index.get(path)
    if found is None and len(path) == 1:
        # Allow addressing a top-level view without the package prefix.
        found = index.get((segment(model, 0),) + path)
    if found is None or found[0].kind is not ElementKind.VIEW:
        raise unknown_element(found[1] if found else path, index.by_path)
    view, path = found

    roots = dict.fromkeys(root for _, root in index.targets(view, path, RelKind.EXPOSES))
    members = [pair for root in roots for pair in index.subtree(root)]
    kinds = {p: element.kind for element, p in members}
    exposed = set(kinds)
    if view.filter is not None:
        _validate_atoms(index, view.filter)
        exposed = {pair[1] for pair in members if _matches(index, pair, view.filter)}

    report = _grouped_report(view, exposed, kinds)
    return exposed, report


def _grouped_report(view: Element, paths: set[QName], kinds: dict[QName, ElementKind]) -> str:
    lines = [f"view {view.name!r}: {len(paths)} elements"]
    groups: dict[str, list[str]] = {}
    for path in paths:
        groups.setdefault(kinds[path].value, []).append(qname_text(path))
    for kind in sorted(groups):
        lines.append(f"  {kind}:")
        for name in sorted(groups[kind]):
            lines.append(f"    {name}")
    return "\n".join(lines)


def query_json(query: str, elements: set[QName]) -> dict:
    """Stable JSON shape shared by the trace and view commands."""
    return {"query": query, "elements": sorted(qname_text(p) for p in elements)}
