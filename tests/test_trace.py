"""Traceability graph, reachability, filter algebra, and view rendering."""
from __future__ import annotations

import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from ssm2sysml import (
    Element,
    ElementKind,
    TraceEdge,
    TraceGraph,
    UnknownElement,
    UnknownMetadataDef,
    UnknownType,
    build_graph,
    emit,
    evaluate_filter,
    parse_sysml,
    reach,
    render_view,
)
from ssm2sysml.sysml_ast import (
    FAnd,
    FHasMeta,
    FKind,
    FMetaEq,
    FNot,
    FOr,
    FTyped,
    RelKind,
    Relationship,
    iter_walk,
    qname_text,
)
from ssm2sysml.exprs import EnumLit, Lit
from ssm2sysml.trace_view import EDGE_KINDS, query_json

from conftest import count_elements
from model_gen import gen_model

ORACLE_SEEDS = range(10)

GOLDEN_KINDS = frozenset(
    {"frames", "satisfies", "subsets", "objectiveOf", "performs", "subjectOf"}
)


def _bfs_oracle(graph: TraceGraph, start, direction, kinds):
    """Independent reachability: plain set-based BFS over the raw edge list."""
    frontier = {start}
    seen = {start}
    while frontier:
        nxt = set()
        for edge in graph.edges:
            if kinds is not None and edge.kind not in kinds:
                continue
            a, b = (edge.source, edge.target) if direction == "forward" else (
                edge.target,
                edge.source,
            )
            if a in frontier and b not in seen:
                nxt.add(b)
        seen |= nxt
        frontier = nxt
    return seen


def test_graph_shape(case_model, kettle_model):
    for model in [case_model, kettle_model] + [gen_model(s) for s in ORACLE_SEEDS]:
        graph = build_graph(model)
        assert len(graph.nodes) == count_elements(model)
        node_set = set(graph.nodes)
        for edge in graph.edges:
            assert edge.source in node_set and edge.target in node_set
            assert edge.kind in EDGE_KINDS


def test_edge_kinds_catalog():
    assert EDGE_KINDS == frozenset(
        {
            "frames",
            "satisfies",
            "subsets",
            "redefines",
            "typedBy",
            "refines",
            "exposes",
            "objectiveOf",
            "performs",
            "subjectOf",
            "binds",
        }
    )


def test_golden_backward_query(case_model):
    graph = build_graph(case_model)
    result = reach(graph, "Context.resources", "backward", GOLDEN_KINDS)
    names = {qname_text(p) for p in result}
    assert {
        "Context.resources",
        "Context.licenseManagement",
        "Context.License Allocation",
        "Context.it",
        "Context.manager",
        "Context.EC1",
        "Context.EC2",
        "Context.transformationSystem.assignLicense",
        "Context.transformationSystem.roleA_NewHire",
    } <= names
    for i in range(1, 6):
        assert f"Context.transformationSystem.assignLicense.a{i}" in names
    # newHire fills no role, so nothing traces to the owner concern from it.
    assert "Context.newHire" not in names


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_reach_matches_independent_bfs(case_model, kettle_model, direction):
    graph = build_graph(case_model)
    samples = [
        ("Context", "resources"),
        ("Context", "EC1"),
        ("Context", "transformationSystem", "assignLicense"),
        ("Context", "License Allocation"),
    ]
    for start in samples:
        for kinds in (None, GOLDEN_KINDS, frozenset({"typedBy"})):
            assert reach(graph, start, direction, kinds) == _bfs_oracle(
                graph, start, direction, kinds
            )
    for model in [kettle_model] + [gen_model(s) for s in ORACLE_SEEDS]:
        graph = build_graph(model)
        for start in graph.nodes:
            for kinds in (None, GOLDEN_KINDS):
                assert reach(graph, start, direction, kinds) == _bfs_oracle(
                    graph, start, direction, kinds
                )


def test_reach_includes_start_and_accepts_string(case_model):
    graph = build_graph(case_model)
    result = reach(graph, "Context.newHire", "forward", frozenset({"frames"}))
    assert result == {("Context", "newHire")}


def test_reach_unknown_element_reports_prefix(case_model):
    graph = build_graph(case_model)
    with pytest.raises(UnknownElement) as exc:
        reach(graph, "Context.transformationSystem.missing", "forward")
    assert exc.value.prefix == "Context.transformationSystem"


def test_reach_rejects_bad_direction(case_model):
    graph = build_graph(case_model)
    with pytest.raises(ValueError):
        reach(graph, "Context.resources", "sideways")


def test_adding_an_edge_never_shrinks_reach(case_model):
    graph = build_graph(case_model)
    bigger = TraceGraph(
        graph.nodes,
        graph.edges
        + (TraceEdge(("Context", "newHire"), ("Context", "resources"), "subsets"),),
    )
    for start in (("Context", "newHire"), ("Context", "resources")):
        assert reach(graph, start, "forward") <= reach(bigger, start, "forward")


def _regrouped(edges, end: str) -> dict:
    groups: dict = {}
    for edge in edges:
        groups.setdefault(getattr(edge, end), []).append(edge)
    return groups


@pytest.mark.parametrize("source", ["case", "kettle", *range(40)])
def test_adjacency_regroups_the_edges(case_model, kettle_model, source):
    model = {"case": case_model, "kettle": kettle_model}.get(source) or gen_model(source)
    graph = build_graph(model)
    assert graph.node_set == frozenset(graph.nodes)
    assert graph.outgoing == _regrouped(graph.edges, "source")
    assert graph.incoming == _regrouped(graph.edges, "target")
    # The adjacency holds the graph's own edge objects, not copies.
    held = {id(e) for group in graph.outgoing.values() for e in group}
    assert held == {id(e) for e in graph.edges}


def test_hand_built_graph_compares_by_nodes_and_edges():
    a, b, c = ("P",), ("P", "a"), ("P", "b")
    edges = (TraceEdge(b, a, "typedBy"), TraceEdge(c, b, "subsets"))
    graph = TraceGraph((a, b, c), edges)
    assert reach(graph, c, "forward") == {a, b, c}
    assert reach(graph, a, "backward", frozenset({"typedBy"})) == {a, b}
    same = TraceGraph((a, b, c), tuple(edges))
    assert graph == same and hash(graph) == hash(same)
    assert {graph: 1}[same] == 1
    assert graph != TraceGraph((a, b, c), edges[:1])
    assert repr(graph) == f"TraceGraph(nodes={(a, b, c)!r}, edges={edges!r})"
    assert [f.name for f in fields(TraceGraph) if f.compare] == ["nodes", "edges"]
    shorter = replace(graph, edges=edges[:1])
    assert reach(shorter, c, "forward") == {c}
    with pytest.raises(FrozenInstanceError):
        graph.outgoing = {}


class _SealedEdges(tuple):
    """Edges that may be iterated while a graph is built from them, not after."""

    sealed = False

    def __iter__(self):
        if self.sealed:
            raise AssertionError("graph.edges iterated after construction")
        return super().__iter__()


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_reach_never_iterates_the_edges(case_model, direction):
    graph = build_graph(case_model)
    edges = _SealedEdges(graph.edges)
    sealed = TraceGraph(graph.nodes, edges)
    edges.sealed = True
    for start in graph.nodes:
        for kinds in (None, GOLDEN_KINDS):
            assert reach(sealed, start, direction, kinds) == reach(graph, start, direction, kinds)
    with pytest.raises(AssertionError):
        list(sealed.edges)


def test_graph_survives_round_trip(case_model):
    reparsed = parse_sysml(emit(case_model), "rt")
    a, b = build_graph(case_model), build_graph(reparsed)
    assert a.nodes == b.nodes
    assert sorted(map(repr, a.edges)) == sorted(map(repr, b.edges))


# --- filters -----------------------------------------------------------------

ACTOR_EQ = FMetaEq(("CATWOE",), "element", EnumLit(("CatwoeElement",), "Actor"))
TRANSFORMATION_EQ = FMetaEq(
    ("CATWOE",), "element", EnumLit(("CatwoeElement",), "Transformation")
)


def test_transformation_filter_is_exact(case_model):
    result = evaluate_filter(case_model, TRANSFORMATION_EQ)
    assert {qname_text(p) for p in result} == {
        "Context.AssignLicense",
        "Context.transformationSystem.assignLicense",
    }


def test_filter_inheritance_through_typing(case_model):
    env = evaluate_filter(
        case_model,
        FMetaEq(("CATWOE",), "element", EnumLit(("CatwoeElement",), "Environment")),
    )
    assert {qname_text(p) for p in env} == {
        "Context.EnvironmentalConstraints",
        "Context.EC1",
        "Context.EC2",
    }


def test_has_meta_and_kind_atoms(case_model):
    tagged = evaluate_filter(case_model, FHasMeta(("CATWOE",)))
    assert ("Context", "manager") in tagged
    assert ("Context", "newHire") not in tagged
    views = evaluate_filter(case_model, FKind("view"))
    assert {qname_text(p) for p in views} == {"Context.License Allocation"}


def test_istype_excludes_the_type_itself(case_model):
    employees = evaluate_filter(case_model, FTyped(("Employee",)))
    names = {qname_text(p) for p in employees}
    assert names == {"Context.manager", "Context.it", "Context.newHire"}


def test_filter_unknown_names_raise(case_model):
    with pytest.raises(UnknownMetadataDef):
        evaluate_filter(case_model, FHasMeta(("Nonesuch",)))
    with pytest.raises(UnknownType):
        evaluate_filter(case_model, FTyped(("Nonesuch",)))


def _random_filter(rng: random.Random, depth: int):
    atoms = [
        FHasMeta(("CATWOE",)),
        FHasMeta(("Rationale",)),
        ACTOR_EQ,
        TRANSFORMATION_EQ,
        FTyped(("Employee",)),
        FTyped(("EnvironmentalConstraints",)),
        FKind("individual"),
        FKind("requirement_def"),
        FKind("action"),
    ]
    if depth <= 0:
        return rng.choice(atoms)
    roll = rng.random()
    if roll < 0.3:
        return FAnd(_random_filter(rng, depth - 1), _random_filter(rng, depth - 1))
    if roll < 0.6:
        return FOr(_random_filter(rng, depth - 1), _random_filter(rng, depth - 1))
    if roll < 0.8:
        return FNot(_random_filter(rng, depth - 1))
    return rng.choice(atoms)


def test_filter_algebra_laws(case_model):
    """∧ is intersection, ∨ is union, ¬ is complement — over 200 random pairs."""
    rng = random.Random(20240817)
    universe = {path for _, path in iter_walk(case_model)}
    for _ in range(200):
        a = _random_filter(rng, 2)
        b = _random_filter(rng, 2)
        sa = evaluate_filter(case_model, a)
        sb = evaluate_filter(case_model, b)
        assert evaluate_filter(case_model, FAnd(a, b)) == sa & sb
        assert evaluate_filter(case_model, FOr(a, b)) == sa | sb
        assert evaluate_filter(case_model, FNot(a)) == universe - sa
        # De Morgan, via the engine on both sides.
        assert evaluate_filter(case_model, FNot(FAnd(a, b))) == evaluate_filter(
            case_model, FOr(FNot(a), FNot(b))
        )


# --- views -------------------------------------------------------------------


def _with_view(model: Element, view: Element) -> Element:
    return replace(model, children=model.children + (view,))


def test_mapper_view_renders_empty(case_model):
    elements, report = render_view(case_model, "License Allocation")
    assert elements == set()
    assert report.splitlines()[0] == "view 'License Allocation': 0 elements"


def test_view_resolves_with_or_without_package_prefix(case_model):
    a, _ = render_view(case_model, "Context.License Allocation")
    b, _ = render_view(case_model, "License Allocation")
    assert a == b


def test_exposed_subtree_intersected_with_filter(case_model):
    view = Element(
        ElementKind.VIEW,
        name="probe",
        relationships=(Relationship(RelKind.EXPOSES, ("transformationSystem",)),),
        filter=FHasMeta(("CATWOE",)),
    )
    model = _with_view(case_model, view)
    elements, report = render_view(model, "probe")
    subtree = {
        path
        for _, path in iter_walk(model)
        if path[:2] == ("Context", "transformationSystem")
    }
    oracle = subtree & evaluate_filter(model, FHasMeta(("CATWOE",)))
    assert elements == oracle
    assert ("Context", "transformationSystem", "assignLicense") in elements
    assert f"{len(elements)} elements" in report


def test_expose_without_filter_returns_subtree(case_model):
    view = Element(
        ElementKind.VIEW,
        name="everything",
        relationships=(Relationship(RelKind.EXPOSES, ("resources",)),),
    )
    model = _with_view(case_model, view)
    elements, _ = render_view(model, "everything")
    assert elements == {
        path for _, path in iter_walk(model) if path[:2] == ("Context", "resources")
    }


def test_render_view_unknown_name(case_model):
    with pytest.raises(UnknownElement):
        render_view(case_model, "noSuchView")


def test_report_groups_by_kind(case_model):
    view = Element(
        ElementKind.VIEW,
        name="people",
        relationships=(
            Relationship(RelKind.EXPOSES, ("manager",)),
            Relationship(RelKind.EXPOSES, ("it",)),
        ),
        filter=FKind("individual"),
    )
    _, report = render_view(_with_view(case_model, view), "people")
    lines = report.splitlines()
    assert lines[0] == "view 'people': 2 elements"
    assert any("individual" in line for line in lines[1:])


def test_query_json_shape():
    payload = query_json("demo", {("P", "b"), ("P", "a")})
    assert payload == {"query": "demo", "elements": ["P.a", "P.b"]}


def test_filter_literal_must_match_exactly(case_model):
    # A string literal never equals the enum literal with the same spelling.
    result = evaluate_filter(
        case_model, FMetaEq(("CATWOE",), "element", Lit("Actor"))
    )
    assert result == set()
