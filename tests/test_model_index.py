"""One shared ModelIndex per check, build_graph and render_view call.

`recorded_outputs.json` holds the diagnostics (rule, severity, element,
span, message), graph edges and view results that the implementation
in which each of check, trace and view walked ancestors and resolved
targets on its own computed for the models below.  The shared index
must reproduce them exactly.  To record again after a deliberate change
of outputs, run `PYTHONPATH=src python tests/test_model_index.py`.
"""
from __future__ import annotations

import functools
import json
import pathlib
import sys
from dataclasses import astuple, fields, replace

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from ssm2sysml import (
    Element,
    ElementKind,
    UnknownElement,
    UnknownMetadataDef,
    UnknownType,
    build_graph,
    check,
    emit,
    map_context,
    parse_ssm,
    parse_sysml,
    render_view,
)
from ssm2sysml import sysml_ast
from ssm2sysml.exprs import EnumLit
from ssm2sysml.sysml_ast import (
    FAnd,
    FHasMeta,
    FKind,
    FMetaEq,
    FNot,
    FTyped,
    ModelIndex,
    RelKind,
    Relationship,
    iter_walk,
)
from ssm2sysml.trace_view import TraceEdge

from model_gen import gen_model, gen_shared_model, package
from mutations import MUTATIONS, UC, drop_rels, edit
from ssm_gen import gen_context

HERE = pathlib.Path(__file__).resolve().parent
DATA = HERE.parent / "data"
RECORDED = HERE / "recorded_outputs.json"
GEN_SEEDS = range(40)
SSM_SEEDS = range(8)


def _view(name: str, exposed: tuple[str, ...], filter=None) -> Element:
    return Element(
        ElementKind.VIEW,
        name=name,
        relationships=tuple(Relationship(RelKind.EXPOSES, (t,)) for t in exposed),
        filter=filter,
    )


PROBE_VIEWS = (
    _view("all", ("transformationSystem", "resources", "EC2")),
    _view("tagged", ("transformationSystem",), FHasMeta(("CATWOE",))),
    _view(
        "actors",
        ("transformationSystem", "customerConcern"),
        FMetaEq(("CATWOE",), "element", EnumLit(("CatwoeElement",), "Actor")),
    ),
    _view("env", ("EC1", "EC2", "manager"), FNot(FTyped(("EnvironmentalConstraints",)))),
    _view("people", ("manager", "it", "newHire"), FAnd(FKind("individual"), FTyped(("Employee",)))),
    _view("nothing", ("noSuchElement",), FHasMeta(("CATWOE",))),
    _view("badMeta", ("resources",), FHasMeta(("Nonesuch",))),
    _view("badType", ("resources",), FTyped(("Nonesuch",))),
)


def _without_subject_or_references(ucase: Element) -> Element:
    unreferenced = drop_rels(RelKind.REFERENCES)
    return replace(
        ucase,
        children=tuple(
            unreferenced(c) if c.is_objective else c
            for c in ucase.children
            if c.kind is not ElementKind.SUBJECT
        ),
    )


def _views(model: Element) -> dict[str, object]:
    """Each view's sorted paths and report, or the name of the error it raises."""
    views: dict[str, object] = {}
    for element, path in iter_walk(model):
        if element.kind is not ElementKind.VIEW:
            continue
        try:
            elements, report = render_view(model, path)
        except (UnknownElement, UnknownMetadataDef, UnknownType) as exc:
            views[".".join(path)] = type(exc).__name__
        else:
            views[".".join(path)] = [sorted(elements), report]
    return views


@functools.lru_cache(maxsize=None)
def _models() -> dict[str, Element]:
    case = map_context(parse_ssm((DATA / "case_study.ssm").read_text(), "case_study.ssm"))[0]
    models = {
        "case": case,
        "kettle": parse_sysml((DATA / "kettle.sysml").read_text(), "kettle.sysml"),
        "case+views": replace(case, children=case.children + PROBE_VIEWS),
    }
    for rule_id, _, mutate in MUTATIONS:
        models[f"case/{rule_id}"] = mutate(case)
    # Two findings of one rule on one path, whose order must hold.
    models["case/R-TRF-1x2"] = edit(case, UC, _without_subject_or_references)
    models["case/view-tie"] = replace(
        case,
        children=case.children
        + (Element(ElementKind.VIEW, name="tie"), Element(ElementKind.VIEWPOINT, name="tie")),
    )
    for seed in GEN_SEEDS:
        models[f"gen{seed}"] = gen_model(seed)
    for seed in SSM_SEEDS:
        models[f"ssm{seed}"] = map_context(gen_context(seed))[0]
    return models


def _snapshot(model: Element) -> dict:
    graph = build_graph(model)
    assert graph.nodes == tuple(path for _, path in iter_walk(model))
    snapshot = {
        "diagnostics": [
            [d.rule_id, str(d.severity), d.element_path, d.span and astuple(d.span), d.message]
            for d in check(model)
        ],
        "edges": [[e.source, e.target, e.kind] for e in graph.edges],
        "views": _views(model),
    }
    return json.loads(json.dumps(snapshot))


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(RECORDED.read_text())


def test_recording_covers_every_model(recorded):
    assert sorted(recorded) == sorted(_models())


@pytest.mark.parametrize("name", list(_models()))
def test_outputs_match_recording(recorded, name):
    assert _snapshot(_models()[name]) == recorded[name]


def test_one_index_per_call(monkeypatch):
    built = []
    original = ModelIndex.__init__

    def counting_init(self, model):
        built.append(model)
        original(self, model)

    monkeypatch.setattr(ModelIndex, "__init__", counting_init)
    model = _models()["case+views"]
    for call in (
        lambda: check(model),
        lambda: build_graph(model),
        lambda: render_view(model, "tagged"),
        lambda: render_view(model, "all"),
    ):
        built.clear()
        call()
        assert built == [model]


# --- member tables memoized on the elements ------------------------------------


def _fresh(name: str) -> Element:
    """A freshly parsed copy of a model, whose elements hold no member table yet."""
    return parse_sysml(emit(_models()[name]), name)


def _tables(model: Element) -> dict[int, dict]:
    return {id(e): e._members for e, _ in iter_walk(model) if e._members is not None}


def test_render_view_indexes_only_the_namespaces_it_touches(monkeypatch):
    model = _fresh("case+views")
    namespaces = sum(1 for element, _ in iter_walk(model) if element.children)

    def no_full_walk(model):
        raise AssertionError("render_view walked the whole model")

    monkeypatch.setattr(sysml_ast, "walk", no_full_walk)
    for name, exposed in (("tagged", 3), ("all", 24)):
        paths, _ = render_view(model, name)
        assert len(paths) == exposed
    # The root's table and those of the two exposed namespaces in which the tagged
    # view resolves its members' typing: 3 of the 22 namespaces.
    assert len(_tables(model)) == 3 < namespaces


def test_a_repeated_view_builds_no_member_table():
    model = _fresh("case+views")
    assert _tables(model) == {}
    render_view(model, "all")
    assert list(_tables(model)) == [id(model)]  # the exposed subtrees are walked, not looked up
    render_view(model, "tagged")  # its filter resolves typing targets in further namespaces
    first = _tables(model)
    render_view(model, "all")
    render_view(model, "tagged")
    again = _tables(model)
    built = [key for key, table in again.items() if first.get(key) is not table]
    assert built == []


@pytest.mark.parametrize("name", ["case+views", *(f"gen{seed}" for seed in GEN_SEEDS)])
def test_views_agree_across_calls_and_copies(name):
    fresh = _fresh(name)
    first = _views(fresh)
    assert _views(fresh) == first
    assert _views(_fresh(name)) == first
    assert _views(_models()[name]) == first


def test_a_member_added_after_the_tables_are_built_is_found():
    model = _fresh("case")
    render_view(model, "License Allocation")
    assert model._members is not None
    late = _view("late", ("resources",))
    grown = replace(model, children=model.children + (late,))
    assert grown._members is None
    paths, report = render_view(grown, "late")
    assert report.startswith("view 'late': ") and ("Context", "resources") in paths
    with pytest.raises(UnknownElement):
        render_view(model, "late")


def test_element_compares_every_field_but_the_span_and_the_member_table():
    compared = [f.name for f in fields(Element) if f.compare]
    assert compared[0] == "kind" and compared[-1] == "children" and len(compared) == 29
    assert [f.name for f in fields(Element) if not f.compare] == ["span", "_members"]


def test_filled_tables_leave_equality_hash_and_repr_alone():
    model, twin = _fresh("case+views"), _fresh("case+views")
    before = (hash(model), repr(model))
    for view in ("all", "tagged", "actors", "people"):
        render_view(model, view)
    assert _tables(model) and not _tables(twin)
    assert model == twin
    assert hash(model) == hash(twin) == before[0]
    assert repr(model) == repr(twin) == before[1]


# --- one object at two positions ----------------------------------------------


def _outputs(model: Element) -> tuple:
    """What check, build_graph and render_view say of a model, spans aside."""
    return (
        [(d.rule_id, d.element_path, d.message) for d in check(model)],
        build_graph(model).edges,
        _views(model),
    )


def _shares_nothing(model: Element) -> Element | None:
    """The parsed copy of a model, which holds no object twice, if it equals the model."""
    copy = parse_sysml(emit(model), "copy")
    return copy if copy == model else None


def test_a_shared_element_resolves_from_each_of_its_positions():
    x = Element(ElementKind.PART, name="x", relationships=(Relationship(RelKind.TYPING, ("T",)),))
    model = package(
        "P",
        package("A", Element(ElementKind.PART_DEF, name="T"), x),
        package("B", x),
        _view("v", ("A", "B"), FTyped(("T",))),
    )
    assert TraceEdge(("P", "A", "x"), ("P", "A", "T"), "typedBy") in build_graph(model).edges
    assert render_view(model, "v")[0] == {("P", "A", "x")}
    assert _outputs(model) == _outputs(_shares_nothing(model))


# Generated models with one member also placed in a sibling, where they round-trip.
SHARED = {
    seed: model
    for seed in range(100)
    if (model := gen_shared_model(seed)) is not None and _shares_nothing(model) is not None
}


@pytest.mark.parametrize("seed", list(SHARED))
def test_a_shared_element_answers_as_its_parsed_copy(seed):
    model = SHARED[seed]
    assert _outputs(model) == _outputs(_shares_nothing(model))


if __name__ == "__main__":
    RECORDED.write_text(
        json.dumps({name: _snapshot(m) for name, m in _models().items()}, separators=(",", ":"))
        + "\n"
    )
