"""AST traversal, resolution, and metadata inheritance."""
from __future__ import annotations

import sys
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import pytest

from ssm2sysml import (
    AmbiguousName,
    Element,
    ElementKind,
    UnknownElement,
    build_graph,
    check,
    resolve,
    walk,
)
from ssm2sysml.exprs import EnumLit
from ssm2sysml.source import SourceSpan
from ssm2sysml.trace_view import TraceEdge
from ssm2sysml.sysml_ast import (
    ModelIndex,
    Multiplicity,
    RelKind,
    QName,
    Relationship,
    iter_walk,
    qname,
    qname_text,
)

from conftest import count_elements
from model_gen import chain, gen_model, package
from mutations import MUTATIONS


def test_walk_matches_recursive_count(case_model, kettle_model):
    for model in (case_model, kettle_model):
        pairs = walk(model)
        assert len(pairs) == count_elements(model)
        paths = [p for _, p in pairs]
        assert len(set(paths)) == len(paths)  # every path is unique


@pytest.mark.parametrize("seed", range(30))
def test_walk_count_on_generated_models(seed):
    model = gen_model(seed)
    assert len(walk(model)) == count_elements(model)


def test_walk_sees_every_element(case_model):
    seen = [path for _, path in walk(case_model)]
    assert len(seen) == count_elements(case_model)


def test_walk_is_document_order(kettle_model):
    paths = [p for _, p in walk(kettle_model)]
    assert paths[0] == ("Kettle",)
    assert paths[1][:2] == ("Kettle", "Person")


def test_walk_index_and_graph_of_a_chain_deeper_than_the_recursion_limit():
    depth = sys.getrecursionlimit() + 200
    # Each level holds an unnamed comment before the next part, so every
    # path also passes through `kind@index` segments of its parent.
    typed = (Relationship(RelKind.TYPING, ("T",)),)
    inner = Element(ElementKind.PART, name="a", relationships=typed)
    for _ in range(depth - 1):
        comment = Element(ElementKind.COMMENT, doc="c")
        inner = Element(ElementKind.PART, name="a", children=(comment, inner))
    model = package("P", Element(ElementKind.PART_DEF, name="T"), inner)
    expected = [("P",), ("P", "T")]
    for level in range(1, depth + 1):
        expected.append(("P",) + ("a",) * level)
        if level < depth:
            expected.append(("P",) + ("a",) * level + ("comment@0",))
    pairs = walk(model)
    assert [path for _, path in pairs] == expected
    assert [path for _, path in ModelIndex(model).pairs] == expected
    graph = build_graph(model)
    assert graph.nodes == tuple(expected)
    assert graph.edges == (TraceEdge(("P",) + ("a",) * depth, ("P", "T"), "typedBy"),)


def test_unnamed_elements_get_synthetic_segments(case_model):
    paths = [qname_text(p) for _, p in walk(case_model)]
    assert any("subject@" in p for p in paths)
    assert any("metadata@" in p for p in paths)


def test_resolve_dotted_path(case_model):
    uc = resolve(case_model, "Context.transformationSystem.assignLicense")
    assert uc.kind is ElementKind.USE_CASE
    # The root package name may be omitted.
    assert resolve(case_model, "transformationSystem.assignLicense") is uc


def test_resolve_unknown_reports_longest_prefix(case_model):
    with pytest.raises(UnknownElement) as exc:
        resolve(case_model, "Context.transformationSystem.nothing.here")
    assert exc.value.prefix == "Context.transformationSystem"


def test_resolve_ambiguous_siblings():
    model = package(
        "P",
        Element(ElementKind.PART, name="x"),
        Element(ElementKind.ITEM, name="x"),
    )
    with pytest.raises(AmbiguousName):
        resolve(model, "P.x")


def test_resolve_reaches_an_unnamed_element_by_its_segment():
    note = Element(ElementKind.COMMENT, doc="n")
    holder = package("h", Element(ElementKind.PART, name="a"), note)
    model = package("P", note, holder)
    assert resolve(model, "P.comment@0") is note
    assert resolve(model, "h.comment@1") is note
    with pytest.raises(UnknownElement) as exc:
        resolve(model, "P.h.comment@0")
    assert exc.value.prefix == "P.h"


def test_every_path_that_walk_and_check_print_resolves(case_model):
    for element, path in iter_walk(case_model):
        assert resolve(case_model, path) is element
    for _, _, mutate in MUTATIONS:
        model = mutate(case_model)
        for diagnostic in check(model):
            resolve(model, diagnostic.element_path)


def test_resolve_relative_prefers_innermost():
    inner = Element(ElementKind.PART, name="x")
    outer = Element(ElementKind.PART, name="x")
    holder = Element(ElementKind.PART, name="holder", children=(inner,))
    model = package("P", outer, holder)
    index = ModelIndex(model)
    found, path = index.resolve_relative(("P", "holder", "holder"), ("x",))
    assert found is inner and path == ("P", "holder", "x")
    found, path = index.resolve_relative(("P", "other"), ("x",))
    assert found is outer and path == ("P", "x")


def test_resolve_relative_accepts_root_qualified_path(case_model):
    index = ModelIndex(case_model)
    found = index.resolve_relative(
        ("Context", "EC1"), ("Context", "transformationSystem")
    )
    assert found is not None and found[0].name == "transformationSystem"
    assert found[1] == ("Context", "transformationSystem")


def test_effective_metadata_inherits_through_typing(case_model):
    ec1 = resolve(case_model, "Context.EC1")
    tags = ModelIndex(case_model).effective_metadata(ec1, ("Context", "EC1"))
    literals = {
        value.literal
        for app in tags
        for _, value in app.bindings
        if isinstance(value, EnumLit)
    }
    assert "Environment" in literals  # inherited from EnvironmentalConstraints
    assert ec1.metadata_applications() == ()  # not an own tag


def test_effective_metadata_transitive_two_levels(case_model):
    path = ("Context", "transformationSystem", "assignLicense")
    uc = resolve(case_model, path)
    literals = {
        value.literal
        for app in ModelIndex(case_model).effective_metadata(uc, path)
        for _, value in app.bindings
        if isinstance(value, EnumLit)
    }
    assert "Transformation" in literals  # via the use case definition


def test_effective_metadata_tolerates_typing_cycles():
    a = Element(
        ElementKind.PART_DEF,
        name="A",
        relationships=(Relationship(RelKind.TYPING, ("B",)),),
        children=(Element(ElementKind.METADATA, meta_def=("M",)),),
    )
    b = Element(
        ElementKind.PART_DEF,
        name="B",
        relationships=(Relationship(RelKind.TYPING, ("A",)),),
    )
    model = package("P", a, b)
    index = ModelIndex(model)
    # Termination is the contract; duplicates through the cycle are fine.
    assert {app.meta_def for app in index.effective_metadata(a, ("P", "A"))} == {("M",)}
    assert {app.meta_def for app in index.effective_metadata(b, ("P", "B"))} == {("M",)}


def test_effective_metadata_is_independent_of_query_order():
    def part_def(name, types, tag):
        return Element(
            ElementKind.PART_DEF,
            name=name,
            relationships=tuple(Relationship(RelKind.TYPING, (t,)) for t in types),
            children=(Element(ElementKind.METADATA, meta_def=(tag,)),),
        )

    b = part_def("B", ("C", "E"), "MB")
    c = part_def("C", ("B",), "MC")
    e = part_def("E", (), "ME")
    model = package("P", b, c, e)
    everything = {("MB",), ("MC",), ("ME",)}
    for order in ((b, c, e), (c, b, e), (e, c, b)):
        index = ModelIndex(model)
        tags = {
            el.name: {app.meta_def for app in index.effective_metadata(el, ("P", el.name))}
            for el in order
        }
        assert tags == {"B": everything, "C": everything, "E": {("ME",)}}
    # Each reachable element contributes its applications once.
    assert len(ModelIndex(model).effective_metadata(c, ("P", "C"))) == 3


def duplicate_names(model: Element) -> list[QName]:
    """Paths of namespaces containing duplicate member names."""
    bad: list[QName] = []
    for element, path in iter_walk(model):
        seen: set[str] = set()
        for child in element.children:
            if child.name is None:
                continue
            if child.name in seen:
                bad.append(path + (child.name,))
            seen.add(child.name)
    return bad


def test_duplicate_names_detection():
    clean = package("P", Element(ElementKind.PART, name="x"))
    assert duplicate_names(clean) == []
    dirty = package(
        "P",
        Element(ElementKind.PART, name="x"),
        Element(ElementKind.PART, name="x"),
    )
    assert duplicate_names(dirty) == [("P", "x")]


def test_case_model_has_no_duplicate_names(case_model):
    assert duplicate_names(case_model) == []


def test_multiplicity_validation():
    assert Multiplicity(0, None).upper is None
    assert Multiplicity(2, 2).lower == 2
    with pytest.raises(ValueError):
        Multiplicity(-1, None)
    with pytest.raises(ValueError):
        Multiplicity(3, 1)


def test_qname_helpers():
    assert qname("a.b.c") == ("a", "b", "c")
    assert qname_text(("a", "b")) == "a.b"


def test_index_by_path_maps_every_path(kettle_model):
    mapping = ModelIndex(kettle_model).by_path
    assert mapping[("Kettle",)][0] is kettle_model
    assert len(mapping) == count_elements(kettle_model)


def test_element_convenience_accessors(case_model):
    ec2 = resolve(case_model, "Context.EC2")
    assert ec2.typing() == ("EnvironmentalConstraints",)
    assert [r.target for r in ec2.rels(RelKind.REFINES)] == [("EC1",)]
    assert ec2.is_def
    assert not resolve(case_model, "Context.resources").is_def


# --- the constructor ---------------------------------------------------------

RECORDS = [Element, SourceSpan]


def _values(cls) -> dict:
    """A distinct value for each field the constructor takes, in declaration order;
    an element's children are elements, since `==` walks them."""
    values = {f.name: i for i, f in enumerate(fields(cls)) if f.init}
    if cls is Element:
        values["children"] = (Element(ElementKind.COMMENT, doc="c"),)
    return values


@pytest.mark.parametrize("cls", RECORDS)
def test_the_constructor_takes_each_field_by_position_or_keyword(cls):
    values = _values(cls)
    by_position, by_keyword = cls(*values.values()), cls(**values)
    for record in (by_position, by_keyword):
        assert type(record) is cls
        assert {name: getattr(record, name) for name in values} == values
    assert by_position == by_keyword
    with pytest.raises(TypeError):
        cls(*values.values(), 0)
    with pytest.raises(TypeError):
        cls(**values, nope=0)


@pytest.mark.parametrize("cls", RECORDS)
def test_every_default_is_the_declared_default(cls):
    required = [f.name for f in fields(cls) if f.init and f.default is MISSING]
    with pytest.raises(TypeError):
        cls()
    record = cls(*(_values(cls)[name] for name in required))
    for f in fields(cls):
        if f.default is not MISSING:
            assert getattr(record, f.name) is f.default, f.name


@pytest.mark.parametrize("cls", RECORDS)
def test_a_record_refuses_assignment_and_deletion(cls):
    record = cls(**_values(cls))
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(record, f.name, -1)
        with pytest.raises(FrozenInstanceError):
            delattr(record, f.name)
    assert cls(**_values(cls)) == record


@pytest.mark.parametrize("cls", RECORDS)
def test_replace_builds_a_new_record(cls):
    values = _values(cls)
    record = cls(**values)
    last = list(values)[-1]
    changed = replace(record, **{last: 99})
    assert type(changed) is cls
    assert getattr(changed, last) == 99 and getattr(record, last) == values[last]
    assert {name: getattr(changed, name) for name in values} == {**values, last: 99}


def test_a_new_element_has_no_member_table():
    element = package("P", Element(ElementKind.PART, name="a"))
    assert element._members is None
    resolve(element, "P.a")
    assert element._members is not None
    assert replace(element, name="Q")._members is None
    assert element == package("P", Element(ElementKind.PART, name="a"))


def test_the_span_takes_no_part_in_eq_hash_or_repr():
    spanned = Element(ElementKind.PART, name="a", span=SourceSpan("f", 1, 1, 1, 2))
    plain = Element(ElementKind.PART, name="a")
    assert spanned == plain and hash(spanned) == hash(plain) and repr(spanned) == repr(plain)
    assert spanned.span == SourceSpan("f", 1, 1, 1, 2)


def test_a_span_that_starts_after_it_ends_is_refused():
    with pytest.raises(ValueError, match="span start must not follow span end"):
        SourceSpan("f", 2, 1, 1, 5)
    with pytest.raises(ValueError, match="span start must not follow span end"):
        SourceSpan("f", 1, 3, 1, 2)
    assert SourceSpan.of_offsets("f", [0, 4], 5, 7) == SourceSpan("f", 2, 2, 2, 4)
    with pytest.raises(ValueError, match="span start must not follow span end"):
        SourceSpan.of_offsets("f", [0, 4], 7, 5)


def test_equality_of_a_chain_deeper_than_the_recursion_limit():
    depth = sys.getrecursionlimit() + 200
    assert chain(depth) == chain(depth)
    assert chain(depth) != chain(depth, doc="d")
    assert chain(depth) != chain(depth - 1)
    assert chain(depth) != chain(depth + 1)
    assert Element(ElementKind.PART) != (ElementKind.PART,)
