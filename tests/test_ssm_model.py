"""Validation of the soft-systems domain model (SSM-001..SSM-005)."""
from __future__ import annotations

import random
from dataclasses import replace

import pytest

from ssm2sysml import (
    Activity,
    CatwoeRole,
    ConceptualModel,
    Flow,
    IdRef,
    Individual,
    MappingError,
    ParseError,
    RootDefinition,
    SsmContext,
    Transformation,
    format_ssm,
    map_context,
    parse_ssm,
    validate_context,
)
from ssm2sysml.conformance import explain
from ssm2sysml.ssm_model import _find_cycle

from ssm_gen import gen_context


def _codes(diags):
    return [d.rule_id for d in diags]


def test_role_ordering_and_labels():
    roles = sorted(CatwoeRole, reverse=True)
    assert roles[0] is CatwoeRole.ENVIRONMENT
    assert [r.label for r in sorted(CatwoeRole)] == [
        "Customer",
        "Actor",
        "Transformation",
        "Worldview",
        "Owner",
        "Environment",
    ]
    assert CatwoeRole.CUSTOMER < CatwoeRole.ACTOR < CatwoeRole.TRANSFORMATION
    assert CatwoeRole.WORLDVIEW < CatwoeRole.OWNER < CatwoeRole.ENVIRONMENT


def test_golden_context_is_valid(case_ctx):
    assert validate_context(case_ctx) == []


def test_context_lookups(case_ctx):
    assert case_ctx.root_definition("assignLicense").owner.id == "it"
    assert case_ctx.root_definition("nothing") is None


def _rd(case_ctx) -> RootDefinition:
    return case_ctx.root_definitions[0]


def test_unknown_actor_is_ssm_001(case_ctx):
    rd = _rd(case_ctx)
    rd = replace(rd, actors=rd.actors + (IdRef("ghost"),))
    bad = replace(case_ctx, root_definitions=(rd,))
    diags = validate_context(bad)
    assert _codes(diags) == ["SSM-001"]
    assert "ghost" in diags[0].message


def test_unknown_owner_and_customer_each_flag(case_ctx):
    rd = replace(_rd(case_ctx), owner=IdRef("ghost"), customers=(IdRef("phantom"),))
    bad = replace(case_ctx, root_definitions=(rd,))
    assert sorted(_codes(validate_context(bad))) == ["SSM-001", "SSM-001"]


def test_foreign_performer_is_ssm_002(case_ctx):
    cm = case_ctx.conceptual_models[0]
    # newHire exists but is neither an actor nor the owner.
    activities = (replace(cm.activities[0], performed_by=IdRef("newHire")),) + cm.activities[1:]
    bad = replace(case_ctx, conceptual_models=(replace(cm, activities=activities),))
    diags = validate_context(bad)
    assert _codes(diags) == ["SSM-002"]
    assert "newHire" in diags[0].message


def test_flow_cycle_is_ssm_003(case_ctx):
    cm = case_ctx.conceptual_models[0]
    bad_cm = replace(cm, flows=cm.flows + (Flow(IdRef("a4"), IdRef("a2")),))
    diags = validate_context(replace(case_ctx, conceptual_models=(bad_cm,)))
    assert _codes(diags) == ["SSM-003"]
    assert diags[0].message == "conceptual model flows contain a cycle: a2 -> a3 -> a4 -> a2"


def test_self_loop_is_a_cycle(case_ctx):
    cm = case_ctx.conceptual_models[0]
    bad_cm = replace(cm, flows=cm.flows + (Flow(IdRef("a1"), IdRef("a1")),))
    assert _codes(validate_context(replace(case_ctx, conceptual_models=(bad_cm,)))) == [
        "SSM-003"
    ]
    assert _find_cycle(bad_cm) == ["a1", "a1"]


# Flows added to the case study's chain a1 -> ... -> a5, and the cycle reported:
# the first one a depth-first search meets, taking flows in declaration order.
CYCLES = [
    ([("a5", "a1")], "a1 -> a2 -> a3 -> a4 -> a5 -> a1"),
    ([("a3", "a1"), ("a5", "a4")], "a4 -> a5 -> a4"),
    ([("a2", "a5"), ("a5", "a3")], "a3 -> a4 -> a5 -> a3"),
]


@pytest.mark.parametrize("flows, cycle", CYCLES)
def test_cycle_reported_is_the_first_found(case_ctx, flows, cycle):
    cm = case_ctx.conceptual_models[0]
    bad_cm = replace(cm, flows=cm.flows + tuple(Flow(IdRef(a), IdRef(b)) for a, b in flows))
    diags = validate_context(replace(case_ctx, conceptual_models=(bad_cm,)))
    assert [d.message for d in diags] == [f"conceptual model flows contain a cycle: {cycle}"]


def _recursive_cycle(cm: ConceptualModel) -> list[str] | None:
    """Reference: the recursive three-colour search, for graphs shallow enough to recurse."""
    adjacency = {a.id: [] for a in cm.activities}
    for flow in cm.flows:
        if flow.source.id in adjacency and flow.target.id in adjacency:
            adjacency[flow.source.id].append(flow.target.id)
    color = dict.fromkeys(adjacency, "white")
    stack: list[str] = []

    def visit(node):
        color[node] = "grey"
        stack.append(node)
        for nxt in adjacency[node]:
            if color[nxt] == "grey":
                return stack[stack.index(nxt):] + [nxt]
            if color[nxt] == "white" and (found := visit(nxt)):
                return found
        stack.pop()
        color[node] = "black"
        return None

    for node in adjacency:
        if color[node] == "white" and (found := visit(node)):
            return found
    return None


def test_find_cycle_matches_recursive_search():
    rng = random.Random(0)
    for _ in range(500):
        n = rng.randint(1, 8)
        acts = tuple(Activity(f"a{i}", "x", IdRef("p")) for i in range(n))
        flows = tuple(
            Flow(IdRef(f"a{rng.randrange(n + 1)}"), IdRef(f"a{rng.randrange(n)}"))
            for _ in range(rng.randint(0, 12))
        )
        cm = ConceptualModel(IdRef("rd"), acts, flows)
        assert _find_cycle(cm) == _recursive_cycle(cm)


def test_duplicate_io_name_is_ssm_004(case_ctx):
    rd = _rd(case_ctx)
    tr = replace(rd.transformation, outputs=(("tool", "License"),))
    bad = replace(case_ctx, root_definitions=(replace(rd, transformation=tr),))
    diags = validate_context(bad)
    assert _codes(diags) == ["SSM-004"]
    assert "'tool'" in diags[0].message


def test_repeated_top_level_id_built_in_memory_is_ssm_004(case_ctx):
    """The parser refuses these; a context built in memory is checked by validation."""
    first = case_ctx.individuals[0]
    twin = replace(first, display_name="Twin")
    rd_named_like_it = replace(_rd(case_ctx), id=first.id)
    for bad, path in (
        (replace(case_ctx, individuals=case_ctx.individuals + (twin,)), first.id),
        (replace(case_ctx, root_definitions=case_ctx.root_definitions + (rd_named_like_it,)),
         first.id),
    ):
        diags = [d for d in validate_context(bad) if d.rule_id == "SSM-004"]
        assert [(d.element_path, d.message) for d in diags] == [
            (path, f"top-level id {first.id!r} is declared twice")
        ]
    with pytest.raises(MappingError):
        map_context(replace(case_ctx, individuals=case_ctx.individuals + (twin,)))


def test_empty_worldview_is_ssm_005(case_ctx):
    rd = replace(_rd(case_ctx), worldview="")
    assert _codes(validate_context(replace(case_ctx, root_definitions=(rd,)))) == [
        "SSM-005"
    ]


@pytest.mark.parametrize("role", ["customer", "actor"])
def test_an_empty_customer_or_actor_list_is_ssm_005(case_ctx, role):
    """`.ssm` has no way to write an empty list, so such a context would not read back."""
    rd = replace(_rd(case_ctx), **{f"{role}s": ()})
    ctx = replace(case_ctx, root_definitions=(rd,))
    assert [(d.rule_id, d.message) for d in validate_context(ctx) if d.rule_id == "SSM-005"] == [
        ("SSM-005", f"root definition {rd.id!r} has an empty {role} list")
    ]
    with pytest.raises(ParseError, match=f"expected {role} id, found ';'"):
        parse_ssm(format_ssm(ctx))
    assert "the customer and actor lists of a root definition" in explain("SSM-005")


def test_empty_display_name_is_ssm_005():
    ctx = SsmContext("C", individuals=(Individual("a", "", "Person"),))
    diags = validate_context(ctx)
    assert _codes(diags) == ["SSM-005"]


def test_unknown_flow_endpoint_and_monitor_target(case_ctx):
    cm = case_ctx.conceptual_models[0]
    bad_cm = replace(cm, flows=cm.flows + (Flow(IdRef("a1"), IdRef("zz")),))
    assert _codes(validate_context(replace(case_ctx, conceptual_models=(bad_cm,)))) == [
        "SSM-001"
    ]
    mon = replace(cm.monitors[0], controls=(IdRef("nope"),))
    bad_cm = replace(cm, monitors=(mon,))
    assert _codes(validate_context(replace(case_ctx, conceptual_models=(bad_cm,)))) == [
        "SSM-001"
    ]


def test_cm_for_unknown_root_definition(case_ctx):
    cm = replace(case_ctx.conceptual_models[0], root_definition_id=IdRef("missing"))
    codes = _codes(validate_context(replace(case_ctx, conceptual_models=(cm,))))
    assert "SSM-001" in codes


def test_missing_transformation_subject_is_ssm_005(case_ctx):
    rd = _rd(case_ctx)
    tr = replace(rd.transformation, subject_name="")
    bad = replace(case_ctx, root_definitions=(replace(rd, transformation=tr),))
    assert "SSM-005" in _codes(validate_context(bad))


def test_validation_is_pure(case_ctx):
    assert validate_context(case_ctx) == validate_context(case_ctx)


@pytest.mark.parametrize("seed", range(40))
def test_generated_contexts_are_valid(seed):
    assert validate_context(gen_context(seed)) == []


def test_spans_do_not_affect_equality():
    a = Individual("x", "X", "T")
    b = Individual("x", "X", "T", span=None)
    assert a == b


def test_empty_statement_is_ssm_005():
    tr = Transformation("", "s", "T")
    rd = RootDefinition(
        "r", (IdRef("a"),), (IdRef("a"),), IdRef("a"), tr, "world"
    )
    ctx = SsmContext("C", individuals=(Individual("a", "A", "P"),), root_definitions=(rd,))
    assert _codes(validate_context(ctx)) == ["SSM-005"]


def test_activity_and_cm_dataclasses_round_trip_replace():
    act = Activity("a1", "label", IdRef("p"))
    cm = ConceptualModel(IdRef("rd"), (act,))
    assert replace(cm, flows=()) == cm
