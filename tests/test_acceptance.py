"""Acceptance suite: seven end-to-end criteria, one printed verdict each."""
from __future__ import annotations

import functools
import hashlib
import random
import time
from pathlib import Path

import pytest

import conftest

from ssm2sysml import (
    ElementKind,
    check,
    emit,
    format_ssm,
    map_context,
    parse_sysml,
    resolve,
    validate_context,
)
from ssm2sysml.cli import main
from ssm2sysml.exprs import Binary, EnumLit, Lit, Unary
from ssm2sysml.sysml_ast import (
    RelKind,
    iter_walk,
)
from ssm2sysml.trace_view import build_graph, evaluate_filter, reach

from model_gen import draw, kitchen_sink
from mutations import MUTATIONS
from ssm_gen import gen_context
from test_trace import GOLDEN_KINDS, _bfs_oracle, _random_filter


def _verdict(number: int, title: str):
    """Decorator printing one pass/fail line per criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _report(f"criterion {number} FAIL: {title}")
                raise
            _report(f"criterion {number} PASS: {title}")

        return run

    return wrap


def _report(line: str) -> None:
    print(line)
    conftest.ACCEPTANCE_VERDICTS.append(line)


@_verdict(1, "case study compiles end-to-end with zero diagnostics in < 1 s")
def test_criterion_1_case_study_end_to_end(case_ctx):
    started = time.monotonic()
    assert validate_context(case_ctx) == []
    model, report = map_context(case_ctx)

    # (a) all six CATWOE tags appear in the compiled model.
    literals = {
        value.literal
        for element, _ in iter_walk(model)
        for app in element.metadata_applications()
        for _attr, value in app.bindings
        if isinstance(value, EnumLit)
    }
    assert {
        "Customer",
        "Actor",
        "Transformation",
        "Worldview",
        "Owner",
        "Environment",
    } <= literals

    # (b) EC1/EC2 with one require constraint and a refines edge on EC2.
    ec2 = resolve(model, "Context.EC2")
    constraints = [c for c in ec2.children if c.kind is ElementKind.CONSTRAINT]
    assert len(constraints) == 1 and constraints[0].constraint_kind == "require"
    assert [r.target for r in ec2.rels(RelKind.REFINES)] == [("EC1",)]
    assert resolve(model, "Context.EC1").kind is ElementKind.REQUIREMENT_DEF

    # (c) the concern/viewpoint/view triad with the worldview as rationale.
    assert resolve(model, "Context.resources").typing() == ("OwnerConcern",)
    viewpoint = resolve(model, "Context.licenseManagement")
    assert viewpoint.typing() == ("ResourceAllocation",)
    (rationale,) = viewpoint.metadata_applications()
    assert rationale.bindings == (
        ("text", Lit(case_ctx.root_definitions[0].worldview)),
    )
    assert resolve(model, "Context.License Allocation").kind is ElementKind.VIEW

    # (d) conformant, warning-free, and fast.
    assert check(model) == []
    assert report.warnings == ()
    assert time.monotonic() - started < 1.0


@_verdict(2, "kettle fixture round-trips byte-identically and checks clean")
def test_criterion_2_kettle_fixture(kettle_text, kettle_model):
    unit = resolve(kettle_model, "Kettle.KettleUnit")
    states = [c.name for c in unit.children if c.kind is ElementKind.STATE]
    assert len(states) == 3
    transitions = [c for c in unit.children if c.kind is ElementKind.TRANSITION]
    assert any(t.trigger and t.guard for t in transitions)
    assert any(t.effect for t in transitions)

    use_case = resolve(kettle_model, "Kettle.boilWater")
    actor_actions = [
        c for c in use_case.children if c.kind is ElementKind.ACTION and c.performer
    ]
    kettle_actions = [
        c
        for c in use_case.children
        if c.kind is ElementKind.ACTION and c.performer is None
    ]
    assert len(actor_actions) == 3
    assert len(kettle_actions) == 1

    assert emit(kettle_model) == kettle_text  # byte-identical canonical form
    assert parse_sysml(kettle_text, "again") == kettle_model
    assert check(kettle_model) == []


@_verdict(3, "500+ generated models round-trip structurally, 100% pass")
def test_criterion_3_round_trip_property():
    kinds, rels = set(), set()
    # 521 of the first 678 draws build; the others give two siblings one name.
    models = [kitchen_sink()] + [m for seed in range(678) if (m := draw(seed)) is not None]
    assert len(models) == 522
    for i, model in enumerate(models):
        text = emit(model)
        assert parse_sysml(text, f"model{i}") == model
        for element, _ in iter_walk(model):
            kinds.add(element.kind)
            rels.update(r.kind for r in element.relationships)
    assert kinds == set(ElementKind)  # every element variant was exercised
    assert rels == set(RelKind)  # ... and every relationship kind


@_verdict(4, "each rule has passing and failing fixtures; no spurious findings")
def test_criterion_4_rule_mutation_suite(case_model, kettle_model):
    from ssm2sysml import RULES

    assert len(RULES) == 10
    # Passing fixtures: both shipped models satisfy every rule.
    assert check(case_model) == []
    assert check(kettle_model) == []
    # Failing fixtures: one surgical mutation per rule, firing exactly it.
    assert {rule_id for rule_id, _, _ in MUTATIONS} == {r.id for r in RULES}
    for rule_id, expected_path, mutate in MUTATIONS:
        diags = check(mutate(case_model))
        assert [d.rule_id for d in diags] == [rule_id], rule_id
        assert diags[0].element_path == expected_path


@_verdict(5, "100+ generated contexts map with no error-severity diagnostics")
def test_criterion_5_mapper_self_consistency():
    for seed in range(120):
        ctx = gen_context(seed)
        assert validate_context(ctx) == []
        model, _report = map_context(ctx)
        errors = [d for d in check(model) if d.is_error]
        assert errors == [], f"seed {seed}: {errors}"


@_verdict(6, "trace oracle equality and filter algebra laws hold")
def test_criterion_6_traceability_oracle(case_model):
    graph = build_graph(case_model)
    start = ("Context", "resources")
    engine = reach(graph, start, "backward", GOLDEN_KINDS)
    assert engine == _bfs_oracle(graph, start, "backward", GOLDEN_KINDS)
    assert ("Context", "EC1") in engine
    assert ("Context", "newHire") not in engine

    rng = random.Random(6)
    universe = {path for _, path in iter_walk(case_model)}
    for _ in range(220):
        a = _random_filter(rng, 2)
        b = _random_filter(rng, 2)
        sa = evaluate_filter(case_model, a)
        sb = evaluate_filter(case_model, b)
        assert evaluate_filter(case_model, Binary("and", a, b)) == sa & sb
        assert evaluate_filter(case_model, Binary("or", a, b)) == sa | sb
        assert evaluate_filter(case_model, Unary("not", a)) == universe - sa


@_verdict(7, "two compile runs over the corpus are byte-identical")
def test_criterion_7_determinism(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    sources = [conftest.DATA / "case_study.ssm"]
    for seed in range(8):
        target = corpus_dir / f"gen{seed}.ssm"
        target.write_text(format_ssm(gen_context(seed)))
        sources.append(target)

    def compile_all(out: Path) -> dict[str, str]:
        code = main(["compile", *map(str, sources), "-o", str(out), "--report"])
        assert code == 0
        return {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())
        }

    first = compile_all(tmp_path / "run1")
    second = compile_all(tmp_path / "run2")
    assert first and first == second


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
