"""The ten-rule conformance suite: pass and fail fixtures per rule."""
from __future__ import annotations

import pathlib
import re

import pytest

from ssm2sysml import RULES, UnknownRule, check, explain
from ssm2sysml.diagnostics import Severity

from model_gen import package
from mutations import MUTATIONS

RULE_IDS = [rule.id for rule in RULES]
WARNING_RULES = {"R-VIEW-1", "R-CAT-1"}


def test_rule_catalog():
    assert RULE_IDS == [
        "R-ACT-1",
        "R-STK-1",
        "R-ENV-1",
        "R-WVW-1",
        "R-TRF-1",
        "R-SUB-1",
        "R-VIEW-1",
        "R-IND-1",
        "R-CAT-1",
        "R-OWN-1",
    ]
    for rule in RULES:
        expected = Severity.WARNING if rule.id in WARNING_RULES else Severity.ERROR
        assert rule.severity is expected
        assert rule.description and rule.rationale


def test_readme_rule_table_lists_every_rule_in_order():
    text = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| (R-[A-Z]+-\d+) \| (\w+) \|", text, re.MULTILINE)
    assert rows == [(rule.id, str(rule.severity)) for rule in RULES]


def test_mutation_catalog_covers_every_rule():
    assert [rule_id for rule_id, _, _ in MUTATIONS] == RULE_IDS


def test_golden_model_passes_all_rules(case_model):
    assert check(case_model) == []


def test_kettle_model_passes_all_rules(kettle_model):
    assert check(kettle_model) == []


@pytest.mark.parametrize(
    "rule_id,expected_path,mutate",
    MUTATIONS,
    ids=[rule_id for rule_id, _, _ in MUTATIONS],
)
def test_each_mutation_fires_exactly_its_rule(case_model, rule_id, expected_path, mutate):
    diags = check(mutate(case_model))
    assert [d.rule_id for d in diags] == [rule_id]
    (diag,) = diags
    assert diag.element_path == expected_path
    expected = Severity.WARNING if rule_id in WARNING_RULES else Severity.ERROR
    assert diag.severity is expected
    assert diag.message


def test_rule_subset_selection(case_model):
    mutate = dict((rid, fn) for rid, _, fn in MUTATIONS)["R-ENV-1"]
    mutant = mutate(case_model)
    assert [d.rule_id for d in check(mutant, ["R-ENV-1"])] == ["R-ENV-1"]
    assert check(mutant, ["R-ACT-1"]) == []  # other rules not run


def test_unknown_rule_id_raises(case_model):
    with pytest.raises(UnknownRule):
        check(case_model, ["R-NOPE-9"])
    with pytest.raises(UnknownRule):
        explain("R-NOPE-9")
    with pytest.raises(UnknownRule):  # explained, but not a conformance rule
        check(case_model, ["SSM-003"])


def test_diagnostics_ordered_by_path_then_rule(case_model):
    by_id = {rid: fn for rid, _, fn in MUTATIONS}
    mutant = by_id["R-ENV-1"](by_id["R-IND-1"](by_id["R-ACT-1"](case_model)))
    diags = check(mutant)
    keys = [(d.element_path, d.rule_id) for d in diags]
    assert keys == sorted(keys)
    assert {d.rule_id for d in diags} == {"R-ENV-1", "R-IND-1", "R-ACT-1"}


def test_check_is_pure(case_model):
    assert check(case_model) == check(case_model)
    by_id = {rid: fn for rid, _, fn in MUTATIONS}
    mutant = by_id["R-OWN-1"](case_model)
    assert check(mutant) == check(mutant)


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_explain_every_rule(rule_id):
    text = explain(rule_id)
    assert text.startswith(rule_id)
    assert ("error" in text) or ("warning" in text)


def test_explain_r_act_1_mentions_subsetting():
    assert "subset" in explain("R-ACT-1")


def test_diagnostic_text_and_json_shape(case_model):
    by_id = {rid: fn for rid, _, fn in MUTATIONS}
    (diag,) = check(by_id["R-ENV-1"](case_model))
    text = diag.to_text(color=False)
    assert "error[R-ENV-1]" in text
    payload = diag.to_json()
    assert payload["rule"] == "R-ENV-1"
    assert payload["severity"] == "error"
    assert payload["element"] == "Context.EC2"


@pytest.mark.parametrize(
    "rule_id,mutate",
    [(rule_id, mutate) for rule_id, _, mutate in MUTATIONS],
    ids=[rule_id for rule_id, _, _ in MUTATIONS],
)
def test_message_carries_only_the_detail(case_model, rule_id, mutate):
    (diag,) = check(mutate(case_model))
    assert diag.to_text().count(rule_id) == 1
    assert rule_id not in diag.message
    assert diag.element_path not in diag.message


def test_json_message_starts_with_the_detail(case_model):
    by_id = {rid: fn for rid, _, fn in MUTATIONS}
    (diag,) = check(by_id["R-ACT-1"](case_model))
    assert diag.to_json()["message"].startswith(
        "actor usage does not subset an individual occurrence"
    )


def test_empty_package_is_conformant():
    assert check(package("Empty")) == []
