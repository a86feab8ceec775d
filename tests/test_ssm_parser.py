"""Parsing and formatting of the `.ssm` surface syntax."""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssm2sysml import ParseError, format_ssm, parse_ssm
from ssm2sysml.exprs import Binary, Lit, Ref

from ssm_gen import gen_context


def test_golden_structure(case_ctx):
    assert case_ctx.name == "Context"
    assert [i.id for i in case_ctx.individuals] == ["manager", "it", "newHire"]
    assert case_ctx.individuals[2].definition_type == "Employee"

    (rd,) = case_ctx.root_definitions
    assert rd.id == "assignLicense"
    assert [c.id for c in rd.customers] == ["manager"]
    assert [a.id for a in rd.actors] == ["it", "manager"]
    assert rd.owner.id == "it"
    assert rd.transformation.subject_name == "roleA_NewHire"
    assert rd.transformation.inputs == (("tool", "Tool"),)
    assert rd.transformation.outputs == (("license", "License"),)
    assert rd.worldview.startswith("Appropriate access")

    ec1, ec2 = rd.environmental_constraints
    assert ec1.expr == Binary("==", Ref(("role", "requiredTool")), Ref(("tool", "name")))
    assert ec2.expr == Binary(">", Ref(("license", "availability")), Lit(0))
    assert ec2.refines is not None and ec2.refines.id == "EC1"

    (cm,) = case_ctx.conceptual_models
    assert [a.id for a in cm.activities] == ["a1", "a2", "a3", "a4", "a5"]
    assert [(f.source.id, f.target.id) for f in cm.flows] == [
        ("a1", "a2"),
        ("a2", "a3"),
        ("a3", "a4"),
        ("a4", "a5"),
    ]
    (mon,) = cm.monitors
    assert [c.id for c in mon.controls] == ["a3", "a5"]


def test_golden_round_trip(case_ctx):
    text = format_ssm(case_ctx)
    assert parse_ssm(text, "rt") == case_ctx
    assert format_ssm(parse_ssm(text, "rt")) == text  # canonical form is a fixpoint


def test_spans_are_populated(case_ctx):
    assert case_ctx.span is not None
    assert case_ctx.root_definitions[0].span.start_line > 1


@pytest.mark.parametrize("seed", range(60))
def test_generated_round_trip(seed):
    ctx = gen_context(seed)
    assert parse_ssm(format_ssm(ctx), "gen") == ctx


def test_semicolons_are_optional():
    with_semi = parse_ssm(
        'context C { individual a : P "A" ; }', "a"
    )
    without = parse_ssm('context C { individual a : P "A" }', "b")
    assert with_semi == without


def test_line_comments_are_ignored():
    text = 'context C {\n# a comment\nindividual a : P "A" # trailing\n}'
    assert parse_ssm(text).individuals[0].id == "a"


def test_duplicate_top_level_id_rejected():
    text = 'context C { individual a : P "A" individual a : Q "B" }'
    with pytest.raises(ParseError) as exc:
        parse_ssm(text)
    assert "a" in str(exc.value)


def test_missing_rd_members_lists_them():
    text = "context C { root-definition rd { owner a ; } }"
    with pytest.raises(ParseError) as exc:
        parse_ssm(text)
    message = str(exc.value)
    for member in ("customer", "actor", "transformation", "worldview"):
        assert member in message


def test_bad_constraint_expression_is_respanned():
    text = (
        'context C { root-definition rd { customer a ; actor a ; owner a ; '
        'transformation "t" { subject s : S ; } ; worldview "w" ; '
        'environmental-constraint e1 "txt" require "1 +" ; } }'
    )
    with pytest.raises(ParseError) as exc:
        parse_ssm(text)
    assert "bad constraint expression" in exc.value.message


def test_unexpected_token_reports_expectations():
    with pytest.raises(ParseError) as exc:
        parse_ssm("context C { widget }")
    assert exc.value.expected  # the parser says what it wanted
    assert exc.value.span is not None


def test_eof_mid_block():
    with pytest.raises(ParseError):
        parse_ssm("context C {")


def test_unterminated_string():
    with pytest.raises(ParseError):
        parse_ssm('context C { individual a : P "oops }')


def test_empty_input():
    with pytest.raises(ParseError):
        parse_ssm("")


def test_string_escapes_round_trip():
    ctx = parse_ssm('context C { individual a : P "line\\nbreak \\"q\\"" }')
    assert ctx.individuals[0].display_name == 'line\nbreak "q"'
    assert parse_ssm(format_ssm(ctx)) == ctx


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120))
@example("\u00b2")
@example(
    'context C { root-definition rd { customer a ; actor a ; owner a ; transformation "t" '
    '{ subject s : S ; } ; worldview "w" ; environmental-constraint e "x" require "\u00b2" ; } }'
)
def test_fuzz_terminates_with_parse_error_or_context(text):
    try:
        parse_ssm(text)
    except ParseError:
        pass  # the only acceptable failure mode


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet='context individual {}":;abP \n', max_size=200))
@example("\u00b2")
def test_fuzz_near_grammar(text):
    try:
        parse_ssm(text)
    except ParseError:
        pass
