"""Parsing and formatting of the `.ssm` surface syntax."""
from __future__ import annotations

import pathlib
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssm2sysml import IdRef, Individual, ParseError, format_ssm, parse_ssm
from ssm2sysml.exprs import Binary, Lit, Ref
from ssm2sysml.ssm_parser import _CONCEPTUAL_MODEL, _CONTEXT, _ROOT_DEFINITION, _TRANSFORMATION

from ssm_gen import gen_context


def _position(span):
    return (span.start_line, span.start_col, span.end_line, span.end_col)


def _parse_error(text: str) -> ParseError:
    with pytest.raises(ParseError) as exc:
        parse_ssm(text, "f.ssm")
    return exc.value


# Root-definition members that satisfy its required members, without the closing brace.
_RD = (
    'root-definition rd { customer a actor a owner a transformation "t" { subject s : S } '
    'worldview "w"'
)


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


def test_an_empty_worldview_round_trips(case_ctx):
    rd = replace(case_ctx.root_definitions[0], worldview="")
    ctx = replace(case_ctx, root_definitions=(rd,))
    assert parse_ssm(format_ssm(ctx), "rt") == ctx


# Ids that start a root-definition keyword; a customer or actor list ends at one.
_STATEMENT_WORDS = ("customer", "actor", "owner", "transformation", "worldview", "environmental")


@pytest.mark.parametrize("word", _STATEMENT_WORDS)
def test_a_listed_id_that_starts_a_statement_round_trips(case_ctx, word):
    rd = case_ctx.root_definitions[0]
    rd = replace(
        rd,
        customers=rd.customers + (IdRef(word), IdRef("newHire")),
        actors=(IdRef("it"), IdRef(word), IdRef(word + "2"), IdRef("manager")),
    )
    ctx = replace(
        case_ctx,
        individuals=case_ctx.individuals
        + (Individual(word, "W", "Employee"), Individual(word + "2", "W2", "Employee")),
        root_definitions=(rd,),
    )
    text = format_ssm(ctx)
    assert f"        customer manager ;\n        customer {word} newHire ;\n" in text
    assert f"        actor it ;\n        actor {word} {word}2 manager ;\n" in text
    assert parse_ssm(text, "rt") == ctx


def test_lists_made_only_of_statement_words_round_trip(case_ctx):
    people = tuple(Individual(word, word, "Employee") for word in _STATEMENT_WORDS)
    ids = tuple(IdRef(word) for word in _STATEMENT_WORDS)
    rd = replace(case_ctx.root_definitions[0], customers=ids, actors=ids[::-1])
    ctx = replace(case_ctx, individuals=case_ctx.individuals + people, root_definitions=(rd,))
    assert parse_ssm(format_ssm(ctx), "rt") == ctx


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


def test_semicolons_may_follow_blocks():
    text = (
        f'context C {{ individual a : P "A" ; {_RD} }} ; ; '
        'conceptual-model rd { activity x "X" by a ; } ; }'
    )
    assert parse_ssm(text) == parse_ssm(text.replace(" ;", ""))


def test_line_comments_are_ignored():
    text = 'context C {\n# a comment\nindividual a : P "A" # trailing\n}'
    assert parse_ssm(text).individuals[0].id == "a"


def test_duplicate_top_level_id_rejected():
    text = 'context C { individual a : P "A" individual a : Q "B" }'
    with pytest.raises(ParseError) as exc:
        parse_ssm(text)
    assert "a" in str(exc.value)


def test_missing_rd_members_lists_them():
    error = _parse_error("context C { root-definition rd { owner a ; } }")
    assert error.message == (
        "root definition 'rd' is missing: customer, actor, transformation, worldview"
    )
    assert error.expected == ("customer", "actor", "transformation", "worldview")
    assert _position(error.span) == (1, 44, 1, 45)  # the closing brace


def test_bad_constraint_expression_is_respanned():
    text = (
        'context C { root-definition rd { customer a ; actor a ; owner a ; '
        'transformation "t" { subject s : S ; } ; worldview "w" ; '
        'environmental-constraint e1 "txt" require "1 +" ; } }'
    )
    with pytest.raises(ParseError) as exc:
        parse_ssm(text)
    assert "bad constraint expression" in exc.value.message
    assert _position(exc.value.span) == (1, 166, 1, 171)  # the expression string


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


@pytest.mark.parametrize(
    "text, expected, position",
    [
        (
            "context C {\n  widget\n}",
            ("individual", "root-definition", "conceptual-model", "'}'"),
            (2, 3, 2, 9),
        ),
        (
            f"context C {{\n  {_RD} widget }}\n}}",
            (
                "customer",
                "actor",
                "owner",
                "transformation",
                "worldview",
                "environmental-constraint",
                "'}'",
            ),
            (2, 102, 2, 108),
        ),
        (
            'context C { root-definition rd { transformation "t" {\n  widget } } }',
            ("subject", "input", "output", "'}'"),
            (2, 3, 2, 9),
        ),
        (
            "context C { conceptual-model rd {\n  widget } }",
            ("activity", "flow", "monitor", "'}'"),
            (2, 3, 2, 9),
        ),
    ],
    ids=["context", "root-definition", "transformation", "conceptual-model"],
)
def test_unknown_statement_in_each_block(text, expected, position):
    error = _parse_error(text)
    assert error.message == f"expected {', '.join(expected)}, found 'widget'"
    assert error.expected == expected
    assert error.found == "widget"
    assert _position(error.span) == position


def test_transformation_without_subject():
    error = _parse_error(
        'context C { root-definition rd { transformation "t" { input x : X } } }'
    )
    assert error.message == "transformation block lacks a subject"
    assert error.expected == ("subject",)
    assert _position(error.span) == (1, 67, 1, 68)


@pytest.mark.parametrize(
    "text, name, first, position",
    [
        (
            'context C {\n individual a : P "A"\n individual a : Q "B" widget }',
            "a",
            "f.ssm:2:2",
            (3, 2, 3, 22),
        ),
        (f"context C {{\n {_RD} }}\n {_RD} }} widget }}", "rd", "f.ssm:2:18", (3, 18, 3, 20)),
    ],
    ids=["individual", "root-definition"],
)
def test_duplicate_top_level_id_is_reported_first(text, name, first, position):
    error = _parse_error(text)  # before the unknown `widget` after it
    assert error.message == f"duplicate top-level id {name!r} (first declared at {first})"
    assert error.found == name
    assert _position(error.span) == position


def test_case_study_record_positions(case_ctx):
    (rd,) = case_ctx.root_definitions
    (cm,) = case_ctx.conceptual_models
    ec1, ec2 = rd.environmental_constraints
    positions = {
        "context": [case_ctx],
        "individual": case_ctx.individuals,
        "root definition": [rd],
        "transformation": [rd.transformation],
        "environmental constraint": [ec1, ec2],
        "conceptual model": [cm],
        "activity": cm.activities,
        "flow": cm.flows,
        "monitor": cm.monitors,
        "IdRef": [
            *rd.customers,
            *rd.actors,
            rd.owner,
            ec2.refines,
            cm.root_definition_id,
            cm.activities[0].performed_by,
            cm.flows[0].source,
            cm.flows[0].target,
            *cm.monitors[0].controls,
        ],
    }
    assert {kind: [_position(r.span) for r in records] for kind, records in positions.items()} == {
        "context": [(3, 1, 34, 2)],
        "individual": [(4, 5, 4, 47), (5, 5, 5, 45), (6, 5, 6, 45)],
        "root definition": [(8, 5, 20, 6)],
        "transformation": [(12, 9, 16, 10)],
        "environmental constraint": [(18, 9, 18, 157), (19, 9, 19, 160)],
        "conceptual model": [(22, 5, 33, 6)],
        "activity": [
            (23, 9, 23, 56),
            (24, 9, 24, 52),
            (25, 9, 25, 55),
            (26, 9, 26, 43),
            (27, 9, 27, 54),
        ],
        "flow": [(28, 9, 28, 22), (29, 9, 29, 22), (30, 9, 30, 22), (31, 9, 31, 22)],
        "monitor": [(32, 9, 32, 58)],
        "IdRef": [
            (9, 18, 9, 25),
            (10, 15, 10, 17),
            (10, 18, 10, 25),
            (11, 15, 11, 17),
            (19, 157, 19, 160),
            (22, 22, 22, 35),
            (23, 49, 23, 56),
            (28, 14, 28, 16),
            (28, 20, 28, 22),
            (32, 52, 32, 54),
            (32, 56, 32, 58),
        ],
    }


GRAMMAR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "GRAMMAR.md"


def _member_keywords(production: str) -> list[str]:
    """The keyword each alternative of a `.ssm` production starts with, in order.

    An alternative that starts with a production's name starts with that
    production's first terminal.
    """
    text = GRAMMAR.read_text()
    section = text[text.index("## The `.ssm` notation") : text.index("## The SysML")]
    rules = dict(re.findall(r"^([\w-]+) += (.*?) ;$", section, re.M | re.S))
    keywords = []
    for alternative in rules[production].split("|"):
        first = alternative.split()[0]
        keywords.append((first if first.startswith('"') else rules[first].split()[0]).strip('"'))
    return keywords


MEMBER_TABLES = {
    "member": _CONTEXT,
    "rd-member": _ROOT_DEFINITION,
    "tr-member": _TRANSFORMATION,
    "cm-member": _CONCEPTUAL_MODEL,
}


@pytest.mark.parametrize("production", list(MEMBER_TABLES))
def test_grammar_member_lists_are_the_statement_tables(production):
    assert _member_keywords(production) == list(MEMBER_TABLES[production])
