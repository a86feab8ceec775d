"""Canonical emitter / parser pair: round-trip fidelity and error paths."""
from __future__ import annotations

import pathlib
import re
from dataclasses import fields, replace

import pytest

from ssm2sysml import (
    Element,
    ElementKind,
    ParseError,
    UnsupportedConstruct,
    UnsupportedElement,
    emit,
    parse_sysml,
)
from ssm2sysml.exprs import Lit, Unary, expr_to_text, parse_expr_text
from ssm2sysml.lexing import MAX_NESTING
from ssm2sysml.sysml_ast import (
    DEF_KINDS,
    FORMS,
    Assignment,
    FKind,
    Multiplicity,
    Relationship,
    RelKind,
    Succession,
    iter_walk,
)

from model_gen import chain, gen_expr, gen_model, kitchen_sink, package

ROUND_TRIP_SEEDS = range(180)


def test_kettle_fixture_is_canonical(kettle_text, kettle_model):
    assert emit(kettle_model) == kettle_text
    assert parse_sysml(emit(kettle_model), "again") == kettle_model


def test_case_model_round_trips(case_model):
    text = emit(case_model)
    back = parse_sysml(text, "case")
    assert back == case_model
    assert emit(back) == text


@pytest.mark.parametrize("seed", ROUND_TRIP_SEEDS)
def test_generated_round_trip(seed):
    model = gen_model(seed)
    text = emit(model)
    back = parse_sysml(text, f"seed{seed}")
    assert back == model  # parse ∘ emit = identity (structurally)
    assert emit(back) == text  # emit ∘ parse = identity on canonical text


def test_kitchen_sink_round_trip():
    model = kitchen_sink()
    text = emit(model)
    assert parse_sysml(text, "sink") == model


def test_corpus_covers_every_kind_and_relationship():
    kinds, rels = set(), set()
    for seed in list(ROUND_TRIP_SEEDS) + [-1]:
        model = kitchen_sink() if seed == -1 else gen_model(seed)
        for element, _ in iter_walk(model):
            kinds.add(element.kind)
            rels.update(r.kind for r in element.relationships)
    assert kinds == set(ElementKind)
    assert rels == set(RelKind)


def test_emit_is_deterministic(case_model):
    assert emit(case_model) == emit(case_model)


def test_non_canonical_whitespace_normalizes():
    messy = "package  P {\n\n   part   x  :  T ;\n}\n"
    model = parse_sysml(messy, "messy")
    canonical = emit(model)
    assert canonical == emit(parse_sysml(canonical, "again"))
    assert "part x : T;" in canonical


def test_reserved_and_spaced_names_are_quoted():
    model = package(
        "P",
        Element(ElementKind.PART, name="first"),
        Element(ElementKind.PART, name="two words"),
        Element(ElementKind.PART, name="a'b"),
        Element(ElementKind.PART, name="new\nline\ttab\\"),
    )
    text = emit(model)
    assert "part 'first';" in text
    assert "part 'two words';" in text
    assert "part 'a\\'b';" in text
    assert "part 'new\\nline\\ttab\\\\';" in text
    assert parse_sysml(text, "q") == model


def test_block_text_requires_doc_or_comment_keyword():
    # Block text is a carrier for doc/comment bodies, not free-floating.
    with pytest.raises(ParseError):
        parse_sysml("package P { /* noise */ part x; }", "c")
    model = parse_sysml("package P { comment /* noise */ part x; }", "c")
    assert model.children[0].doc == "noise"
    assert model.children[1].name == "x"


def test_doc_and_comment_round_trip():
    model = package(
        "P",
        Element(ElementKind.COMMENT, doc="plain note"),
        Element(ElementKind.PART, name="x", doc="about x"),
    )
    assert parse_sysml(emit(model), "d") == model


@pytest.mark.parametrize(
    "keyword", ["port", "calc", "flow", "interface", "allocation", "import"]
)
def test_unsupported_keywords_are_recognized(keyword):
    with pytest.raises(UnsupportedConstruct) as exc:
        parse_sysml(f"package P {{ {keyword} x; }}", "u")
    assert exc.value.keyword == keyword
    assert "part" in exc.value.expected  # the error lists what *is* supported


def test_unknown_word_is_plain_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_sysml("package P { blorp x; }", "u")
    assert not isinstance(exc.value, UnsupportedConstruct)


SUPPORTED_DEF_KEYWORDS = (
    "attribute", "concern", "enum", "individual", "item", "metadata", "part", "requirement",
    "viewpoint",
)


@pytest.mark.parametrize(
    "body,message,column,expected",
    [
        ("metadata M;", "expected def, found 'M'", 22, ("def",)),
        ("enum E;", "expected def, found 'E'", 18, ("def",)),
        ("use x;", "expected 'case', found 'x'", 17, ("'case'",)),
        ("perform a;", "expected 'action', found 'a'", 21, ("'action'",)),
        ("blorp x;", "expected an element declaration, found 'blorp'", 13,
         ("an element declaration",)),
        ("port x;", "construct 'port' is outside the supported subset", 13,
         SUPPORTED_DEF_KEYWORDS),
        ("part x y;", "expected ';', '{', found 'y'", 20, ("';'", "'{'")),
        ("action a by ;", "expected performer name, found ';'", 25, ("performer name",)),
        ("part x { doc x }", "expected /* documentation */, found 'x'", 26,
         ("/* documentation */",)),
        ("view v { filter ; }", "expected '@', istype, iskind, '(', not, found ';'", 29,
         ("'@'", "istype", "iskind", "'('", "not")),
        ("part x { first ; }", "expected succession source name, found ';'", 28,
         ("succession source name",)),
        ("state s { entry ; }", "expected entry action name, found ';'", 29,
         ("entry action name",)),
        ("state s { do ; }", "expected do action name, found ';'", 26, ("do action name",)),
    ],
    ids=["metadata", "enum", "use", "perform", "unknown", "unsupported", "no-end", "by", "doc",
         "filter", "first", "entry", "do"],
)
def test_declaration_errors_name_the_missing_keyword(body, message, column, expected):
    with pytest.raises(ParseError) as exc:
        parse_sysml(f"package P {{ {body} }}", "d")
    error = exc.value
    assert (error.message, error.span.start_line, error.span.start_col) == (message, 1, column)
    assert error.expected == expected


@pytest.mark.parametrize(
    "body,keyword,column",
    [
        ("part x [1] [2];", "[", 24),
        ("part x = a = b;", "=", 24),
        ("attribute x : T = 1 = 2;", "=", 33),
        ("action a by p by q;", "by", 27),
        ("part x { doc /* a */ doc /* b */ }", "doc", 34),
        ("view v { filter @M; filter @N; }", "filter", 33),
        ("state s { entry a; entry b; }", "entry", 32),
        ("state s { do a; do b; }", "do", 29),
    ],
    ids=["multiplicity", "binding", "value", "by", "doc", "filter", "entry", "do"],
)
def test_a_single_valued_clause_may_occur_once(body, keyword, column):
    """A second clause would replace the first, so the text would not read back as written."""
    with pytest.raises(ParseError) as exc:
        parse_sysml(f"package P {{ {body} }}", "d")
    error = exc.value
    assert error.message == f"{keyword!r} may occur only once in a declaration"
    assert (error.span.start_line, error.span.start_col, error.found) == (1, column, keyword)


@pytest.mark.parametrize(
    "kind,targets,value",
    [(ElementKind.PART, ("a", "b"), None), (ElementKind.ATTRIBUTE, ("a",), Lit(1))],
    ids=["two-bindings", "binding-and-value"],
)
def test_emit_refuses_a_second_equals_clause(kind, targets, value):
    bindings = tuple(Relationship(RelKind.BINDING, (target,)) for target in targets)
    element = Element(kind, name="x", relationships=bindings, value=value)
    with pytest.raises(UnsupportedElement, match="at most one '=' clause"):
        emit(package("P", element))


@pytest.mark.parametrize(
    "body,word,column",
    [
        ("part x = a : T;", ":", 24),
        ("part x = a :> S;", ":>", 24),
        ("part x = a :>> S;", ":>>", 24),
        ("part x = a [1];", "[", 24),
        ("attribute x = 1 :>> y;", ":>>", 29),
        ("action a = b [1] by p;", "[", 26),
    ],
)
def test_a_relation_or_multiplicity_after_equals_is_refused(body, word, column):
    """The binding comes last, where `emit` writes it, so no declaration reads back reordered."""
    with pytest.raises(ParseError) as exc:
        parse_sysml(f"package P {{ {body} }}", "d")
    error = exc.value
    assert error.message == f"{word!r} may not follow '=' in a declaration"
    assert (error.span.start_line, error.span.start_col, error.found) == (1, column, word)


@pytest.mark.parametrize(
    "body,word,after,column",
    [
        ("part x [1] : T;", ":", "[", 24),
        ("action a by p : T;", ":", "by", 27),
        ("action a by p [1];", "[", "by", 27),
        ("action a by p = x;", "=", "by", 27),
    ],
    ids=["typing-after-multiplicity", "typing-after-by", "multiplicity-after-by",
         "binding-after-by"],
)
def test_a_clause_out_of_declarator_order_is_refused(body, word, after, column):
    """Relations, `[...]`, `=` and `by` come in that order, the one in which `emit` writes them."""
    with pytest.raises(ParseError) as exc:
        parse_sysml(f"package P {{ {body} }}", "d")
    error = exc.value
    assert error.message == f"{word!r} may not follow {after!r} in a declaration"
    assert (error.span.start_line, error.span.start_col, error.found) == (1, column, word)


def test_every_declarator_clause_in_order_round_trips():
    text = "package P {\n    action a : T [1] = b by p;\n}\n"
    assert emit(parse_sysml(text, "d")) == text


_T, _B, _R = (Relationship(k, ("t",)) for k in (RelKind.TYPING, RelKind.BINDING, RelKind.REFINES))


@pytest.mark.parametrize(
    "relationships",
    [(_B, _T), (_R, _T), (_R, _B), (_T, _R, _B)],
    ids=["binding-typing", "refines-typing", "refines-binding", "typing-refines-binding"],
)
def test_emit_refuses_relationships_it_would_reorder(relationships):
    element = Element(ElementKind.PART, name="x", relationships=relationships)
    with pytest.raises(UnsupportedElement, match="would read back reordered"):
        emit(package("P", element))


def test_emit_refuses_a_binding_on_an_attribute():
    """`attribute x = t;` would read back as the value `t`, with no relationship."""
    element = Element(ElementKind.ATTRIBUTE, name="x", relationships=(_B,))
    with pytest.raises(UnsupportedElement, match="kind attribute takes no BINDING relationship"):
        emit(package("P", element))


@pytest.mark.parametrize("name", ["comment@0", "part@1", "use_case_def@12", "part_def@007"])
def test_a_name_spelling_a_synthesized_segment_is_refused(name):
    with pytest.raises(ParseError, match="spells an unnamed element's segment") as exc:
        parse_sysml(f"package P {{ part '{name}'; }}", "s")
    assert (exc.value.span.start_line, exc.value.span.start_col) == (1, 18)
    with pytest.raises(UnsupportedElement, match="spells an unnamed element's segment"):
        emit(package("P", Element(ElementKind.PART, name=name)))


@pytest.mark.parametrize("name", ["widget@0", "comment@", "comment@x", "@0", "part@1 ", "part"])
def test_a_name_like_a_segment_but_not_one_round_trips(name):
    model = package("P", Element(ElementKind.PART, name=name))
    assert parse_sysml(emit(model), "s") == model


def test_a_reference_may_spell_a_synthesized_segment():
    model = parse_sysml("package P { comment /* c */ view v { expose 'comment@0'; } }", "s")
    assert model.children[1].relationships[0].target == ("comment@0",)
    assert parse_sysml(emit(model), "s") == model


def test_unterminated_body():
    with pytest.raises(ParseError):
        parse_sysml("package P { part x {", "u")


def test_unterminated_block_comment():
    with pytest.raises(ParseError):
        parse_sysml("package P { doc /* never ends", "u")


def test_entry_do_only_in_states():
    with pytest.raises(ParseError):
        parse_sysml("package P { part x { entry go; } }", "u")


def test_enum_literals_only_in_enum_defs():
    text = "package P { enum def E { red; green; } }"
    model = parse_sysml(text, "e")
    assert model.children[0].enum_literals == ("red", "green")


def test_transition_full_form_round_trips():
    text = (
        "package P {\n    state machine {\n"
        "        transition t1 first a accept go if x > 1 do fire then b;\n"
        "    }\n}\n"
    )
    model = parse_sysml(text, "t")
    assert emit(model) == text


def test_filter_precedence_round_trips():
    text = (
        "package P {\n    view v {\n"
        "        filter not @M and istype T or iskind part;\n    }\n}\n"
    )
    model = parse_sysml(text, "f")
    assert emit(model) == text


def test_filter_rejects_unknown_kind_word():
    with pytest.raises(ParseError):
        parse_sysml("package P { view v { filter iskind gadget; } }", "f")


@pytest.mark.parametrize("seed", range(200))
def test_expression_text_round_trip(seed):
    import random

    expr = gen_expr(random.Random(seed))
    assert parse_expr_text(expr_to_text(expr)) == expr


def test_expression_parenthesization():
    assert expr_to_text(parse_expr_text("a + b * c")) == "a + b * c"
    assert expr_to_text(parse_expr_text("(a + b) * c")) == "(a + b) * c"
    assert expr_to_text(parse_expr_text("not (a or b)")) == "not (a or b)"


@pytest.mark.parametrize(
    "text", ["(a > 0) == true", "a == (b != c)", "(a < b) == (c <= d)", "(not a) != b"]
)
def test_nested_comparison_is_parenthesized(text):
    expr = parse_expr_text(text)
    assert expr_to_text(expr) == text
    assert parse_expr_text(expr_to_text(expr)) == expr


def test_string_literal_escapes():
    expr = parse_expr_text('"tab\\tquote\\"end"')
    assert parse_expr_text(expr_to_text(expr)) == expr


def test_enum_literal_expression():
    text = "CatwoeElement::Actor"
    assert expr_to_text(parse_expr_text(text)) == text


@pytest.mark.parametrize(
    "value",
    [float("inf"), float("-inf"), float("nan"), 10**4300, -(10**5000), -1, -0.0, -0.5,
     -(10**4300 - 1)],
    ids=["inf", "-inf", "nan", "4301-digits", "-5001-digits", "-1", "-0.0", "-0.5",
         "-4300-digits"],
)
def test_literal_without_a_notation_cannot_be_built(value):
    with pytest.raises(ValueError):
        Lit(value)


def test_negative_literal_names_the_form_the_parsers_build():
    with pytest.raises(ValueError, match=re.escape("Unary('-', Lit(1))")):
        Lit(-1)
    assert parse_expr_text("-1") == Unary("-", Lit(1))


@pytest.mark.parametrize(
    "value, text",
    [(10**4300 - 1, "9" * 4300), (2**1920, str(2**1920)),
     (1.7976931348623157e308, "17976931348623157" + "0" * 292 + ".0"), (0.5, "0.5"),
     (1e-05, "0.00001"), (1e20, "100000000000000000000.0"), (5e-324, "0." + "0" * 323 + "5"),
     (0.0, "0.0")],
    ids=["4300-digits", "1921-bits", "max-float", "fraction", "small-float", "large-float",
         "min-float", "zero-float"],
)
def test_every_literal_that_can_be_built_emits(value, text):
    model = package("P", Element(ElementKind.ATTRIBUTE, name="a", value=Lit(value)))
    assert emit(model) == f"package P {{\n    attribute a = {text};\n}}\n"
    assert parse_sysml(emit(model)) == model


PREFIXABLE = (
    ElementKind.ATTRIBUTE, ElementKind.INDIVIDUAL, ElementKind.PART, ElementKind.ITEM,
    ElementKind.REQUIREMENT, ElementKind.CONCERN, ElementKind.STAKEHOLDER,
    ElementKind.VIEWPOINT, ElementKind.VIEW, ElementKind.ACTOR, ElementKind.SUBJECT,
    ElementKind.STATE,
)
# Elements that `in`, `out` and `ref` may not precede, each emittable without them.
UNPREFIXABLE = [
    Element(ElementKind.PART_DEF, name="x"),
    Element(ElementKind.PACKAGE, name="x"),
    Element(ElementKind.USE_CASE, name="x"),
    Element(ElementKind.REQUIREMENT, name="x", is_objective=True),
    Element(ElementKind.ACTION, name="x"),
    Element(ElementKind.ACTION, name="x", is_perform=True),
    Element(ElementKind.ACTION, name="x", flavor="decide"),
    Element(ElementKind.ACTION, flavor="send", signal=("s",)),
    Element(ElementKind.TRANSITION, source="a", target="b"),
    Element(ElementKind.CONSTRAINT, constraint_expr=Lit(True)),
    Element(ElementKind.COMMENT, doc="c"),
]


@pytest.mark.parametrize("kind", PREFIXABLE, ids=lambda k: k.value)
def test_a_prefixed_usage_round_trips(kind):
    model = package("P", Element(kind, name="x", direction="out", is_ref=True))
    assert parse_sysml(emit(model), "p") == model


@pytest.mark.parametrize("field", ["direction", "is_ref"])
@pytest.mark.parametrize("element", UNPREFIXABLE, ids=lambda e: e.kind.value)
def test_emit_refuses_a_prefix_the_grammar_does_not_admit(element, field):
    emit(package("P", element))
    prefixed = package("P", replace(element, **{field: "in" if field == "direction" else True}))
    kind = "objective" if element.is_objective else element.kind.value
    with pytest.raises(UnsupportedElement, match=f"kind {kind} takes no {field}$"):
        emit(prefixed)


@pytest.mark.parametrize("flavor", ["send", "accept"])
@pytest.mark.parametrize(
    "extra",
    [{"children": (Element(ElementKind.PART, name="p"),)}, {"name": "n"}, {"doc": "d"}],
    ids=["children", "name", "doc"],
)
def test_emit_refuses_what_a_signal_line_drops(flavor, extra):
    action = Element(ElementKind.ACTION, flavor=flavor, signal=("s",))
    assert parse_sysml(emit(package("P", action))) == package("P", action)
    (field,) = extra
    with pytest.raises(UnsupportedElement, match=f"kind action takes no {field}$"):
        emit(package("P", replace(action, **extra)))


# A non-default value of every compared field of Element.  The children are a declaration
# and a statement, so each body, an enum def's too, must read both back.
SAMPLES = {
    "name": "n",
    "relationships": (Relationship(RelKind.TYPING, ("T",)), Relationship(RelKind.REFINES, ("R",))),
    "multiplicity": Multiplicity(1, 2),
    "direction": "out",
    "is_ref": True,
    "is_perform": True,
    "flavor": "bogus",
    "signal": ("s",),
    "performer": ("p",),
    "doc": "d",
    "value": Lit(1),
    "constraint_kind": "require",
    "constraint_expr": Lit(True),
    "is_objective": True,
    "enum_literals": ("e", "f"),
    "entry_action": ("a",),
    "do_action": ("b",),
    "source": "a",
    "target": "b",
    "trigger": ("t",),
    "guard": Lit(False),
    "effect": ("x",),
    "meta_def": ("M",),
    "bindings": (("k", Lit(1)),),
    "assignments": (Assignment(("x",), Lit(2)),),
    "successions": (Succession("a", "b"),),
    "filter": FKind("part"),
    "children": (Element(ElementKind.PART, name="c"), Element(ElementKind.COMMENT, doc="c")),
}
assert set(SAMPLES) == {f.name for f in fields(Element) if f.compare} - {"kind"}

# What each notation writes, stated here apart from the tables `emit` reads: its name, its
# kind, the fields its keywords fix, the fields it writes and the fields it requires.
_BODY = "name relationships multiplicity doc filter assignments successions children"
_OWN = {"enum def": "enum_literals", "attribute": "value", "state": "entry_action do_action"}
_OWN.update(dict.fromkeys(("decide", "perform action", "action"), "performer"))
NOTATIONS = [
    (
        phrase, kind, dict([fixed] if fixed else []),
        f"{_BODY} {_OWN.get(phrase, '')}"
        + (" direction is_ref" if kind in PREFIXABLE and not fixed else ""),
        "",
    )
    for phrase, kind, fixed, _ in FORMS
] + [
    ("comment", ElementKind.COMMENT, {}, "doc", "doc"),
    ("metadata", ElementKind.METADATA, {}, "meta_def bindings", "meta_def"),
    ("transition", ElementKind.TRANSITION, {}, "name source target trigger guard effect",
     "source target"),
    ("constraint", ElementKind.CONSTRAINT, {}, "name constraint_kind constraint_expr",
     "constraint_expr"),
    ("send", ElementKind.ACTION, {"flavor": "send"}, "signal", "signal"),
    ("accept", ElementKind.ACTION, {"flavor": "accept"}, "signal", "signal"),
]
# A field whose value makes the element another notation of its kind.
_SELECTS = {("action", "is_perform"), ("requirement", "is_objective")}


def _notation_element(kind, fixed, set_fields):
    return Element(kind, **fixed, **{name: SAMPLES[name] for name in set_fields})


@pytest.mark.parametrize(
    "phrase, kind, fixed, required, field",
    [
        pytest.param(phrase, kind, fixed, required, field, id=f"{phrase}-{field}")
        for phrase, kind, fixed, writes, required in NOTATIONS
        for field in SAMPLES
        if field not in writes.split() + list(fixed) and (phrase, field) not in _SELECTS
    ],
)
def test_emit_refuses_a_field_its_notation_does_not_write(phrase, kind, fixed, required, field):
    element = _notation_element(kind, fixed, required.split())
    emit(package("P", element))
    name = "objective" if phrase == "objective" else kind.value
    with pytest.raises(UnsupportedElement, match=f"^an element of kind {name} takes no {field}$"):
        emit(package("P", replace(element, **{field: SAMPLES[field]})))


@pytest.mark.parametrize(
    "kind, fixed, writes", [n[1:4] for n in NOTATIONS], ids=[n[0] for n in NOTATIONS]
)
def test_a_notation_with_every_field_it_writes_round_trips(kind, fixed, writes):
    model = package("P", _notation_element(kind, fixed, writes.split()))
    assert parse_sysml(emit(model), "p") == model


@pytest.mark.parametrize(
    "kind, fixed, writes, field",
    [
        pytest.param(*n[1:4], field, id=f"{n[0]}-{field}")
        for n in NOTATIONS for field in n[4].split()
    ],
)
def test_emit_refuses_a_notation_that_lacks_a_required_field(kind, fixed, writes, field):
    element = replace(_notation_element(kind, fixed, writes.split()), **{field: None})
    message = f"^an element of kind {kind.value} lacks its {field}$"
    with pytest.raises(UnsupportedElement, match=message):
        emit(package("P", element))


# Values of a written field that no notation spells: no keyword, or nothing, which reads
# back as None.
UNSPELLED = {"name": [""], "direction": ["sideways", ""], "constraint_kind": ["maybe", ""]}


@pytest.mark.parametrize(
    "kind, fixed, writes, field, value",
    [
        pytest.param(*n[1:4], field, value, id=f"{n[0]}-{field}={value!r}")
        for n in NOTATIONS
        for field, values in UNSPELLED.items() if field in n[3].split()
        for value in values
    ],
)
def test_emit_refuses_a_value_its_notation_cannot_spell(kind, fixed, writes, field, value):
    element = _notation_element(kind, fixed, writes.split())
    name = "objective" if fixed.get("is_objective") else kind.value
    message = f"^an element of kind {name} has no notation for {field} {value!r}$"
    with pytest.raises(UnsupportedElement, match=message):
        emit(package("P", replace(element, **{field: value})))


def test_a_chain_as_deep_as_the_parser_reads_round_trips():
    model = chain(MAX_NESTING)
    assert parse_sysml(emit(model)) == model
    with_doc = chain(MAX_NESTING - 1, doc="d")
    assert parse_sysml(emit(with_doc)) == with_doc


@pytest.mark.parametrize(
    "model",
    [chain(MAX_NESTING + 1), chain(MAX_NESTING, doc="d"), chain(1_200)],
    ids=["257", "256-with-doc", "1200"],
)
def test_emit_refuses_a_body_nested_deeper_than_the_parser_reads(model):
    with pytest.raises(UnsupportedElement, match=f"^nesting deeper than {MAX_NESTING} levels$"):
        emit(model)  # not RecursionError, however deep


GRAMMAR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "GRAMMAR.md"


def _expand(tokens: list[str], stop: str | None = None) -> list[tuple[str, ...]]:
    """Every symbol sequence that EBNF `tokens` up to `stop` spell; consumes them."""
    sequences, current = [], [()]
    while tokens and tokens[0] != stop:
        token = tokens.pop(0)
        if token == "|":
            sequences, current = sequences + current, [()]
        elif token in ("(", "["):
            inner = _expand(tokens, ")" if token == "(" else "]")
            tokens.pop(0)
            current = [c + i for c in current for i in inner + [()] * (token == "[")]
        else:
            current = [c + (token.strip('"'),) for c in current]
    return sequences + current


def _declaration_phrases(production: str) -> set[str]:
    """The keyword phrases of the alternatives of a production that end in `declaration`."""
    body = re.search(rf"^{production} += (.*?) ;$", GRAMMAR.read_text(), re.M | re.S).group(1)
    tokens = re.findall(r'"[^"]*"|[()\[\]|]|[\w-]+', body)
    return {" ".join(s[:-1]) for s in _expand(tokens) if s[-1:] == ("declaration",)}


def test_grammar_keyword_lists_are_the_declaration_forms():
    defs, usages = _declaration_phrases("def"), _declaration_phrases("usage")
    prefixable = {phrase for phrase in usages if f"ref {phrase}" in usages}
    unprefixed = {p for p in usages if p.split()[0] not in ("in", "out", "ref")} - prefixable
    assert defs == {phrase for phrase, kind, _, _ in FORMS if kind in DEF_KINDS}
    assert prefixable == {phrase for phrase, _, _, writes in FORMS if "is_ref" in writes}
    # `package` is the file's own production, not a usage.
    assert unprefixed | {"package"} == {
        phrase for phrase, kind, _, writes in FORMS
        if "is_ref" not in writes and kind not in DEF_KINDS
    }
