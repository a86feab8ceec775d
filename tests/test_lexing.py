"""The lexer: exact fault positions, token spans, and recorded token streams.

`recorded_tokens.json` holds, for each base text below and for seeded
edits of it, a digest of the tokens (kind, value, span) or of the
`ParseError` (message, span, expected, found) that `lex` gives in both
notations.  It was recorded from the character-walking lexer that the
master-pattern lexer replaced, on the same inputs.  To record again
after a deliberate change of the token format, run
`PYTHONPATH=src python tests/test_lexing.py`.

The `gen*.sysml` bases are frozen in `generated_texts.json`: the texts
`emit` wrote for 40 seeded random models, kept as text so that the
token oracle does not move when the model generator or the model's
invariants change.
"""
from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import random
import sys
from dataclasses import astuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from ssm2sysml import ParseError, emit, format_ssm, map_context, parse_ssm, parse_sysml
from ssm2sysml import ssm_parser, sysml_text
from ssm2sysml.exprs import parse_expr_text
from ssm2sysml.lexing import (
    BLOCKTEXT, EOF, IDENT, IDENT_RE, NUMBER, PUNCTUATION, QNAME, STRING, TokenStream, iter_lex,
    lex, quote,
)
from ssm2sysml.source import SourceSpan

from ssm_gen import gen_context

HERE = pathlib.Path(__file__).resolve().parent
DATA = HERE.parent / "data"
RECORDED = HERE / "recorded_tokens.json"
GENERATED = HERE / "generated_texts.json"
SSM_SEEDS = range(8)
EDITS = 25
EDIT_CHARS = "\"'\\\n\t\r/*#.0123456789:>=-"


FAULTS = [
    # (notation, text, message, line, column, found)
    ("sysml", "package P {\n    doc /* never ends", "unterminated /* ... */ block", 2, 9, ""),
    ("sysml", "package P { doc /*/ }", "unterminated /* ... */ block", 1, 17, ""),
    ("ssm", 'context C {\n  individual a : P "oops }', "unterminated string literal", 2, 20, ""),
    ("sysml", "package 'abc", "unterminated string literal", 1, 9, ""),
    ("sysml", "package P {\n    part 'a\nb';\n}", "newline inside string literal", 2, 10, ""),
    ("ssm", 'context C { individual a : P "x\\qy" }', "unknown escape sequence \\q", 1, 30, ""),
    ("ssm", 'context C {\r\n\t\tindividual a : P "\\x"', "unknown escape sequence \\x", 2, 20, ""),
    ("sysml", 'package P { attribute a = "a\\\nb"; }', "unknown escape sequence \\\n", 1, 27, ""),
    ("sysml", 'package P { attribute a = "x\\', "unterminated escape sequence", 1, 27, ""),
    ("sysml", "package 'a\\", "unterminated escape sequence", 1, 9, ""),
    ("ssm", "context C {\n  'x'", "unexpected character \"'\"", 2, 3, "'"),
    ("sysml", "package P {\n\t# not a comment\n}", "unexpected character '#'", 2, 2, "#"),
    ("ssm", "context C { ! }", "unexpected character '!'", 1, 13, "!"),
    # Only ASCII digits are digits: `int()` rejects some others and reads the rest.
    ("sysml", "package P { attribute a = ²; }", "unexpected character '²'", 1, 27, "²"),
    ("ssm", "context C { individual a : P ١ }", "unexpected character '١'", 1, 30, "١"),
]


@pytest.mark.parametrize("style, text, message, line, column, found", FAULTS)
def test_fault_position(style, text, message, line, column, found):
    with pytest.raises(ParseError) as exc:
        lex(text, "f", style)
    err = exc.value
    assert (err.message, err.span.start_line, err.span.start_col, err.found) == (
        message, line, column, found
    )
    assert err.span.end_line == line and err.span.end_col == column
    assert err.expected == ()


def test_spans_across_block_text_tabs_and_carriage_returns():
    text = "package\tP {\r\n\tdoc /* one\n two */\n}"
    tokens = [(t.kind, t.value, astuple(t.span)[1:]) for t in lex(text, "f", "sysml")]
    assert tokens == [
        ("ident", "package", (1, 1, 1, 8)),
        ("ident", "P", (1, 9, 1, 10)),
        ("punct", "{", (1, 11, 1, 12)),
        ("ident", "doc", (2, 2, 2, 5)),
        ("blocktext", " one\n two ", (2, 6, 3, 8)),
        ("punct", "}", (4, 1, 4, 2)),
        ("eof", "", (4, 2, 4, 2)),
    ]


def test_comments_and_numbers():
    text = "# note\nflow a1 -> a2 1..2 3.5 // x"
    tokens = [(t.kind, t.value) for t in lex(text, "f", "ssm")]
    assert tokens[:9] == [
        ("ident", "flow"), ("ident", "a1"), ("punct", "->"), ("ident", "a2"),
        ("number", "1"), ("punct", ".."), ("number", "2"), ("number", "3.5"),
        ("punct", "/"),
    ]
    assert [t.kind for t in lex("a // x\n:>> b", "f", "sysml")] == [
        "ident", "punct", "ident", EOF
    ]


@given(st.text(), st.sampled_from([('"', "ssm", STRING), ('"', "sysml", STRING), ("'", "sysml", QNAME)]))
def test_quote_is_the_inverse_of_lex(text, case):
    mark, style, kind = case
    first, end = lex(quote(text, mark), "f", style)
    assert (first.kind, first.value, end.kind) == (kind, text, EOF)


# --- spans against a reference walker ------------------------------------------


def _walk(text: str) -> list[tuple[int, int]]:
    """(line, column) of every offset of `text`, its end included, one character at a time."""
    positions, line, col = [], 1, 1
    for char in text:
        positions.append((line, col))
        line, col = (line + 1, 1) if char == "\n" else (line, col + 1)
    positions.append((line, col))
    return positions


_LITERAL = st.text(alphabet="ab \t\r\n\\\"'", max_size=6)
_BLOCK = st.text(alphabet="ab \t\r\n*/", max_size=12).filter(lambda text: "*/" not in text)


def _tokens(style: str):
    """(kind, value, source text) of one token of `style`."""
    shapes = [
        st.from_regex(IDENT_RE, fullmatch=True).map(lambda text: (IDENT, text, text)),
        st.from_regex(r"[0-9]{1,3}(\.[0-9]{1,2})?", fullmatch=True).map(
            lambda text: (NUMBER, text, text)
        ),
        st.sampled_from(":>> :: -> .. { } ; = * / ( ) .".split()).map(
            lambda text: (PUNCTUATION, text, text)
        ),
        _LITERAL.map(lambda text: (STRING, text, quote(text))),
    ]
    if style == "sysml":
        shapes.append(_LITERAL.map(lambda text: (QNAME, text, quote(text, "'"))))
        shapes.append(_BLOCK.map(lambda text: (BLOCKTEXT, text, f"/*{text}*/")))
    return st.one_of(shapes)


def _layout(style: str):
    """Layout that starts with whitespace, so that it never joins the token before it."""
    comment = "// c\n" if style == "sysml" else "# c\n"
    tail = st.lists(st.sampled_from([" ", "\t", "\r", "\n", comment]), max_size=3)
    return st.tuples(st.sampled_from([" ", "\t", "\r", "\n"]), tail).map(
        lambda parts: parts[0] + "".join(parts[1])
    )


@st.composite
def _sources(draw):
    """A source, its expected tokens as (kind, value, start, end), and a fault offset or None."""
    style = draw(st.sampled_from(["ssm", "sysml"]))
    text, tokens = draw(st.sampled_from(["", "\n", "\r\n\t"])), []
    for kind, value, written in draw(st.lists(_tokens(style), max_size=8)):
        tokens.append((kind, value, len(text), len(text) + len(written)))
        text += written + draw(_layout(style))
    fault = None
    if draw(st.booleans()):
        fault = len(text)
        faults = ["!", '"open', "'"] if style == "ssm" else ["!", "#", "'open", "/* open\n"]
        text += draw(st.sampled_from(faults))
    else:  # the end of input may follow a line comment that has no newline
        text += draw(st.sampled_from(["", "// end" if style == "sysml" else "# end"]))
    return style, text, tokens, fault


@given(_sources())
@example((
    "sysml", "doc /* one\r\ntwo */ x\t!",
    [(IDENT, "doc", 0, 3), (BLOCKTEXT, " one\r\ntwo ", 4, 18), (IDENT, "x", 19, 20)], 21,
))
@example(("ssm", "a # end", [(IDENT, "a", 0, 1)], None))
def test_spans_match_a_reference_walker(case):
    style, text, tokens, fault = case
    position = _walk(text)

    def span(start: int, end: int) -> SourceSpan:
        return SourceSpan("f", *position[start], *position[end])

    if fault is not None:
        with pytest.raises(ParseError) as exc:
            lex(text, "f", style)
        assert exc.value.span == span(fault, fault)
        return
    expected = [(kind, value, span(start, end)) for kind, value, start, end in tokens]
    expected.append((EOF, "", span(len(text), len(text))))
    assert [(t.kind, t.value, t.span) for t in lex(text, "f", style)] == expected


# --- the token stream ------------------------------------------------------------


def _lookahead(monkeypatch, module, parse, text: str, style: str) -> list[int]:
    """For each token `parse` pulls after the first, how far past `current` it lies."""
    tokens = lex(text, "f", style)
    index = {tok.start: i for i, tok in enumerate(tokens)}
    distances: list[int] = []
    stream = None

    def counting():
        for i, tok in enumerate(tokens):
            if stream is not None:
                distances.append(i - index[stream.current.start])
            yield tok

    def open_stream(_unread):
        nonlocal stream
        stream = TokenStream(counting())
        return stream

    monkeypatch.setattr(module, "TokenStream", open_stream)
    parse(text, "f")
    assert len(distances) == len(tokens) - 1  # each token pulled once, EOF included
    return distances


@pytest.mark.parametrize("name", ["kettle.sysml", "case_study.sysml", "case_study.ssm"])
def test_the_parsers_read_at_most_two_tokens_ahead(monkeypatch, name):
    if name.endswith(".ssm"):
        distances = _lookahead(monkeypatch, ssm_parser, parse_ssm, _bases()[name], "ssm")
        assert max(distances) == 2  # `root-definition` is three tokens
    else:
        distances = _lookahead(monkeypatch, sysml_text, parse_sysml, _bases()[name], "sysml")
        assert max(distances) <= 2


def test_peek_past_the_end_gives_eof():
    ts = TokenStream(iter_lex("a", "f", "sysml"))
    assert (ts.peek(1).kind, ts.peek(2).kind) == (EOF, EOF)
    assert ts.take().value == "a"
    assert (ts.current.kind, ts.peek(1).kind, ts.peek(2).kind) == (EOF, EOF, EOF)
    assert ts.take().kind == EOF and ts.current.kind == EOF


# A syntax error, then a lexical fault further on: (parse, notation, text, message, line, column).
SYNTAX_THEN_FAULT = [
    (parse_sysml, "sysml", 'package P {\n    part x = a : T;\n    attribute s = "open\n}\n',
     "newline inside string literal", 3, 19),
    (parse_sysml, "sysml", "package P { part ; }\n# trailer", "unexpected character '#'", 2, 1),
    (parse_ssm, "ssm", 'context C {\n  bogus\n  individual b : P "open\n}',
     "newline inside string literal", 3, 20),
    (parse_expr_text, "sysml", '(a + ) == "x\\q"', "unknown escape sequence \\q", 1, 11),
]


@pytest.mark.parametrize("parse, style, text, message, line, column", SYNTAX_THEN_FAULT)
def test_a_later_lexical_fault_wins_over_a_syntax_error(parse, style, text, message, line, column):
    """As when the whole file was lexed before parsing: the first lexical fault is reported."""
    with pytest.raises(ParseError) as exc:
        parse(text, "f")
    error = exc.value
    assert (error.message, error.span.start_line, error.span.start_col) == (message, line, column)
    with pytest.raises(ParseError) as lexed:
        lex(text, "f", style)
    assert (error.message, error.span, error.expected, error.found) == (
        lexed.value.message, lexed.value.span, lexed.value.expected, lexed.value.found
    )


# --- recorded token streams ---------------------------------------------------


@functools.lru_cache(maxsize=None)
def _bases() -> dict[str, str]:
    """Base texts by name; the suffix names the notation they are written in."""
    case = (DATA / "case_study.ssm").read_text()
    bases = {
        "case_study.ssm": case,
        "case_study.sysml": emit(map_context(parse_ssm(case))[0]),
        "kettle.sysml": (DATA / "kettle.sysml").read_text(),
    }
    for seed in SSM_SEEDS:
        ctx = gen_context(seed)
        bases[f"ssm{seed}.ssm"] = format_ssm(ctx)
        bases[f"ssm{seed}.sysml"] = emit(map_context(ctx)[0])
    bases.update(json.loads(GENERATED.read_text()))
    return bases


def _variants(name: str) -> list[str]:
    """The base text and seeded edits of one to three lexically significant characters."""
    text = _bases()[name]
    rng = random.Random(name)
    out = [text]
    for _ in range(EDITS):
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(chars) + 1)
            op = rng.randrange(3)
            if op == 0:
                chars.insert(at, rng.choice(EDIT_CHARS))
            elif at < len(chars):
                if op == 1:
                    chars[at] = rng.choice(EDIT_CHARS)
                else:
                    del chars[at]
        out.append("".join(chars))
    return out


def _position(span) -> list[int]:
    return [span.start_line, span.start_col, span.end_line, span.end_col]


def _digest(text: str, style: str) -> str:
    try:
        result = [[t.kind, t.value, _position(t.span)] for t in lex(text, "f", style)]
    except ParseError as exc:
        result = [exc.message, _position(exc.span), list(exc.expected), exc.found]
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()[:12]


def _record(name: str) -> list[str]:
    return [_digest(text, style) for text in _variants(name) for style in ("ssm", "sysml")]


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(RECORDED.read_text())


def test_recording_covers_every_base(recorded):
    assert sorted(recorded) == sorted(_bases())


@pytest.mark.parametrize("name", list(_bases()))
def test_tokens_match_recording(recorded, name):
    assert _record(name) == recorded[name]


if __name__ == "__main__":
    RECORDED.write_text(
        json.dumps({name: _record(name) for name in _bases()}, separators=(",", ":")) + "\n"
    )
