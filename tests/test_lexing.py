"""The lexer: exact fault positions, token spans, and recorded token streams.

`recorded_tokens.json` holds, for each base text below and for seeded
edits of it, a digest of the tokens (kind, value, span) or of the
`ParseError` (message, span, expected, found) that `lex` gives in both
notations.  It was recorded from the character-walking lexer that the
master-pattern lexer replaced, on the same inputs.  To record again
after a deliberate change of the token format, run
`PYTHONPATH=src python tests/test_lexing.py`.
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
from hypothesis import given
from hypothesis import strategies as st

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from ssm2sysml import ParseError, emit, format_ssm, map_context, parse_ssm
from ssm2sysml.lexing import EOF, QNAME, STRING, lex, quote

from model_gen import gen_model
from ssm_gen import gen_context

HERE = pathlib.Path(__file__).resolve().parent
DATA = HERE.parent / "data"
RECORDED = HERE / "recorded_tokens.json"
GEN_SEEDS = range(40)
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
    for seed in GEN_SEEDS:
        bases[f"gen{seed}.sysml"] = emit(gen_model(seed))
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
