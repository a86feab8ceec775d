"""End-to-end CLI behavior: exit codes, output formats, determinism."""
from __future__ import annotations

import contextlib
import importlib
import importlib.metadata
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssm2sysml import Element, ElementKind, emit, map_context, parse_ssm, parse_sysml
from ssm2sysml.cli import main
from ssm2sysml.exprs import Lit
from ssm2sysml.lexing import CONSTRAINT_DEPTH, MAX_NESTING

from model_gen import package
from mutations import MUTATIONS

REPO = Path(__file__).resolve().parent.parent
DATA_SSM = str(REPO / "data" / "case_study.ssm")
DATA_SYSML = str(REPO / "data" / "kettle.sysml")


def _cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """Run the CLI as a child process in `cwd`, with UTF-8 standard streams."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "PYTHONUTF8": "1"}
    return subprocess.run(
        [sys.executable, "-m", "ssm2sysml.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, encoding="utf-8",
    )


@pytest.fixture()
def compiled(tmp_path):
    out = tmp_path / "out"
    code = main(["compile", DATA_SSM, "-o", str(out)])
    assert code == 0
    return out / "Context.sysml"


# --- compile -----------------------------------------------------------------


def test_compile_writes_model(compiled, capsys):
    assert compiled.exists()
    model = parse_sysml(compiled.read_text(), str(compiled))
    assert model.name == "Context"


def test_compile_prints_target(tmp_path, capsys):
    main(["compile", DATA_SSM, "-o", str(tmp_path)])
    out = capsys.readouterr().out
    assert "wrote" in out and "Context.sysml" in out


def test_compile_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["compile", DATA_SSM, "-o", str(a)]) == 0
    assert main(["compile", DATA_SSM, "-o", str(b)]) == 0
    assert (a / "Context.sysml").read_bytes() == (b / "Context.sysml").read_bytes()


def test_compile_report_json(tmp_path):
    assert main(["compile", DATA_SSM, "-o", str(tmp_path), "--report"]) == 0
    payload = json.loads((tmp_path / "Context.report.json").read_text())
    assert set(payload) == {"provenance", "warnings"}
    roles = {entry["role"] for entry in payload["provenance"] if entry["role"]}
    assert roles == {
        "Customer",
        "Actor",
        "Transformation",
        "Worldview",
        "Owner",
        "Environment",
    }


def test_compile_state_pattern(tmp_path):
    code = main(
        ["compile", DATA_SSM, "-o", str(tmp_path), "--state-pattern", "assignLicense"]
    )
    assert code == 0
    text = (tmp_path / "Context.sysml").read_text()
    assert "state idle;" in text
    assert "send assignLicenseDone;" in text


def test_a_state_pattern_that_names_no_root_definition_exits_2(tmp_path, capsys):
    misspelt = ["--state-pattern", "assignLicence"]
    args = ["compile", DATA_SSM, "-o", str(tmp_path), *misspelt, "--state-pattern",
            "assignLicense", *misspelt]
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines() == [
        "--state-pattern 'assignLicence' names no root definition"
    ]
    assert "state idle;" in (tmp_path / "Context.sysml").read_text()


def test_a_state_pattern_may_name_a_root_definition_of_any_input(tmp_path, capsys):
    (tmp_path / "c.ssm").write_text(_ONE_OF_EACH)
    args = ["compile", DATA_SSM, str(tmp_path / "c.ssm"), "-o", str(tmp_path), "--state-pattern", "r"]
    assert main(args) == 0  # `r` is in the second input only
    assert "--state-pattern" not in capsys.readouterr().err


def test_compile_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ssm"
    bad.write_text("context {")
    assert main(["compile", str(bad), "-o", str(tmp_path / "o")]) == 2
    assert "bad.ssm" in capsys.readouterr().err


def test_compile_missing_file_exits_2(tmp_path, capsys):
    assert main(["compile", str(tmp_path / "nope.ssm"), "-o", str(tmp_path)]) == 2
    assert "internal error" not in capsys.readouterr().err


def test_compile_invalid_context_exits_1(tmp_path, capsys):
    bad = tmp_path / "invalid.ssm"
    bad.write_text(
        'context C { root-definition rd { customer ghost ; actor ghost ; owner ghost ; '
        'transformation "t" { subject s : S ; } ; worldview "w" ; } }'
    )
    assert main(["compile", str(bad), "-o", str(tmp_path / "o")]) == 1
    assert "SSM-001" in capsys.readouterr().err


def test_compile_of_an_empty_worldview_is_ssm_005(tmp_path, capsys):
    text = Path(DATA_SSM).read_text()
    old = (
        'worldview "Appropriate access should be given to new hires and license availability '
        'recorded"'
    )
    assert text.count(old) == 1
    source = tmp_path / "in.ssm"
    source.write_text(text.replace(old, 'worldview ""'))
    assert main(["compile", str(source), "-o", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"{source}:8:5: error[SSM-005] root definition 'assignLicense' has an empty worldview"
    ]


_ONE_OF_EACH = """context C {
    individual it : Person "IT"
    individual ann : Person "Ann"
    root-definition r {
        customer ann ;
        actor it ;
        owner it ;
        transformation "t" { subject s : S ; } ;
        worldview "w" ;
        environmental-constraint e1 "one" ;
    }
    conceptual-model r {
        activity a1 "one" by it ;
        monitor m1 "watch" controls a1 ;
    }
}
"""


def test_an_activity_and_a_monitor_may_share_an_id(tmp_path, capsys):
    text = _ONE_OF_EACH.replace("monitor m1", "monitor a1")
    (tmp_path / "in.ssm").write_text(text)
    assert main(["compile", str(tmp_path / "in.ssm"), "-o", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize(
    "old, new, where, message",
    [
        pytest.param(
            "    }\n}\n",
            '    }\n    conceptual-model r {\n        activity a2 "two" by it ;\n    }\n}\n',
            "16:5",
            "root definition 'r' has a second conceptual model",
            id="context-conceptual-model",
        ),
        pytest.param(
            "customer ann ;", "customer ann it ann ;", "5:25",
            "root definition 'r' declares customer 'ann' twice",
            id="root-definition-customer",
        ),
        pytest.param(
            "actor it ;", "actor it ann it ;", "6:22",
            "root definition 'r' declares actor 'it' twice",
            id="root-definition-actor",
        ),
        pytest.param(
            'environmental-constraint e1 "one" ;',
            'environmental-constraint e1 "one" ;\n        environmental-constraint e1 "two" ;',
            "11:9",
            "root definition 'r' declares environmental constraint 'e1' twice",
            id="root-definition-constraint",
        ),
        pytest.param(
            'activity a1 "one" by it ;',
            'activity a1 "one" by it ;\n        activity a1 "again" by it ;',
            "14:9",
            "conceptual model of 'r' declares activity 'a1' twice",
            id="conceptual-model-activity",
        ),
        pytest.param(
            'monitor m1 "watch" controls a1 ;',
            'monitor m1 "watch" controls a1 ;\n        monitor m1 "again" controls a1 ;',
            "15:9",
            "conceptual model of 'r' declares monitor 'm1' twice",
            id="conceptual-model-monitor",
        ),
    ],
)
def test_a_repeated_declaration_is_ssm_004(tmp_path, capsys, old, new, where, message):
    assert _ONE_OF_EACH.count(old) == 1
    source = tmp_path / "in.ssm"
    source.write_text(_ONE_OF_EACH.replace(old, new))
    assert main(["compile", str(source), "-o", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"{source}:{where}: error[SSM-004] {message}"
    ]
    assert not (tmp_path / "o" / "C.sysml").exists()
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "old, new, where",
    [
        pytest.param("owner it ;", "owner it ;\n        owner ann ;", "8:9", id="owner"),
        pytest.param(
            'worldview "w" ;', 'worldview "w" ;\n        worldview "v" ;', "10:9", id="worldview"
        ),
        pytest.param(
            'transformation "t" { subject s : S ; } ;',
            'transformation "t" { subject s : S ; } ;\n'
            '        transformation "u" { subject s : S ; } ;',
            "9:9",
            id="transformation",
        ),
        pytest.param("subject s : S ;", "subject s : S ; subject u : U ;", "8:46", id="subject"),
    ],
)
def test_a_repeated_singular_statement_is_a_parse_error(tmp_path, capsys, old, new, where):
    """A second owner, transformation, worldview or subject used to replace the first silently."""
    assert _ONE_OF_EACH.count(old) == 1
    source = tmp_path / "in.ssm"
    source.write_text(_ONE_OF_EACH.replace(old, new))
    assert main(["compile", str(source), "-o", str(tmp_path / "o")]) == 2
    keyword = old.split()[0]
    block = "transformation" if keyword == "subject" else "root definition"
    assert capsys.readouterr().err.splitlines() == [
        f"{source}:{where}: {keyword!r} may occur only once in a {block}"
    ]
    assert not (tmp_path / "o" / "C.sysml").exists()


def test_compile_continues_after_failures(tmp_path, capsys):
    bad = tmp_path / "bad.ssm"
    bad.write_text("not even close")
    out = tmp_path / "o"
    code = main(["compile", str(bad), DATA_SSM, "-o", str(out)])
    assert code == 2  # worst outcome wins ...
    assert (out / "Context.sysml").exists()  # ... but good inputs still compile


def test_compile_refuses_to_overwrite_what_it_wrote(tmp_path, capsys):
    """Two inputs that declare one context name would write one file."""
    second = tmp_path / "second.ssm"
    second.write_text(Path(DATA_SSM).read_text().replace('"HR Manager"', '"HR Lead"'))
    out = tmp_path / "o"
    assert main(["compile", DATA_SSM, str(second), "-o", str(out), "--report"]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"wrote {out / 'Context.sysml'}"]
    assert captured.err.splitlines() == [
        f"{second}: not writing {out / 'Context.sysml'}, already written from {DATA_SSM}"
        " (both declare context Context)"
    ]
    assert "HR Lead" not in (out / "Context.sysml").read_text()
    assert sorted(p.name for p in out.iterdir()) == ["Context.report.json", "Context.sysml"]


def test_compile_of_a_3000_activity_chain(tmp_path):
    case = Path(DATA_SSM).read_text()
    start, end = case.index("        activity a1"), case.index("        monitor m1")
    chain = [f'        activity a{i} "step {i}" by it\n' for i in range(1, 3001)]
    chain += [f"        flow a{i} -> a{i + 1}\n" for i in range(1, 3000)]
    (tmp_path / "chain.ssm").write_text(case[:start] + "".join(chain) + case[end:])
    done = _cli(tmp_path, "compile", "chain.ssm", "-o", "out")
    assert (done.returncode, done.stderr) == (0, "")
    assert "perform action a3000 by actor_it" in (tmp_path / "out" / "Context.sysml").read_text()


# A non-ASCII digit is a character `int()` rejects or reads as an ASCII one;
# the lexer takes only [0-9] as digits, so it is a parse error (exit 2).
NON_ASCII_DIGIT_INPUTS = [
    ("compile", "digit.ssm",
     'context C { root-definition rd { customer a ; actor a ; owner a ; '
     'transformation "t" { subject s : S ; } ; worldview "w" ; '
     'environmental-constraint e1 "txt" require "x > \u00b2" ; } }'),
    ("check", "digit.sysml", "package P {\n    attribute a = \u00b2;\n}\n"),
]


@pytest.mark.parametrize("command, name, text", NON_ASCII_DIGIT_INPUTS, ids=["ssm", "sysml"])
def test_non_ascii_digit_is_a_parse_error(tmp_path, command, name, text):
    source = tmp_path / name
    source.write_text(text, encoding="utf-8")
    args = [command, str(source)] + (["-o", str(tmp_path / "o")] if command == "compile" else [])
    done = _cli(tmp_path, *args)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "internal error" not in done.stderr
    assert "unexpected character '\u00b2'" in done.stderr


@pytest.mark.parametrize("bounds, column", [("1.5", 21), ("0..2.5", 24)], ids=["lower", "upper"])
def test_non_integer_multiplicity_bound_is_a_parse_error(tmp_path, bounds, column):
    (tmp_path / "m.sysml").write_text(f"package P {{ part x [{bounds}]; }}\n")
    done = _cli(tmp_path, "check", "m.sysml")
    which = "lower" if bounds == "1.5" else "upper"
    assert (done.returncode, done.stderr) == (
        2, f"m.sysml:1:{column}: expected multiplicity {which} bound, found '{bounds[-3:]}'\n"
    )


LONG_NUMBER = "9" * 5000
# case -> (command, file, text holding LONG_NUMBER, text of the token it is reported at)
LONG_NUMBERS = {
    "attribute": ("check", "n.sysml", f"package P {{\n    attribute a = {LONG_NUMBER};\n}}\n",
                  LONG_NUMBER),
    "bound": ("check", "n.sysml", f"package P {{ part x [0..{LONG_NUMBER}]; }}\n", LONG_NUMBER),
    "require": ("compile", "n.ssm", Path(DATA_SSM).read_text().replace(
        '"license.availability > 0"', f'"license.availability > {LONG_NUMBER}"'),
        '"license.availability'),
}


@pytest.mark.parametrize("case", LONG_NUMBERS)
def test_number_past_the_digit_limit_is_a_parse_error(tmp_path, case):
    command, name, text, at = LONG_NUMBERS[case]
    (tmp_path / name).write_text(text)
    done = _cli(tmp_path, command, name, *(["-o", "out"] if command == "compile" else []))
    offset = text.index(at)
    line, col = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
    prefix = "bad constraint expression: " if command == "compile" else ""
    limit = sys.get_int_max_str_digits()
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"{name}:{line}:{col}: {prefix}integer longer than {limit} digits\n"


HUGE_FRACTION = "9" * 400 + ".5"  # float() gives inf
# case -> (command, file, text holding HUGE_FRACTION)
HUGE_FRACTIONS = {
    "require": ("compile", "f.ssm", Path(DATA_SSM).read_text().replace(
        '"license.availability > 0"', f'"license.availability > {HUGE_FRACTION}"')),
    "constraint": ("check", "f.sysml", "package P {\n    attribute a;\n"
                   f"    constraint c {{ a > {HUGE_FRACTION} }}\n}}\n"),
}


@pytest.mark.parametrize("case", HUGE_FRACTIONS)
def test_number_past_the_float_range_is_a_parse_error(tmp_path, case):
    command, name, text = HUGE_FRACTIONS[case]
    (tmp_path / name).write_text(text)
    done = _cli(tmp_path, command, name, *(["-o", "out"] if command == "compile" else []))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(f"{name}:")
    assert done.stderr.endswith("number out of floating-point range\n")
    assert not (tmp_path / "out" / "Context.sysml").exists()
    assert not (tmp_path / "out").exists()


# Constraints that `compile` once wrote in a form `check` could not read back.
PRINTED_REQUIRES = {
    "nested-comparison": "(license.availability > 0) == true",
    "small-float": "license.availability > 0.00001",
    "large-float": "license.availability > 100000000000000000000.0",
}


@pytest.mark.parametrize("case", PRINTED_REQUIRES)
def test_compiled_constraint_checks(tmp_path, case):
    require = PRINTED_REQUIRES[case]
    (tmp_path / "f.ssm").write_text(Path(DATA_SSM).read_text().replace(
        '"license.availability > 0"', f'"{require}"'))
    compiled = _cli(tmp_path, "compile", "f.ssm", "-o", "out")
    assert (compiled.returncode, compiled.stderr) == (0, "")
    assert f"require constraint {{ {require} }}" in (tmp_path / "out" / "Context.sysml").read_text()
    checked = _cli(tmp_path, "check", "out/Context.sysml")
    assert (checked.returncode, checked.stderr) == (0, "")


BAD_SYSML = b"package P { part \xff; }\n"
# command -> (file, its bytes, further arguments, undecodable byte, reason)
UNDECODABLE = {
    "compile": ("bad.ssm", b'context C { individual a : P "caf\xe9" }\n', ["-o", "out"],
                33, "invalid continuation byte"),
    "check": ("bad.sysml", BAD_SYSML, [], 17, "invalid start byte"),
    "trace": ("bad.sysml", BAD_SYSML, ["--from", "P"], 17, "invalid start byte"),
    "view": ("bad.sysml", BAD_SYSML, ["v"], 17, "invalid start byte"),
}


@pytest.mark.parametrize("command", UNDECODABLE)
def test_undecodable_input_is_a_fault(tmp_path, command):
    name, data, extra, at, reason = UNDECODABLE[command]
    (tmp_path / name).write_bytes(data)
    done = _cli(tmp_path, command, name, *extra)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"{name}: not UTF-8 text: byte {at} ({reason})\n"


def test_carriage_return_in_names_and_strings_survives_a_file(tmp_path):
    model = package(
        "P",
        Element(ElementKind.PART, name="a\rb"),
        Element(ElementKind.ATTRIBUTE, name="v", value=Lit("x\r\ny")),
    )
    path = tmp_path / "cr.sysml"
    path.write_text(emit(model))
    assert b"\r" not in path.read_bytes()
    done = _cli(tmp_path, "check", "cr.sysml")
    assert (done.returncode, done.stderr) == (0, "")
    assert parse_sysml(path.read_text(), "cr.sysml") == model


def _nested_parts(depth: int) -> str:
    """`depth` nested bodies: the package and `depth - 1` parts."""
    return "package P {\n" + "part a {\n" * (depth - 1) + "part a;\n" + "}\n" * depth


def _in_view(nest):
    """A view filter `nest`ed so that with the package and view bodies it is `depth` deep."""
    def text(depth: int) -> str:
        inner = nest(depth - 2, "iskind part")
        return f"package P {{\n  part x;\n  view v {{ expose x; filter {inner}; }}\n}}\n"
    return text


def _in_requirement(nest):
    """The case study with one `require` expression `nest`ed so that, in the
    bodies where the mapper writes it, it is `depth` deep."""
    def text(depth: int) -> str:
        nested = nest(depth - CONSTRAINT_DEPTH, "license.availability > 0")
        case = Path(DATA_SSM).read_text()
        return case.replace('require "license.availability > 0"', f'require "{nested}"')
    return text


def _parenthesized(depth: int, inner: str) -> str:
    return "(" * depth + inner + ")" * depth


def _negated(depth: int, inner: str) -> str:
    return "not " * depth + inner


def _minus_chain(depth: int, inner: str) -> str:
    """Minus signs before `inner`; the printer writes `- -a` as `-(-a)`, so n
    signs take 2n - 1 levels, and an even `depth` adds one pair of parentheses."""
    chain = "- " * ((depth + 1) // 2) + inner
    return chain if depth % 2 else f"({chain})"


# construct -> (command, file suffix, text nested `depth` levels deep)
NESTING = {
    "declarations": ("check", ".sysml", _nested_parts),
    "filter-parentheses": ("check", ".sysml", _in_view(_parenthesized)),
    "filter-not": ("check", ".sysml", _in_view(_negated)),
    "require-parentheses": ("compile", ".ssm", _in_requirement(_parenthesized)),
    "require-not": ("compile", ".ssm", _in_requirement(_negated)),
    "require-minus": ("compile", ".ssm", _in_requirement(_minus_chain)),
}


@pytest.mark.parametrize("construct", NESTING)
def test_nesting_cap(tmp_path, monkeypatch, capsys, construct):
    command, suffix, text = NESTING[construct]
    out = ["-o", "out"] if command == "compile" else []
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"cap{suffix}").write_text(text(MAX_NESTING))
    assert main([command, f"cap{suffix}", *out]) == 0
    if command == "compile":  # the file written at the limit loads again
        assert main(["check", "out/Context.sysml"]) == 0
    names = []
    for depth in (MAX_NESTING + 1, 1500):
        names.append(f"deep{depth}{suffix}")
        (tmp_path / names[-1]).write_text(text(depth))
    done = _cli(tmp_path, command, *names, *out)
    assert (done.returncode, done.stdout) == (2, "")
    lines = done.stderr.splitlines()
    assert len(lines) == 2, done.stderr
    for name, line in zip(names, lines):
        assert line.startswith(name + ":")
        assert line.endswith(f"nesting deeper than {MAX_NESTING} levels")


def _chain_in_attribute(ops: int) -> str:
    return f"package P {{ attribute a = {' + '.join(['1'] * (ops + 1))}; }}\n"


def _chain_in_filter(ops: int) -> str:
    chain = " or ".join(["iskind part"] * (ops + 1))
    return f"package P {{ part x; view v {{ expose x; filter {chain}; }} }}\n"


def _chain_in_requirement(ops: int) -> str:
    """The case study with its first `require` a chain of `ops` operators: `+`, then `>`."""
    chain = " + ".join(["license.availability"] * ops) + " > 0"
    return re.sub('require "[^"]*"', f'require "{chain}"', Path(DATA_SSM).read_text(), count=1)


# construct -> (command and the arguments after its file, file suffix, text holding a
# chain of `ops` operators, the longest chain the bodies around it leave room for)
CHAINS = {
    "attribute": (["check"], ".sysml", _chain_in_attribute, MAX_NESTING),
    "filter": (["view", "v"], ".sysml", _chain_in_filter, MAX_NESTING - 1),
    "require": (["compile", "-o", "out"], ".ssm", _chain_in_requirement,
                MAX_NESTING - CONSTRAINT_DEPTH + 1),
}


@pytest.mark.parametrize("construct", CHAINS)
def test_each_operator_after_a_chains_first_is_a_nesting_level(
    tmp_path, monkeypatch, capsys, construct
):
    (command, *args), suffix, text, longest = CHAINS[construct]
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"cap{suffix}").write_text(text(longest))
    assert main([command, f"cap{suffix}", *args]) == 0
    if command == "compile":  # the file written at the limit loads again
        assert main(["check", "out/Context.sysml"]) == 0
    capsys.readouterr()
    for ops in (longest + 1, 3000):
        name = f"chain{ops}{suffix}"
        (tmp_path / name).write_text(text(ops))
        assert main([command, name, *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(name + ":") and err.count("\n") == 1
        assert err.endswith(f"nesting deeper than {MAX_NESTING} levels\n")


# --- check -------------------------------------------------------------------


def test_check_conformant_model_exits_0(compiled, capsys):
    assert main(["check", str(compiled)]) == 0
    assert capsys.readouterr().out == ""


def test_check_kettle_fixture(capsys):
    assert main(["check", DATA_SYSML]) == 0


def _write_mutant(tmp_path, compiled, rule_id):
    model = parse_sysml(compiled.read_text(), "c")
    mutate = {rid: fn for rid, _, fn in MUTATIONS}[rule_id]
    target = tmp_path / "mutant.sysml"
    target.write_text(emit(mutate(model)))
    return target


def test_check_violations_exit_1_with_locations(tmp_path, compiled, capsys):
    mutant = _write_mutant(tmp_path, compiled, "R-ENV-1")
    assert main(["check", str(mutant)]) == 1
    out = capsys.readouterr().out
    assert "error[R-ENV-1]" in out
    assert "mutant.sysml" in out


def test_check_warning_only_exits_0(tmp_path, compiled, capsys):
    mutant = _write_mutant(tmp_path, compiled, "R-VIEW-1")
    assert main(["check", str(mutant)]) == 0
    assert "warning[R-VIEW-1]" in capsys.readouterr().out


def test_check_json_format(tmp_path, compiled, capsys):
    mutant = _write_mutant(tmp_path, compiled, "R-ACT-1")
    assert main(["check", "--format", "json", str(mutant)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["rule"] == "R-ACT-1"
    assert payload[0]["element"].endswith("actor_it")


def test_check_rule_subset(tmp_path, compiled, capsys):
    mutant = _write_mutant(tmp_path, compiled, "R-ENV-1")
    assert main(["check", "--rules", "R-ACT-1,R-STK-1", str(mutant)]) == 0


def test_check_runs_a_repeated_rule_once(tmp_path, compiled, capsys):
    mutant = _write_mutant(tmp_path, compiled, "R-ACT-1")
    assert main(["check", "--rules", "R-ACT-1", str(mutant)]) == 1
    once = capsys.readouterr().out
    assert once.count("[R-ACT-1]") == 1
    assert main(["check", "--rules", "R-ACT-1,R-ACT-1", str(mutant)]) == 1
    assert capsys.readouterr().out == once


@pytest.mark.parametrize(
    "body, column, message",
    [
        ("in ref require constraint { true }", 13, "'require' takes no 'in' prefix"),
        ("ref assert constraint { true }", 13, "'assert' takes no 'ref' prefix"),
        ("part p; out transition first a then b;", 21, "'transition' takes no 'out' prefix"),
        # Declarations that GRAMMAR.md lists without the prefixes.
        ("in part def X;", 13, "'part def' takes no 'in' prefix"),
        ("out use case u;", 13, "'use case' takes no 'out' prefix"),
        ("ref objective o;", 13, "'objective' takes no 'ref' prefix"),
        ("in decide d;", 13, "'decide' takes no 'in' prefix"),
        ("part p; out package Q;", 21, "'package' takes no 'out' prefix"),
        ("ref action a;", 13, "'action' takes no 'ref' prefix"),
        ("in ref perform action a;", 13, "'perform action' takes no 'in' prefix"),
        ("ref metadata def M;", 13, "'metadata def' takes no 'ref' prefix"),
        ("out use case def U;", 13, "'use case def' takes no 'out' prefix"),
        # A quoted name or a string after a prefix is no keyword.
        ("in 'part' x;", 16, "expected an element declaration, found 'part'"),
        ('ref "part" x;', 17, "expected an element declaration, found 'part'"),
        ("out 'use case' u;", 17, "expected an element declaration, found 'use case'"),
    ],
)
def test_check_refuses_a_prefix_the_declaration_drops(tmp_path, capsys, body, column, message):
    target = tmp_path / "prefixed.sysml"
    target.write_text(f"package P {{ {body} }}\n")
    assert main(["check", str(target)]) == 2
    assert capsys.readouterr().err == f"{target}:1:{column}: {message}\n"


@pytest.mark.parametrize(
    "text, column, name",
    [
        ("package P { comment /* note */ part 'comment@0'; view v { expose 'comment@0'; } }",
         37, "comment@0"),
        ("package 'package@0' { }", 9, "package@0"),
        ("package P { require constraint 'constraint@12' { true } }", 32, "constraint@12"),
        ("package P { state s { transition 'transition@0' first a then b; } }", 34,
         "transition@0"),
    ],
    ids=["part", "package", "constraint", "transition"],
)
def test_check_refuses_a_name_that_spells_a_synthesized_segment(
    tmp_path, capsys, text, column, name
):
    target = tmp_path / "segment.sysml"
    target.write_text(text + "\n")
    assert main(["check", str(target)]) == 2
    message = f"name {name!r} spells an unnamed element's segment"
    assert capsys.readouterr().err == f"{target}:1:{column}: {message}\n"


@pytest.mark.parametrize(
    "text, args, column, first, name",
    [
        ("package P { part a; part a : X; part def X; }", ["check"], 21, 13, "a"),
        ("package P { view tie; viewpoint tie; }", ["view", "tie"], 23, 13, "tie"),
        ("package P { part q { item 'x y'; part 'x y'; } }", ["check"], 34, 22, "x y"),
    ],
    ids=["check", "view", "nested"],
)
def test_a_repeated_member_name_is_refused_where_it_repeats(
    tmp_path, capsys, text, args, column, first, name
):
    target = tmp_path / "repeat.sysml"
    target.write_text(text + "\n")
    assert main([args[0], str(target), *args[1:]]) == 2
    message = f"duplicate member name {name!r} (first declared at {target}:1:{first})"
    assert capsys.readouterr().err == f"{target}:1:{column}: {message}\n"


def test_an_unexpected_exception_is_one_line_and_exit_2(compiled, capsys, monkeypatch):
    import ssm2sysml.conformance

    def broken(model, rule_ids=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(ssm2sysml.conformance, "check", broken)
    capsys.readouterr()
    assert main(["check", str(compiled)]) == 2
    assert capsys.readouterr() == ("", "ssm2sysml: internal error in check: RuntimeError: boom\n")


def test_a_closed_stdout_is_a_fault_not_an_internal_error(
    compiled, tmp_path, capsys, monkeypatch
):
    class ClosedPipe:
        """A stdout whose reader has gone, on the descriptor of a file of the test's own."""

        def __init__(self, stand_in):
            self.stand_in = stand_in

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.stand_in.fileno()

    capsys.readouterr()
    with open(tmp_path / "stdout", "w") as stand_in:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(stand_in))
        code = main(["trace", str(compiled), "--from", "Context.resources", "--format", "json"])
        assert (code, capsys.readouterr().err) == (2, "")
        # Pointed at devnull, so the interpreter's last flush writes nowhere.
        assert os.path.samestat(os.fstat(stand_in.fileno()), os.stat(os.devnull))


def test_check_unknown_rule_exits_2(compiled, capsys):
    assert main(["check", "--rules", "R-BOGUS-1", str(compiled)]) == 2
    assert "R-BOGUS-1" in capsys.readouterr().err


def test_check_unparsable_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "junk.sysml"
    bad.write_text("package {{{{")
    assert main(["check", str(bad)]) == 2
    assert "internal error" not in capsys.readouterr().err


def test_check_color_codes_when_forced(tmp_path, compiled, capsys, monkeypatch):
    mutant = _write_mutant(tmp_path, compiled, "R-ENV-1")
    monkeypatch.setenv("SSM2SYSML_COLOR", "1")
    main(["check", str(mutant)])
    assert "\x1b[" in capsys.readouterr().out
    monkeypatch.setenv("SSM2SYSML_COLOR", "0")
    main(["check", str(mutant)])
    assert "\x1b[" not in capsys.readouterr().out


# --- trace -------------------------------------------------------------------


def test_trace_backward_golden(compiled, capsys):
    code = main(
        [
            "trace",
            str(compiled),
            "--from",
            "Context.resources",
            "--backward",
            "--kinds",
            "frames,satisfies,subsets,objectiveOf,performs,subjectOf",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == sorted(lines)
    assert "Context.EC1" in lines
    assert "Context.newHire" not in lines


def test_trace_json(compiled, capsys):
    assert (
        main(["trace", str(compiled), "--from", "Context.EC1", "--format", "json"]) == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["query"].startswith("trace forward")
    assert "Context.EC1" in payload["elements"]


def test_trace_unknown_element_exits_2(compiled, capsys):
    assert main(["trace", str(compiled), "--from", "Context.ghost"]) == 2
    assert "Context" in capsys.readouterr().err


def test_trace_unknown_kind_exits_2(compiled, capsys):
    assert (
        main(["trace", str(compiled), "--from", "Context.EC1", "--kinds", "teleports"])
        == 2
    )
    assert "teleports" in capsys.readouterr().err


def test_trace_checks_kinds_before_reading_the_model(tmp_path, capsys):
    missing = str(tmp_path / "missing.sysml")
    assert main(["trace", missing, "--from", "P", "--kinds", "teleports"]) == 2
    assert capsys.readouterr().err == "unknown edge kinds: teleports\n"


def test_trace_directions_are_exclusive(compiled):
    with pytest.raises(SystemExit):
        main(["trace", str(compiled), "--from", "x", "--forward", "--backward"])


# --- view / explain ----------------------------------------------------------


def test_view_text(compiled, capsys):
    assert main(["view", str(compiled), "License Allocation"]) == 0
    assert "0 elements" in capsys.readouterr().out


def test_view_json(compiled, capsys):
    assert main(["view", str(compiled), "License Allocation", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["elements"] == []


def test_view_unknown_exits_2(compiled, capsys):
    assert main(["view", str(compiled), "noSuchView"]) == 2
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "atom, message",
    [("@Nope", "unknown metadata definition 'Nope'"), ("istype Missing", "unknown type 'Missing'")],
    ids=["metadata", "type"],
)
def test_view_filter_naming_nothing_exits_2(tmp_path, capsys, atom, message):
    target = tmp_path / "filtered.sysml"
    target.write_text(f"package P {{ part x; view v {{ expose x; filter {atom}; }} }}\n")
    assert main(["view", str(target), "v"]) == 2
    assert capsys.readouterr().err == message + "\n"


def test_view_filter_is_checked_when_the_view_exposes_nothing(tmp_path, capsys):
    target = tmp_path / "filtered.sysml"
    target.write_text("package P { part x; view v { filter @Nope; } }\n")
    assert main(["view", str(target), "v"]) == 2
    assert capsys.readouterr().err == "unknown metadata definition 'Nope'\n"


def test_a_top_level_view_of_an_unnamed_package_is_found_by_its_name(tmp_path, capsys):
    target = tmp_path / "unnamed.sysml"
    target.write_text("package { part x; view v { expose x; } }\n")
    assert main(["view", str(target), "v"]) == 0
    by_name = capsys.readouterr().out
    assert main(["view", str(target), "package@0.v"]) == 0
    assert capsys.readouterr().out == by_name == "view 'v': 1 elements\n  part:\n    package@0.x\n"


@pytest.mark.parametrize(
    "attribute, code", [("nope", 2), ("element", 0)], ids=["undeclared", "declared"]
)
def test_view_filter_on_an_attribute_no_definition_declares_exits_2(
    tmp_path, compiled, capsys, attribute, code
):
    satisfy = "satisfy licenseManagement;"
    assert compiled.read_text().count(satisfy) == 1
    target = tmp_path / "filtered.sysml"
    target.write_text(compiled.read_text().replace(
        satisfy, f"{satisfy} expose Context; filter @CATWOE.{attribute} == 1;"
    ))
    assert main(["view", str(target), "License Allocation"]) == code
    err = capsys.readouterr().err
    assert ("CATWOE.nope" in err, "internal error" in err) == (code == 2, False)


def test_explain_rule(capsys):
    assert main(["explain", "R-ACT-1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("R-ACT-1")
    assert "subset" in out


# A diagnostic code as a string literal in the program: SSM-001, W-NOCM, R-ACT-1.
CODE_LITERAL = re.compile(r'"(SSM-\d{3}|W-[A-Z]+|R-[A-Z]+-\d+)"')


def test_every_code_in_the_program_explains(capsys):
    source = REPO / "src" / "ssm2sysml"
    codes = {c for p in source.glob("*.py") for c in CODE_LITERAL.findall(p.read_text())}
    assert {"SSM-001", "SSM-005", "W-DUPNAME", "W-NOCM", "W-NOEXPR", "R-OWN-1"} <= codes
    assert len(codes) == 18  # five SSM codes, three warnings, ten rules
    for code in sorted(codes):
        assert main(["explain", code]) == 0, code
        assert capsys.readouterr().out.startswith(f"{code} (")


def test_explain_unknown_rule(capsys):
    assert main(["explain", "R-NOPE-1"]) == 2


# --- byte mutations ------------------------------------------------------------


def _fixtures() -> dict[str, tuple[bytes, str, str]]:
    """Each fixture's bytes, the trace source and the view to ask it for."""
    case = (REPO / "data" / "case_study.ssm").read_text()
    compiled = emit(map_context(parse_ssm(case, "case_study.ssm"))[0])
    return {
        "case_study.ssm": (case.encode(), "Context.resources", "License Allocation"),
        "kettle.sysml": (Path(DATA_SYSML).read_bytes(), "Kettle.kettle", "noSuchView"),
        "Context.sysml": (compiled.encode(), "Context.resources", "License Allocation"),
    }


FIXTURES = _fixtures()
# Bytes that open, close or break a construct in either notation.
SYNTAX_BYTES = b'{}()[];:,.-=>@#/*"\\\'\n\r\t\x00\xff'


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(FIXTURES)),
    edits=st.lists(
        st.tuples(
            st.integers(0, 1 << 16),
            st.sampled_from(("delete", "insert", "replace")),
            st.sampled_from(SYNTAX_BYTES) | st.integers(0, 255),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_byte_mutated_inputs_exit_0_1_or_2(name, edits):
    data, source, view = FIXTURES[name]
    data = bytearray(data)
    for at, op, byte in edits:
        at %= len(data) + 1
        data[at : at + (op != "insert")] = b"" if op == "delete" else bytes([byte])
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, name)
        Path(path).write_bytes(data)
        for args in (
            ["compile", path, "--report", "-o", os.path.join(work, "out")],
            ["check", path],
            ["check", path, "--format", "json"],
            ["trace", path, "--from", source, "--backward"],
            ["view", path, view],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(args)
            assert code in (0, 1, 2), args
            assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue()


# --- console script ------------------------------------------------------------


def _declared_script() -> str:
    """The `module:attr` target that pyproject.toml declares for `ssm2sysml`."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts")
    assert scripts == {"ssm2sysml": "ssm2sysml.cli:main"}
    return scripts["ssm2sysml"]


def _installed():
    try:
        importlib.metadata.distribution("ssm2sysml")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def test_console_script_is_installed(tmp_path, monkeypatch):
    """The declared entry point works as the command an installer generates."""
    target = _declared_script()
    module, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module), attr))

    # The wrapper pip writes for a console script, built from the declaration.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "ssm2sysml"
    lines = [
        f"#!{sys.executable}",
        "import sys",
        f"from {module} import {attr}",
        f"sys.exit({attr}())",
    ]
    script.write_text("\n".join(lines) + "\n")
    script.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    exe = shutil.which("ssm2sysml")
    assert exe is not None and Path(exe) == script

    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}

    def run(*args):
        return subprocess.run(
            [exe, *args], cwd=tmp_path, env=env, capture_output=True, text=True
        )

    explained = run("explain", "R-ACT-1")
    assert explained.returncode == 0
    assert "R-ACT-1" in explained.stdout
    assert run("explain", "R-NOPE-1").returncode == 2
    out = tmp_path / "out"
    assert run("compile", DATA_SSM, "-o", str(out)).returncode == 0
    assert (out / "Context.sysml").exists()
    assert run("check", str(out / "Context.sysml")).returncode == 0


@pytest.mark.skipif(not _installed(), reason="ssm2sysml distribution not installed")
def test_installed_console_script_matches_declaration():
    (entry,) = [
        ep
        for ep in importlib.metadata.distribution("ssm2sysml").entry_points
        if ep.group == "console_scripts" and ep.name == "ssm2sysml"
    ]
    assert entry.value == _declared_script()
    assert shutil.which("ssm2sysml") is not None
