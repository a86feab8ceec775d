"""Each CLI subcommand loads only the modules it runs, and the package's
exports resolve on first access (PEP 562)."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ssm2sysml

REPO = Path(__file__).resolve().parent.parent
DATA_SSM = str(REPO / "data" / "case_study.ssm")

# Runs `main(argv)` and prints, as the last line of stderr, every module it
# loaded that the interpreter had not loaded before.
PROBE = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "from ssm2sysml.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(code, *sorted(set(sys.modules) - before), file=sys.stderr)\n"
)
COMPILE_PATH = {"ssm2sysml.ssm_parser", "ssm2sysml.ssm_model", "ssm2sysml.mapper"}
QUERY_PATH = {"ssm2sysml.conformance", "ssm2sysml.trace_view"}
SYSML = "out/Context.sysml"
# case -> (arguments, modules it must not load, whether it writes JSON)
CASES = {
    "compile": (["compile", DATA_SSM, "-o", "out"], QUERY_PATH, False),
    "compile-report": (["compile", DATA_SSM, "-o", "out", "--report"], QUERY_PATH, True),
    "check": (["check", SYSML], COMPILE_PATH | {"ssm2sysml.trace_view"}, False),
    "check-json": (["check", SYSML, "--format", "json"], COMPILE_PATH, True),
    "trace": (["trace", SYSML, "--from", "Context.EC1"],
              COMPILE_PATH | {"ssm2sysml.conformance"}, False),
    "trace-json": (["trace", SYSML, "--from", "Context.EC1", "--format", "json"],
                   COMPILE_PATH, True),
    "view": (["view", SYSML, "License Allocation"],
             COMPILE_PATH | {"ssm2sysml.conformance"}, False),
    "view-json": (["view", SYSML, "License Allocation", "--format", "json"], COMPILE_PATH, True),
    "explain": (["explain", "R-ACT-1"],
                COMPILE_PATH | {"ssm2sysml.sysml_text", "ssm2sysml.trace_view"}, False),
}


def _loaded(cwd: Path, args: list[str]) -> tuple[int, set[str]]:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "PYTHONUTF8": "1"}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *args],
        cwd=cwd, env=env, capture_output=True, text=True, encoding="utf-8", check=True,
    )
    code, *modules = done.stderr.splitlines()[-1].split()
    return int(code), set(modules)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    cwd = tmp_path_factory.mktemp("cold")
    assert _loaded(cwd, ["compile", DATA_SSM, "-o", "out"])[0] == 0
    return cwd


@pytest.mark.parametrize("case", CASES)
def test_subcommand_loads_only_what_it_runs(workdir, case):
    args, absent, writes_json = CASES[case]
    code, loaded = _loaded(workdir, args)
    assert code == 0
    assert "ssm2sysml.cli" in loaded
    assert loaded & absent == set()
    assert ("json" in loaded) == writes_json


def test_every_export_resolves():
    for name in ssm2sysml.__all__:
        value = getattr(ssm2sysml, name)
        assert vars(ssm2sysml)[name] is value  # cached after the first access
    assert sorted(dir(ssm2sysml)) == sorted(ssm2sysml.__all__)


def test_star_import_binds_every_export():
    namespace: dict[str, object] = {}
    exec("from ssm2sysml import *", namespace)
    assert {name: namespace[name] for name in ssm2sysml.__all__} == {
        name: getattr(ssm2sysml, name) for name in ssm2sysml.__all__
    }


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        ssm2sysml.nonesuch  # noqa: B018
