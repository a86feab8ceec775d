"""Shared fixtures: the golden license-allocation context and the kettle model."""
from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from ssm2sysml import Element, map_context, parse_ssm, parse_sysml

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def count_elements(element: Element) -> int:
    """Independent recursive size counter (used to cross-check walk)."""
    return 1 + sum(count_elements(c) for c in element.children)


# One verdict line per acceptance criterion, echoed after the run
# (plain prints inside passing tests are swallowed by capture).
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def case_text() -> str:
    return (DATA / "case_study.ssm").read_text()


@pytest.fixture(scope="session")
def case_ctx(case_text):
    return parse_ssm(case_text, "case_study.ssm")


@pytest.fixture(scope="session")
def case_mapping(case_ctx):
    return map_context(case_ctx)


@pytest.fixture(scope="session")
def case_model(case_mapping):
    return case_mapping[0]


@pytest.fixture(scope="session")
def case_report(case_mapping):
    return case_mapping[1]


@pytest.fixture(scope="session")
def kettle_text() -> str:
    return (DATA / "kettle.sysml").read_text()


@pytest.fixture(scope="session")
def kettle_model(kettle_text):
    return parse_sysml(kettle_text, "kettle.sysml")
