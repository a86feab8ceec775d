"""Structural conformance rules for mapped packages.

Ten rules codify the mandatory modelling patterns: actors and
stakeholders subset individual occurrences, environmental-constraint
requirements carry constraints, the worldview viewpoint carries
rationale, the transformation use case is well formed, concern and use
case share a subject, the view/viewpoint/concern chain is complete,
occurrences are typed, all six CATWOE roles are tagged, and the owner
is represented as a stakeholder.

The engine recognizes the mapping's fixed metadata vocabulary
(`CATWOE` with attribute `element`, `Rationale` with attribute `text`)
by definition name.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .diagnostics import COMPILE_CODES, Code, Diagnostic, Severity
from .errors import UnknownRule
from .exprs import EnumLit, Lit
from .sysml_ast import (
    CATWOE_DEF,
    RATIONALE_DEF,
    Element,
    ElementKind,
    ModelIndex,
    QName,
    RelKind,
    qname_text,
)

Checker = Callable[["_Context"], list[Diagnostic]]


@dataclass(frozen=True)
class Rule(Code):
    checker: Checker


class _Context:
    """Per-check state: the model index plus facts several rules share."""

    def __init__(self, model: Element) -> None:
        self.index = ModelIndex(model)

    def roles(self, element: Element, inherited: bool = True) -> set[str]:
        """CATWOE role labels tagged on (or inherited by) the element."""
        apps = (
            self.index.effective_metadata(element)
            if inherited
            else element.metadata_applications()
        )
        labels: set[str] = set()
        for app in apps:
            if app.meta_def and app.meta_def[-1] == CATWOE_DEF:
                for attr, value in app.bindings:
                    if attr == "element" and isinstance(value, EnumLit):
                        labels.add(value.literal)
        return labels

    @cached_property
    def transformation_use_cases(self) -> list[tuple[Element, QName]]:
        return [
            (element, path)
            for element, path in self.index.pairs
            if element.kind is ElementKind.USE_CASE
            and "Transformation" in self.roles(element)
        ]


_USE_CASES = frozenset({ElementKind.USE_CASE, ElementKind.USE_CASE_DEF})
_ALL_ROLES = ("Customer", "Actor", "Transformation", "Worldview", "Owner", "Environment")


def _diag(rule_id: str, element: Element, path: QName, detail: str) -> Diagnostic:
    return _RULE_BY_ID[rule_id].at(qname_text(path), element.span, detail)


def _check_act_1(ctx: _Context) -> list[Diagnostic]:
    index = ctx.index
    out = []
    for element, path in index.pairs:
        if element.kind is not ElementKind.ACTOR:
            continue
        ucase = index.enclosing(path, _USE_CASES)
        if ucase is None:
            continue
        ok = any(
            target.kind is ElementKind.INDIVIDUAL
            and index.path(target)[: len(ucase)] != ucase
            for target in index.targets(element, RelKind.SUBSETS)
        )
        if not ok:
            out.append(
                _diag(
                    "R-ACT-1",
                    element,
                    path,
                    "actor usage does not subset an individual occurrence "
                    "declared outside the use case",
                )
            )
    return out


def _check_stk_1(ctx: _Context) -> list[Diagnostic]:
    out = []
    for element, path in ctx.index.pairs:
        if element.kind is not ElementKind.STAKEHOLDER:
            continue
        ok = any(
            target.kind is ElementKind.INDIVIDUAL
            for target in ctx.index.targets(element, RelKind.SUBSETS)
        )
        if not ok:
            out.append(
                _diag(
                    "R-STK-1",
                    element,
                    path,
                    "stakeholder usage does not subset an individual occurrence",
                )
            )
    return out


def _check_env_1(ctx: _Context) -> list[Diagnostic]:
    out = []
    for element, path in ctx.index.pairs:
        if element.kind not in (ElementKind.REQUIREMENT, ElementKind.REQUIREMENT_DEF):
            continue
        typing = element.typing()
        if typing is None:
            continue
        target = ctx.index.resolve_target(element, typing)
        if target is None or "Environment" not in ctx.roles(target):
            continue
        has_constraint = any(
            child.kind is ElementKind.CONSTRAINT for child in element.children
        )
        if not has_constraint:
            out.append(
                _diag(
                    "R-ENV-1",
                    element,
                    path,
                    "environmental-constraint requirement carries no "
                    "require/assume/assert constraint",
                )
            )
    return out


def _rationale_text(element: Element) -> str | None:
    for app in element.metadata_applications():
        if app.meta_def and app.meta_def[-1] == RATIONALE_DEF:
            for attr, value in app.bindings:
                if attr == "text" and isinstance(value, Lit) and isinstance(value.value, str):
                    return value.value
    return None


def _check_wvw_1(ctx: _Context) -> list[Diagnostic]:
    out = []
    for element, path in ctx.index.pairs:
        if element.kind is not ElementKind.VIEWPOINT:
            continue
        if "Worldview" not in ctx.roles(element):
            continue
        text = _rationale_text(element)
        if not text:
            out.append(
                _diag(
                    "R-WVW-1",
                    element,
                    path,
                    "worldview viewpoint lacks rationale metadata with nonempty text",
                )
            )
    return out


def _check_trf_1(ctx: _Context) -> list[Diagnostic]:
    out = []
    for element, path in ctx.transformation_use_cases:
        subjects = [c for c in element.children if c.kind is ElementKind.SUBJECT]
        if len(subjects) != 1:
            out.append(
                _diag(
                    "R-TRF-1",
                    element,
                    path,
                    f"transformation use case declares {len(subjects)} subjects "
                    "(exactly one required)",
                )
            )
        objectives = [
            c
            for c in element.children
            if c.kind is ElementKind.REQUIREMENT and c.is_objective
        ]
        if not any(obj.rels(RelKind.REFERENCES) for obj in objectives):
            out.append(
                _diag(
                    "R-TRF-1",
                    element,
                    path,
                    "transformation use case objective references no requirement",
                )
            )
    return out


def _subject_target(index: ModelIndex, element: Element) -> Element | None:
    for child in element.children:
        if child.kind is ElementKind.SUBJECT:
            targets = index.targets(child, RelKind.SUBSETS)
            if targets:
                return targets[0]
    return None


def _check_sub_1(ctx: _Context) -> list[Diagnostic]:
    uc_subjects = {
        id(target)
        for ucase, _ in ctx.transformation_use_cases
        if (target := _subject_target(ctx.index, ucase)) is not None
    }
    if not uc_subjects:
        return []
    out = []
    for element, path in ctx.index.pairs:
        if element.kind is not ElementKind.CONCERN:
            continue
        target = _subject_target(ctx.index, element)
        if target is not None and id(target) not in uc_subjects:
            out.append(
                _diag(
                    "R-SUB-1",
                    element,
                    path,
                    "concern subject differs from every transformation "
                    "use case subject",
                )
            )
    return out


def _check_view_1(ctx: _Context) -> list[Diagnostic]:
    out = []
    for element, path in ctx.index.pairs:
        if element.kind is ElementKind.VIEW and not element.rels(RelKind.SATISFIES):
            out.append(_diag("R-VIEW-1", element, path, "view satisfies no viewpoint"))
        elif element.kind is ElementKind.VIEWPOINT and not element.rels(RelKind.FRAMES):
            out.append(_diag("R-VIEW-1", element, path, "viewpoint frames no concern"))
    return out


def _check_ind_1(ctx: _Context) -> list[Diagnostic]:
    out = []
    for element, path in ctx.index.pairs:
        if element.kind is not ElementKind.INDIVIDUAL:
            continue
        ok = any(
            target.kind is ElementKind.INDIVIDUAL_DEF
            for target in ctx.index.targets(element, RelKind.TYPING)
        )
        if not ok:
            out.append(
                _diag(
                    "R-IND-1",
                    element,
                    path,
                    "individual occurrence is not typed by an individual definition",
                )
            )
    return out


def _check_cat_1(ctx: _Context) -> list[Diagnostic]:
    transformations = {id(ucase) for ucase, _ in ctx.transformation_use_cases}
    out = []
    for element, path in ctx.index.pairs:
        if element.kind is not ElementKind.PACKAGE:
            continue
        # The package itself and every element strictly below its path.
        members = [
            member
            for member, inner in ctx.index.pairs
            if member is element
            or (len(inner) > len(path) and inner[: len(path)] == path)
        ]
        if not any(id(member) in transformations for member in members):
            continue
        present: set[str] = set()
        for member in members:
            present |= ctx.roles(member, inherited=False)
        missing = [label for label in _ALL_ROLES if label not in present]
        if missing:
            out.append(
                _diag(
                    "R-CAT-1",
                    element,
                    path,
                    "transformation package is missing CATWOE tags: "
                    + ", ".join(missing),
                )
            )
    return out


def _check_own_1(ctx: _Context) -> list[Diagnostic]:
    referenced = {
        id(target)
        for element, _ in ctx.index.pairs
        if element.kind is ElementKind.STAKEHOLDER
        for target in ctx.index.targets(element, RelKind.SUBSETS)
    }
    out = []
    for element, path in ctx.index.pairs:
        if element.kind is not ElementKind.INDIVIDUAL:
            continue
        if "Owner" not in ctx.roles(element):
            continue
        if id(element) not in referenced:
            out.append(
                _diag(
                    "R-OWN-1",
                    element,
                    path,
                    "owner-tagged individual is not referenced by any "
                    "stakeholder usage",
                )
            )
    return out


RULES: tuple[Rule, ...] = (
    Rule(
        "R-ACT-1",
        Severity.ERROR,
        "Every actor usage inside a use case subsets an individual "
        "occurrence declared outside the use case.",
        "A local actor must subset the high-level occurrence so one "
        "real-world entity keeps one identity across use cases.",
        _check_act_1,
    ),
    Rule(
        "R-STK-1",
        Severity.ERROR,
        "Every stakeholder usage subsets an individual occurrence.",
        "The same individual can appear as stakeholder and actor only "
        "when both usages subset one occurrence.",
        _check_stk_1,
    ),
    Rule(
        "R-ENV-1",
        Severity.ERROR,
        "Every requirement typed by the Environment-tagged definition "
        "carries at least one require/assume/assert constraint.",
        "Environmental constraints must hold both the textual description "
        "and at least one formal constraint.",
        _check_env_1,
    ),
    Rule(
        "R-WVW-1",
        Severity.ERROR,
        "Every Worldview-tagged viewpoint carries Rationale metadata "
        "with nonempty text.",
        "The worldview survives only as rationale attached to the "
        "viewpoint; without it the tag is empty ceremony.",
        _check_wvw_1,
    ),
    Rule(
        "R-TRF-1",
        Severity.ERROR,
        "Every Transformation-tagged use case declares exactly one "
        "subject and its objective references at least one requirement.",
        "The use case carries the transformation's intent: one subject "
        "being transformed, with the objective referencing a requirement.",
        _check_trf_1,
    ),
    Rule(
        "R-SUB-1",
        Severity.ERROR,
        "The concern's subject equals the use case's subject.",
        "Concern and use case describe the same thing being transformed; "
        "the subjects must resolve to one element.",
        _check_sub_1,
    ),
    Rule(
        "R-VIEW-1",
        Severity.WARNING,
        "Every view satisfies at least one viewpoint, and every viewpoint "
        "frames at least one concern.",
        "Views satisfy one or more viewpoints, which in turn frame one "
        "or more concerns; a dangling link breaks traceability.",
        _check_view_1,
    ),
    Rule(
        "R-IND-1",
        Severity.ERROR,
        "Every individual occurrence is typed by an individual definition.",
        "Occurrences denote specific real-world entities and take their "
        "structure from an individual definition.",
        _check_ind_1,
    ),
    Rule(
        "R-CAT-1",
        Severity.WARNING,
        "Within a transformation package, all six CATWOE roles appear "
        "as metadata tags.",
        "A complete root-definition model tags all six CATWOE elements; "
        "a missing tag usually means a role was never modelled.",
        _check_cat_1,
    ),
    Rule(
        "R-OWN-1",
        Severity.ERROR,
        "The Owner-tagged individual is referenced by at least one "
        "stakeholder usage.",
        "The owner is modelled as a stakeholder; an owner tag without a "
        "stakeholder usage leaves the role unrepresented.",
        _check_own_1,
    ),
)

_RULE_BY_ID: dict[str, Rule] = {rule.id: rule for rule in RULES}
# Every code the tool emits, for `explain`.
_CODE_BY_ID: dict[str, Code] = {**COMPILE_CODES, **_RULE_BY_ID}


def check(model: Element, rule_ids: Iterable[str] | None = None) -> list[Diagnostic]:
    """Run the rule set over a package; order by (elementPath, ruleId)."""
    if rule_ids is None:
        rules = RULES
    else:
        rules = tuple(_require_rule(rule_id) for rule_id in rule_ids)
    ctx = _Context(model)
    diagnostics: list[Diagnostic] = []
    for rule in rules:
        diagnostics.extend(rule.checker(ctx))
    diagnostics.sort(key=lambda d: (d.element_path, d.rule_id))
    return diagnostics


def _require_rule(rule_id: str) -> Rule:
    rule = _RULE_BY_ID.get(rule_id)
    if rule is None:
        raise UnknownRule(rule_id)
    return rule


def explain(code_id: str) -> str:
    """Human-readable description of one diagnostic code; raises UnknownRule."""
    code = _CODE_BY_ID.get(code_id)
    if code is None:
        raise UnknownRule(code_id)
    return f"{code.id} ({code.severity}): {code.description} {code.rationale}"
