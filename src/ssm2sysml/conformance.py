"""Structural conformance rules for mapped packages.

Ten rules codify the mandatory modelling patterns: actors and
stakeholders subset individual occurrences, environmental-constraint
requirements carry constraints, the worldview viewpoint carries
rationale, the transformation use case is well formed, concern and use
case share a subject, the view/viewpoint/concern chain is complete,
occurrences are typed, all six CATWOE roles are tagged, and the owner
is represented as a stakeholder.

Each rule checks one element at a time and names the element kinds it
inspects.  `check` walks the model once, in document order, and runs on
each element the rules for its kind; facts about the whole model that
rules share are computed on first use.

The engine recognizes the mapping's fixed metadata vocabulary
(`CATWOE` with attribute `element`, `Rationale` with attribute `text`)
by definition name.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .diagnostics import COMPILE_CODES, Code, Diagnostic, Severity
from .errors import UnknownRule
from .exprs import EnumLit, Lit
from .sysml_ast import (
    CATWOE_DEF,
    RATIONALE_DEF,
    Element,
    ElementKind,
    ModelIndex,
    Position,
    QName,
    RelKind,
    bound,
    qname_text,
    segment,
)

K = ElementKind


@dataclass(frozen=True)
class Rule(Code):
    kinds: tuple[ElementKind, ...]
    # checker(ctx, element, path) yields one message per finding on the element.
    checker: Callable[[_Context, Element, QName], Iterator[str]]


class _Context:
    """Per-check state: the model index plus facts several rules share.

    A set of positions holds each as (id, path), since elements compare by structure.
    """

    def __init__(self, model: Element) -> None:
        self.index = ModelIndex(model)

    def roles(self, element: Element, path: QName) -> set[str]:
        """CATWOE role labels tagged on or inherited by the element."""
        return _roles(self.index.effective_metadata(element, path))

    @cached_property
    def transformations(self) -> list[Position]:
        """The Transformation-tagged use cases."""
        return [
            (element, path)
            for element, path in self.index.pairs
            if element.kind is K.USE_CASE and "Transformation" in self.roles(element, path)
        ]

    @cached_property
    def transformation_subjects(self) -> set[tuple[int, QName]]:
        """The (id, path) of each element a transformation use case's subject subsets."""
        return {
            target
            for ucase, path in self.transformations
            if (target := _subject_target(self.index, ucase, path)) is not None
        }

    @cached_property
    def stakeholder_targets(self) -> set[tuple[int, QName]]:
        """The (id, path) of each element some stakeholder usage subsets."""
        return {
            (id(target), at)
            for element, path in self.index.pairs
            if element.kind is K.STAKEHOLDER
            for target, at in self.index.targets(element, path, RelKind.SUBSETS)
        }


_USE_CASES = frozenset({K.USE_CASE, K.USE_CASE_DEF})
_ALL_ROLES = ("Customer", "Actor", "Transformation", "Worldview", "Owner", "Environment")


def _roles(apps: Iterable[Element]) -> set[str]:
    """CATWOE role labels tagged by the metadata applications."""
    return {v.literal for v in bound(apps, CATWOE_DEF, "element") if isinstance(v, EnumLit)}


def _rationale_text(element: Element) -> str | None:
    texts = bound(element.metadata_applications(), RATIONALE_DEF, "text")
    return next((v.value for v in texts if isinstance(v, Lit) and isinstance(v.value, str)), None)


def _check_act_1(ctx: _Context, actor: Element, path: QName) -> Iterator[str]:
    ucase = ctx.index.enclosing(path, _USE_CASES)
    if ucase is not None and not any(
        target.kind is K.INDIVIDUAL and at[: len(ucase)] != ucase
        for target, at in ctx.index.targets(actor, path, RelKind.SUBSETS)
    ):
        yield (
            "actor usage does not subset an individual occurrence "
            "declared outside the use case"
        )


def _check_stk_1(ctx: _Context, stakeholder: Element, path: QName) -> Iterator[str]:
    if not any(
        target.kind is K.INDIVIDUAL
        for target, _ in ctx.index.targets(stakeholder, path, RelKind.SUBSETS)
    ):
        yield "stakeholder usage does not subset an individual occurrence"


def _check_env_1(ctx: _Context, requirement: Element, path: QName) -> Iterator[str]:
    typing = requirement.typing()
    if typing is None:
        return
    target = ctx.index.resolve_relative(path, typing)
    if (
        target is not None
        and "Environment" in ctx.roles(*target)
        and not any(child.kind is K.CONSTRAINT for child in requirement.children)
    ):
        yield (
            "environmental-constraint requirement carries no "
            "require/assume/assert constraint"
        )


def _check_wvw_1(ctx: _Context, viewpoint: Element, path: QName) -> Iterator[str]:
    if "Worldview" in ctx.roles(viewpoint, path) and not _rationale_text(viewpoint):
        yield "worldview viewpoint lacks rationale metadata with nonempty text"


def _check_trf_1(ctx: _Context, ucase: Element, path: QName) -> Iterator[str]:
    if "Transformation" not in ctx.roles(ucase, path):
        return
    subjects = sum(child.kind is K.SUBJECT for child in ucase.children)
    if subjects != 1:
        yield (
            f"transformation use case declares {subjects} subjects "
            "(exactly one required)"
        )
    if not any(
        child.kind is K.REQUIREMENT and child.is_objective and child.rels(RelKind.REFERENCES)
        for child in ucase.children
    ):
        yield "transformation use case objective references no requirement"


def _subject_target(
    index: ModelIndex, element: Element, path: QName
) -> tuple[int, QName] | None:
    """The (id, path) of what the element's first subject with a resolvable subsetting subsets."""
    for i, child in enumerate(element.children):
        if child.kind is K.SUBJECT:
            targets = index.targets(child, path + (segment(child, i),), RelKind.SUBSETS)
            if targets:
                target, at = targets[0]
                return id(target), at
    return None


def _check_sub_1(ctx: _Context, concern: Element, path: QName) -> Iterator[str]:
    subjects = ctx.transformation_subjects
    target = _subject_target(ctx.index, concern, path)
    if subjects and target is not None and target not in subjects:
        yield "concern subject differs from every transformation use case subject"


# The link each end of the view chain needs, and the finding without it.
_VIEW_LINKS = {
    K.VIEW: (RelKind.SATISFIES, "view satisfies no viewpoint"),
    K.VIEWPOINT: (RelKind.FRAMES, "viewpoint frames no concern"),
}


def _check_view_1(ctx: _Context, element: Element, path: QName) -> Iterator[str]:
    link, message = _VIEW_LINKS[element.kind]
    if not element.rels(link):
        yield message


def _check_ind_1(ctx: _Context, individual: Element, path: QName) -> Iterator[str]:
    if not any(
        target.kind is K.INDIVIDUAL_DEF
        for target, _ in ctx.index.targets(individual, path, RelKind.TYPING)
    ):
        yield "individual occurrence is not typed by an individual definition"


def _check_cat_1(ctx: _Context, package: Element, path: QName) -> Iterator[str]:
    # A transformation package holds a transformation use case strictly below its path.
    if not any(len(at) > len(path) and at[: len(path)] == path for _, at in ctx.transformations):
        return
    # The package itself and every element strictly below its path.
    members = [package] + [
        member
        for member, inner in ctx.index.pairs
        if len(inner) > len(path) and inner[: len(path)] == path
    ]
    present = set().union(*(_roles(member.metadata_applications()) for member in members))
    missing = [label for label in _ALL_ROLES if label not in present]
    if missing:
        yield "transformation package is missing CATWOE tags: " + ", ".join(missing)


def _check_own_1(ctx: _Context, individual: Element, path: QName) -> Iterator[str]:
    owner = "Owner" in ctx.roles(individual, path)
    if owner and (id(individual), path) not in ctx.stakeholder_targets:
        yield "owner-tagged individual is not referenced by any stakeholder usage"


RULES: tuple[Rule, ...] = (
    Rule(
        "R-ACT-1",
        Severity.ERROR,
        "Every actor usage inside a use case subsets an individual "
        "occurrence declared outside the use case.",
        "A local actor must subset the high-level occurrence so one "
        "real-world entity keeps one identity across use cases.",
        (K.ACTOR,), _check_act_1,
    ),
    Rule(
        "R-STK-1",
        Severity.ERROR,
        "Every stakeholder usage subsets an individual occurrence.",
        "The same individual can appear as stakeholder and actor only "
        "when both usages subset one occurrence.",
        (K.STAKEHOLDER,), _check_stk_1,
    ),
    Rule(
        "R-ENV-1",
        Severity.ERROR,
        "Every requirement typed by the Environment-tagged definition "
        "carries at least one require/assume/assert constraint.",
        "Environmental constraints must hold both the textual description "
        "and at least one formal constraint.",
        (K.REQUIREMENT, K.REQUIREMENT_DEF), _check_env_1,
    ),
    Rule(
        "R-WVW-1",
        Severity.ERROR,
        "Every Worldview-tagged viewpoint carries Rationale metadata "
        "with nonempty text.",
        "The worldview survives only as rationale attached to the "
        "viewpoint; without it the tag is empty ceremony.",
        (K.VIEWPOINT,), _check_wvw_1,
    ),
    Rule(
        "R-TRF-1",
        Severity.ERROR,
        "Every Transformation-tagged use case declares exactly one "
        "subject and its objective references at least one requirement.",
        "The use case carries the transformation's intent: one subject "
        "being transformed, with the objective referencing a requirement.",
        (K.USE_CASE,), _check_trf_1,
    ),
    Rule(
        "R-SUB-1",
        Severity.ERROR,
        "The concern's subject equals the use case's subject.",
        "Concern and use case describe the same thing being transformed; "
        "the subjects must resolve to one element.",
        (K.CONCERN,), _check_sub_1,
    ),
    Rule(
        "R-VIEW-1",
        Severity.WARNING,
        "Every view satisfies at least one viewpoint, and every viewpoint "
        "frames at least one concern.",
        "Views satisfy one or more viewpoints, which in turn frame one "
        "or more concerns; a dangling link breaks traceability.",
        tuple(_VIEW_LINKS), _check_view_1,
    ),
    Rule(
        "R-IND-1",
        Severity.ERROR,
        "Every individual occurrence is typed by an individual definition.",
        "Occurrences denote specific real-world entities and take their "
        "structure from an individual definition.",
        (K.INDIVIDUAL,), _check_ind_1,
    ),
    Rule(
        "R-CAT-1",
        Severity.WARNING,
        "Within a transformation package, all six CATWOE roles appear "
        "as metadata tags.",
        "A complete root-definition model tags all six CATWOE elements; "
        "a missing tag usually means a role was never modelled.",
        (K.PACKAGE,), _check_cat_1,
    ),
    Rule(
        "R-OWN-1",
        Severity.ERROR,
        "The Owner-tagged individual is referenced by at least one "
        "stakeholder usage.",
        "The owner is modelled as a stakeholder; an owner tag without a "
        "stakeholder usage leaves the role unrepresented.",
        (K.INDIVIDUAL,), _check_own_1,
    ),
)

_RULE_BY_ID: dict[str, Rule] = {rule.id: rule for rule in RULES}
# Every code the tool emits, for `explain`.
_CODE_BY_ID: dict[str, Code] = {**COMPILE_CODES, **_RULE_BY_ID}


def check(model: Element, rule_ids: Iterable[str] | None = None) -> list[Diagnostic]:
    """Run the rule set over a package; order by (elementPath, ruleId).

    Each named rule runs once, whatever the number of times it is named.
    """
    if rule_ids is None:
        rules = RULES
    else:
        rules = tuple(_require_rule(rule_id) for rule_id in dict.fromkeys(rule_ids))
    by_kind: dict[ElementKind, list[Rule]] = {}
    for rule in rules:
        for kind in rule.kinds:
            by_kind.setdefault(kind, []).append(rule)
    ctx = _Context(model)
    diagnostics = [
        rule.at(qname_text(path), element.span, message)
        for element, path in ctx.index.pairs
        for rule in by_kind.get(element.kind, ())
        for message in rule.checker(ctx, element, path)
    ]
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
