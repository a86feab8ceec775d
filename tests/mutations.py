"""Surgical model edits that each violate exactly one conformance rule.

Shared between the conformance tests and the acceptance suite: every
mutation applied to the golden compiled model must trigger its target
rule and nothing else at error severity.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Callable

from ssm2sysml.sysml_ast import Element, ElementKind, RelKind, Relationship


def edit(model: Element, path: tuple[str, ...], fn: Callable[[Element], Element | None]) -> Element:
    """Rebuild `model` with `fn` applied to the element at the named path.

    `fn` returning None deletes the element.  The leading segment may be
    the root package's name.
    """
    if path and path[0] == model.name:
        path = path[1:]
    return _edit(model, path, fn)


def _edit(element: Element, path: tuple[str, ...], fn) -> Element:
    if not path:
        result = fn(element)
        assert result is not None, "cannot delete the root this way"
        return result
    head, rest = path[0], path[1:]
    children: list[Element] = []
    found = False
    for child in element.children:
        if not found and child.name == head:
            found = True
            if rest or fn is not _DELETE:
                new_child = _edit(child, rest, fn) if rest else fn(child)
                if new_child is not None:
                    children.append(new_child)
        else:
            children.append(child)
    assert found, f"no child named {head!r}"
    return replace(element, children=tuple(children))


_DELETE = object()


def delete_at(model: Element, path: tuple[str, ...]) -> Element:
    return edit(model, path, lambda _el: None)


def drop_rels(*kinds: RelKind):
    def fn(el: Element) -> Element:
        return replace(
            el, relationships=tuple(r for r in el.relationships if r.kind not in kinds)
        )

    return fn


def drop_children(pred):
    def fn(el: Element) -> Element:
        return replace(el, children=tuple(c for c in el.children if not pred(c)))

    return fn


def _is_meta(child: Element) -> bool:
    return child.kind is ElementKind.METADATA


def _binds_literal(app: Element, literal: str) -> bool:
    return any(
        getattr(value, "literal", None) == literal for _attr, value in app.bindings
    )


UC = ("Context", "transformationSystem", "assignLicense")


def _retarget_subject(el: Element) -> Element:
    children = []
    for child in el.children:
        if child.kind is ElementKind.SUBJECT:
            child = replace(
                child,
                relationships=(Relationship(RelKind.SUBSETS, ("transformationSystem",)),),
            )
        children.append(child)
    return replace(el, children=tuple(children))


def _strip_customer_tags(model: Element) -> Element:
    def drop_customer_apps(el: Element) -> Element:
        return drop_children(
            lambda c: _is_meta(c) and _binds_literal(c, "Customer")
        )(el)

    model = edit(model, ("Context", "manager"), drop_customer_apps)
    return edit(
        model, ("Context", "customerConcern", "customer_manager"), drop_customer_apps
    )


# (rule id, expected diagnostic path, mutation) — the path is where the
# single resulting finding must sit.
MUTATIONS: list[tuple[str, str, Callable[[Element], Element]]] = [
    (
        "R-ACT-1",
        "Context.transformationSystem.assignLicense.actor_it",
        lambda m: edit(m, UC + ("actor_it",), drop_rels(RelKind.SUBSETS)),
    ),
    (
        "R-STK-1",
        "Context.customerConcern.customer_manager",
        lambda m: edit(
            m, ("Context", "customerConcern", "customer_manager"), drop_rels(RelKind.SUBSETS)
        ),
    ),
    (
        "R-ENV-1",
        "Context.EC2",
        lambda m: edit(
            m,
            ("Context", "EC2"),
            drop_children(lambda c: c.kind is ElementKind.CONSTRAINT),
        ),
    ),
    (
        "R-WVW-1",
        "Context.licenseManagement",
        lambda m: edit(m, ("Context", "licenseManagement"), drop_children(_is_meta)),
    ),
    (
        "R-TRF-1",
        "Context.transformationSystem.assignLicense",
        lambda m: edit(
            m, UC, drop_children(lambda c: c.kind is ElementKind.REQUIREMENT and c.is_objective)
        ),
    ),
    (
        "R-SUB-1",
        "Context.resources",
        lambda m: edit(m, ("Context", "resources"), _retarget_subject),
    ),
    (
        "R-VIEW-1",
        "Context.License Allocation",
        lambda m: edit(
            m, ("Context", "License Allocation"), drop_rels(RelKind.SATISFIES)
        ),
    ),
    (
        "R-IND-1",
        "Context.newHire",
        lambda m: edit(m, ("Context", "newHire"), drop_rels(RelKind.TYPING)),
    ),
    ("R-CAT-1", "Context", _strip_customer_tags),
    (
        "R-OWN-1",
        "Context.it",
        lambda m: delete_at(m, ("Context", "resources", "owner_it")),
    ),
]
