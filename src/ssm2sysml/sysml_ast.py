"""Typed AST for the supported SysML v2 textual-notation subset.

The subset is closed: exactly the constructs the mapping and the
conformance rules need.  Every node is an `Element` tagged with an
`ElementKind`; the fields a kind does not use stay at their defaults.
Elements are immutable after construction and structurally comparable;
`==` compares children through an explicit stack, so it works at any
depth that `parse_sysml` reads.  The one exception to immutability is a
memo slot, `_members`, which the first lookup into an element's
namespace fills from its `children`; like the source span, it takes no
part in equality, hashing or `repr`.  The constructor comes from
`source.one_pass_init`: it stores the fields through a mutable twin
class with the same slots instead of one `object.__setattr__` call per
field, and refuses two children with one name, so that each path names
one position: an element together with its path.

`FORMS` is the one description of the declaration keywords; the parser
and the emitter both read it.
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Container, Iterable, Iterator, Union

from .errors import UnknownElement
from .exprs import Expr
from .source import SourceSpan, one_pass_init, record

QName = tuple[str, ...]

# The metadata definitions the mapper writes into every package and the rules read.
CATWOE_DEF = "CATWOE"
RATIONALE_DEF = "Rationale"


def qname(text: str) -> QName:
    """Split a dotted path into segments (no quoting support here)."""
    return tuple(text.split("."))


def qname_text(path: QName) -> str:
    return ".".join(path)


class ElementKind(enum.Enum):
    PACKAGE = "package"
    METADATA_DEF = "metadata_def"
    ENUM_DEF = "enum_def"
    ATTRIBUTE_DEF = "attribute_def"
    ATTRIBUTE = "attribute"
    INDIVIDUAL_DEF = "individual_def"
    INDIVIDUAL = "individual"
    PART_DEF = "part_def"
    PART = "part"
    ITEM_DEF = "item_def"
    ITEM = "item"
    REQUIREMENT_DEF = "requirement_def"
    REQUIREMENT = "requirement"
    CONSTRAINT = "constraint"
    CONCERN_DEF = "concern_def"
    CONCERN = "concern"
    STAKEHOLDER = "stakeholder"
    VIEWPOINT_DEF = "viewpoint_def"
    VIEWPOINT = "viewpoint"
    VIEW = "view"
    USE_CASE_DEF = "use_case_def"
    USE_CASE = "use_case"
    ACTOR = "actor"
    SUBJECT = "subject"
    ACTION = "action"
    STATE = "state"
    TRANSITION = "transition"
    COMMENT = "comment"
    METADATA = "metadata"  # metadata application, @Def { ... }


# Each declaration form: its keywords, its kind, the one field the keywords fix (or None)
# and the fields it writes beyond that one and the `BODY_FIELDS` every form writes; it takes
# `in`, `out` and `ref` when they include `direction is_ref`.  `emit` writes a kind's first
# row that matches, so rows fixing a field come first, `decide` before `perform`.
FORMS: tuple[tuple[str, ElementKind, tuple[str, object] | None, str], ...] = (
    ("package", ElementKind.PACKAGE, None, ""),
    ("metadata def", ElementKind.METADATA_DEF, None, ""),
    ("enum def", ElementKind.ENUM_DEF, None, "enum_literals"),
    ("attribute def", ElementKind.ATTRIBUTE_DEF, None, ""),
    ("attribute", ElementKind.ATTRIBUTE, None, "direction is_ref value"),
    ("individual def", ElementKind.INDIVIDUAL_DEF, None, ""),
    ("individual", ElementKind.INDIVIDUAL, None, "direction is_ref"),
    ("part def", ElementKind.PART_DEF, None, ""),
    ("part", ElementKind.PART, None, "direction is_ref"),
    ("item def", ElementKind.ITEM_DEF, None, ""),
    ("item", ElementKind.ITEM, None, "direction is_ref"),
    ("requirement def", ElementKind.REQUIREMENT_DEF, None, ""),
    ("objective", ElementKind.REQUIREMENT, ("is_objective", True), ""),
    ("requirement", ElementKind.REQUIREMENT, None, "direction is_ref"),
    ("concern def", ElementKind.CONCERN_DEF, None, ""),
    ("concern", ElementKind.CONCERN, None, "direction is_ref"),
    ("stakeholder", ElementKind.STAKEHOLDER, None, "direction is_ref"),
    ("viewpoint def", ElementKind.VIEWPOINT_DEF, None, ""),
    ("viewpoint", ElementKind.VIEWPOINT, None, "direction is_ref"),
    ("view", ElementKind.VIEW, None, "direction is_ref"),
    ("use case def", ElementKind.USE_CASE_DEF, None, ""),
    ("use case", ElementKind.USE_CASE, None, ""),
    ("actor", ElementKind.ACTOR, None, "direction is_ref"),
    ("subject", ElementKind.SUBJECT, None, "direction is_ref"),
    ("decide", ElementKind.ACTION, ("flavor", "decide"), "performer"),
    ("perform action", ElementKind.ACTION, ("is_perform", True), "performer"),
    ("action", ElementKind.ACTION, None, "performer"),
    ("state", ElementKind.STATE, None, "direction is_ref entry_action do_action"),
)
BODY_FIELDS = "name relationships multiplicity doc filter assignments successions children"

DEF_KINDS = frozenset(kind for phrase, kind, _, _ in FORMS if phrase.endswith(" def"))

# The `kind@index` segment that paths give an unnamed element; no declared name may spell it.
SEGMENT_FORM = re.compile("(?:" + "|".join(kind.value for kind in ElementKind) + ")@[0-9]+")


# Each relationship kind, valued by the keyword that writes it: a symbol in the
# declarator, or the word that starts a body statement.
class RelKind(enum.Enum):
    TYPING = ":"
    SUBSETS = ":>"
    REDEFINES = ":>>"
    REFINES = "refines"
    FRAMES = "frame"
    SATISFIES = "satisfy"
    EXPOSES = "expose"
    BINDING = "="
    REFERENCES = "references"


@record
class Relationship:
    kind: RelKind
    target: QName


@record
class Multiplicity:
    lower: int
    upper: int | None = None  # None = unbounded ('*')

    def __post_init__(self) -> None:
        if self.lower < 0 or (self.upper is not None and self.upper < self.lower):
            raise ValueError("multiplicity requires 0 <= lower <= upper")


@record
class Assignment:
    """`assign target := expr;` inside an action body."""

    target: QName
    value: Expr


@record
class Succession:
    """`first a then b;` ordering between sibling body members."""

    source: str
    target: str


# --- view filter algebra ----------------------------------------------------

# `and`, `or` and `not` are `exprs.Binary` and `exprs.Unary` over these atoms.
FilterExpr = Union["Binary", "Unary", "FHasMeta", "FMetaEq", "FTyped", "FKind"]
FILTER_OPS = {"or": 1, "and": 2}  # a filter's binary operators, at their `exprs` precedences


@record
class FHasMeta:
    """`@Def` — the element carries (or inherits) any application of Def."""

    metadata_def: QName


@record
class FMetaEq:
    """`@Def.attr == literal` — an effective binding equals the literal."""

    metadata_def: QName
    attribute: str
    literal: Expr


@record
class FTyped:
    """`istype Q` — the element's typing chain reaches Q."""

    type_name: QName


@record
class FKind:
    """`iskind part` — the element has the named kind."""

    kind: str


@one_pass_init
@dataclass(frozen=True, slots=True, init=False)
class Element:
    """One node of the subset AST.  `kind` decides which fields matter."""

    kind: ElementKind
    name: str | None = None
    relationships: tuple[Relationship, ...] = ()
    multiplicity: Multiplicity | None = None
    direction: str | None = None  # 'in' / 'out'
    is_ref: bool = False
    is_perform: bool = False  # action declared as `perform action`
    flavor: str | None = None  # action flavor: 'send' | 'accept' | 'decide'
    signal: QName | None = None  # send/accept payload name
    performer: QName | None = None  # action `by <path>` clause
    doc: str | None = None
    value: Expr | None = None  # attribute value / derived expression
    constraint_kind: str | None = None  # require | assume | assert | None
    constraint_expr: Expr | None = None
    is_objective: bool = False
    enum_literals: tuple[str, ...] = ()
    entry_action: QName | None = None  # state
    do_action: QName | None = None  # state
    source: str | None = None  # transition
    target: str | None = None  # transition
    trigger: QName | None = None  # transition accept
    guard: Expr | None = None  # transition guard
    effect: QName | None = None  # transition do
    meta_def: QName | None = None  # metadata application target
    bindings: tuple[tuple[str, Expr], ...] = ()  # metadata attribute bindings
    assignments: tuple[Assignment, ...] = ()
    successions: tuple[Succession, ...] = ()
    filter: FilterExpr | None = None  # view
    children: tuple["Element", ...] = ()
    span: SourceSpan | None = field(default=None, compare=False, repr=False)
    # Child segment -> the child with that segment; see `_members_of`.
    _members: dict[str, "Element"] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        """Refuse two children with one name, or a child named like a `kind@index` segment."""
        if len(self.children) > 1:
            seen: set[str] = set()
            for child in self.children:
                name = child.name
                if name in seen:
                    raise ValueError(f"duplicate member name {name!r}")
                if name:
                    if "@" in name and SEGMENT_FORM.fullmatch(name):
                        raise ValueError(f"name {name!r} spells an unnamed element's segment")
                    seen.add(name)

    def __eq__(self, other: object) -> bool:
        """Field by field, as the dataclass would, but with an explicit stack of child
        pairs in place of recursion, so models of any depth compare."""
        if other.__class__ is not Element:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            mine, theirs = stack.pop()
            if mine is not theirs:
                if _flat_fields(mine) != _flat_fields(theirs):
                    return False
                if len(mine.children) != len(theirs.children):
                    return False
                stack += zip(mine.children, theirs.children)
        return True

    # -- convenience -------------------------------------------------------

    def rels(self, kind: RelKind) -> tuple[Relationship, ...]:
        return tuple(r for r in self.relationships if r.kind == kind)

    def typing(self) -> QName | None:
        for r in self.relationships:
            if r.kind == RelKind.TYPING:
                return r.target
        return None

    def metadata_applications(self) -> tuple["Element", ...]:
        return tuple(c for c in self.children if c.kind == ElementKind.METADATA)

    @property
    def is_def(self) -> bool:
        return self.kind in DEF_KINDS


_flat_fields = attrgetter(
    *(f.name for f in fields(Element) if f.compare and f.name != "children")
)


def bound(apps: Iterable[Element], meta_def: str, attr: str) -> Iterator[Expr]:
    """Values bound to `attr` by those metadata applications whose definition's
    last segment is `meta_def`, in order."""
    for app in apps:
        if app.meta_def and app.meta_def[-1] == meta_def:
            yield from (value for name, value in app.bindings if name == attr)


# --- traversal and resolution ------------------------------------------------

# An element together with its path, which names it: one object placed twice has two.
Position = tuple[Element, QName]


def walk(model: Element) -> list[Position]:
    """Depth-first, document-order traversal visiting every position once.

    Returns (element, path) pairs; the path uses synthesized segments
    (`kind@index`) for unnamed elements so every node has a unique,
    stable address.
    """
    return list(iter_walk(model))


def iter_walk(model: Element) -> Iterator[Position]:
    return _walk(model, (segment(model, 0),))


def segment(element: Element, index: int) -> str:
    """The path segment of the `index`th child: its name, or `kind@index` if unnamed."""
    return element.name if element.name else f"{element.kind.value}@{index}"


def _walk(top: Element, top_path: QName) -> Iterator[Position]:
    """`top` at `top_path` and all below it in document order, lazily, without recursion."""
    yield top, top_path
    stack = [(top_path, enumerate(top.children))]
    while stack:
        path, children = stack[-1]
        for i, child in children:
            child_path = path + (segment(child, i),)
            yield child, child_path
            if child.children:
                stack.append((child_path, enumerate(child.children)))
                break
        else:
            stack.pop()


def resolve(model: Element, qualified_name: str | QName) -> Element:
    """Resolve a dot-qualified path from the model root.

    The first segment may be the root package's own name; an unnamed
    element is addressed by its `kind@index` segment, as `walk` names it.
    Raises UnknownElement with the longest resolvable prefix.
    """
    path = qname(qualified_name) if isinstance(qualified_name, str) else qualified_name
    root = (segment(model, 0),)
    path = path if path[:1] == root else root + path
    index = ModelIndex(model)
    found = index.get(path)
    if found is None:
        raise unknown_element(path, index.by_path)
    return found[0]


def unknown_element(path: QName, known: Container[QName]) -> UnknownElement:
    """The error for a missing `path`, naming its longest prefix in `known`."""
    prefix = path[:-1]
    while prefix and prefix not in known:
        prefix = prefix[:-1]
    return UnknownElement(qname_text(path), qname_text(prefix))


def _members_of(element: Element) -> dict[str, Element]:
    """Each child segment to its child, kept in the element's memo slot."""
    members = element._members
    if members is None:
        members = {segment(child, i): child for i, child in enumerate(element.children)}
        object.__setattr__(element, "_members", members)
    return members


class ModelIndex:
    """Path indices over one model, built a namespace at a time.

    The only code that resolves relationship targets and walks
    ancestors; check, build_graph and render_view each build one per
    call and share it across their rules and queries.  Lookups take and
    return positions, an element together with its path, so an element
    placed at two positions resolves from each.  A lookup opens only
    the namespaces on its way to a name, through the member table each
    element keeps (`_members_of`), so every later index of the same
    model, such as the next `render_view`, reuses the tables instead of
    scanning the members again.  Using `pairs` or `by_path` walks the
    whole model; lookups then probe `by_path`.
    """

    def __init__(self, model: Element) -> None:
        self.model = model
        self._pairs: list[Position] | None = None
        self._by_path: dict[QName, Position] | None = None
        self._typed: dict[QName, tuple[Position, ...]] = {}

    def _walk_all(self) -> list[Position]:
        if self._pairs is None:
            self._pairs = walk(self.model)
            self._by_path = {pair[1]: pair for pair in self._pairs}
        return self._pairs

    pairs = property(_walk_all, doc="Every (element, path) in document order.")

    @property
    def by_path(self) -> dict[QName, Position]:
        """Each path's position."""
        self._walk_all()
        return self._by_path

    def get(self, path: QName) -> Position | None:
        """The position at `path`, or None, opening only the namespaces above it."""
        element = self.model if path[:1] == (segment(self.model, 0),) else None
        for name in path[1:]:
            element = element and _members_of(element).get(name)
        return None if element is None else (element, path)

    def subtree(self, path: QName) -> Iterator[Position]:
        """Every position at `path` or below it, in document order."""
        found = self.get(path)
        return _walk(*found) if found else iter(())

    def resolve_relative(self, owner_path: QName, target: QName) -> Position | None:
        """Resolve `target` lexically, innermost enclosing namespace outward, the
        root's name included; None when nothing matches."""
        get = self.get if self._by_path is None else self._by_path.get
        for cut in range(len(owner_path) - 1, -1, -1):
            found = get(owner_path[:cut] + target)
            if found is not None:
                return found
        return None

    def targets(self, element: Element, path: QName, kind: RelKind) -> list[Position]:
        """Resolvable targets of the element's `kind` relationships, in order."""
        return [
            target
            for rel in element.rels(kind)
            if (target := self.resolve_relative(path, rel.target)) is not None
        ]

    def enclosing(self, path: QName, kinds: frozenset[ElementKind]) -> QName | None:
        """Path of the innermost proper ancestor whose kind is in `kinds`."""
        for cut in range(len(path) - 1, 0, -1):
            owner = self.by_path.get(path[:cut])
            if owner is not None and owner[0].kind in kinds:
                return owner[1]
        return None

    def typed_by(self, element: Element, path: QName) -> tuple[Position, ...]:
        """The position, then every position its typing reaches, each once,
        depth first in document order, so typing cycles terminate; cached by path."""
        found = self._typed.get(path)
        if found is None:
            reached = {path: (element, path)}
            stack = self.targets(element, path, RelKind.TYPING)[::-1]
            while stack:
                position = stack.pop()
                if position[1] not in reached:
                    reached[position[1]] = position
                    stack.extend(reversed(self.targets(*position, RelKind.TYPING)))
            found = self._typed[path] = tuple(reached.values())
        return found

    def effective_metadata(self, element: Element, path: QName) -> tuple[Element, ...]:
        """Own metadata applications plus those inherited through typing: a usage
        inherits the tags of its definition, and each position typing reaches
        contributes once."""
        return tuple(
            app for current, _ in self.typed_by(element, path)
            for app in current.metadata_applications()
        )
