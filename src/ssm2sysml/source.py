"""Source positions shared by both front ends."""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields


def one_pass_init(cls: type) -> type:
    """Give a frozen, slotted dataclass declared with `init=False` its `__init__`.

    The dataclass's own `__init__` stores each field with one `object.__setattr__`
    call.  This one turns the instance into a mutable twin with the same slots,
    stores every field as a plain attribute, turns it back into `cls`, then calls
    `__post_init__` if `cls` defines one.  That pays for records of many fields;
    for one of two it is slower.  Fields take plain defaults, not factories.
    Assigning or deleting any attribute raises `FrozenInstanceError`.
    Package-private.
    """
    twin = type(cls.__name__, (), {"__slots__": cls.__slots__})
    params, lines = [], ['_set(self, "__class__", _twin)']
    scope = {"_cls": cls, "_twin": twin, "_set": object.__setattr__}
    for f in fields(cls):
        if f.default is not MISSING:
            scope[f"_d_{f.name}"] = f.default
        if f.init:
            params.append(f.name if f.default is MISSING else f"{f.name}=_d_{f.name}")
            lines.append(f"self.{f.name} = {f.name}")
        elif f.default is not MISSING:
            lines.append(f"self.{f.name} = _d_{f.name}")
    lines.append('_set(self, "__class__", _cls)')
    if hasattr(cls, "__post_init__"):
        lines.append("self.__post_init__()")
    body = "".join(f"\n    {line}" for line in lines)
    exec(f"def __init__(self, {', '.join(params)}):{body}", scope)
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def record(cls: type) -> type:
    """`dataclass(frozen=True, slots=True)` refusing to assign or delete any attribute, not
    just a field, with `FrozenInstanceError`: for any other name the dataclass's own
    `__setattr__` calls `super()` on the class that `slots=True` replaced.  Package-private."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def _frozen(self: object, name: str, *value: object) -> None:
    """Refuse to assign (given a `value`) or delete any attribute."""
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


@one_pass_init
@dataclass(frozen=True, order=True, slots=True, init=False)
class SourceSpan:
    """A half-open region of a source file, 1-based lines and columns."""

    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __post_init__(self) -> None:
        if (self.start_line, self.start_col) > (self.end_line, self.end_col):
            raise ValueError("span start must not follow span end")

    @staticmethod
    def of_offsets(file: str, lines: list[int], start: int, end: int) -> "SourceSpan":
        """The span of characters `start` to `end`; `lines` holds the line-start offsets."""
        first = bisect_right(lines, start)
        last = bisect_right(lines, end, first)
        return SourceSpan(
            file, first, start - lines[first - 1] + 1, last, end - lines[last - 1] + 1
        )

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"
