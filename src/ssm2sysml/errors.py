"""Errors raised by the text front ends."""
from __future__ import annotations

from .diagnostics import Diagnostic
from .source import SourceSpan


class ParseError(Exception):
    """Lexical or syntactic fault, with position and expectation set."""

    def __init__(
        self,
        span: SourceSpan,
        message: str,
        expected: tuple[str, ...] = (),
        found: str = "",
    ) -> None:
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message
        self.expected = expected
        self.found = found


class UnsupportedConstruct(ParseError):
    """A recognized SysML v2 keyword outside the supported subset."""

    def __init__(self, span: SourceSpan, keyword: str, supported: tuple[str, ...]) -> None:
        super().__init__(
            span,
            f"construct {keyword!r} is outside the supported subset",
            expected=supported,
            found=keyword,
        )
        self.keyword = keyword


class UnknownElement(KeyError):
    """A qualified name did not resolve; carries the longest resolvable prefix."""

    def __init__(self, name: str, prefix: str) -> None:
        super().__init__(name)
        self.name = name
        self.prefix = prefix

    def __str__(self) -> str:
        return f"unknown element {self.name!r} (longest resolvable prefix: {self.prefix!r})"


class AmbiguousName(KeyError):
    """Two siblings share a name; resolution cannot pick one."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"ambiguous name {self.name!r}"


class UnknownRule(KeyError):
    pass


class UnknownMetadataDef(KeyError):
    def __str__(self) -> str:
        return f"unknown metadata definition {self.args[0]!r}"


class UnknownType(KeyError):
    def __str__(self) -> str:
        return f"unknown type {self.args[0]!r}"


class MappingError(ValueError):
    """Raised when a context that fails validation is handed to the mapper."""

    def __init__(self, diagnostics: list[Diagnostic]) -> None:
        super().__init__(
            "context fails validation: " + "; ".join(d.message for d in diagnostics)
        )
        self.diagnostics = diagnostics


class UnsupportedElement(ValueError):
    """Raised by the emitter for an element it has no rule for."""
