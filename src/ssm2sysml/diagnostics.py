"""Diagnostic records shared by SSM validation and SysML conformance."""
from __future__ import annotations

import enum
from dataclasses import dataclass

from .source import SourceSpan


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One finding: rule id, severity, offending element, location, message."""

    rule_id: str
    severity: Severity
    element_path: str
    span: SourceSpan | None
    message: str

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def sort_key(self) -> tuple:
        if self.span is None:
            return ("", 0, 0, self.element_path, self.rule_id)
        return (
            self.span.file,
            self.span.start_line,
            self.span.start_col,
            self.element_path,
            self.rule_id,
        )

    def to_text(self, color: bool = False) -> str:
        loc = str(self.span) if self.span else self.element_path
        sev = str(self.severity)
        if color:
            code = "31" if self.is_error else "33"
            sev = f"\x1b[{code}m{sev}\x1b[0m"
        return f"{loc}: {sev}[{self.rule_id}] {self.message}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule_id,
            "severity": str(self.severity),
            "element": self.element_path,
            "file": self.span.file if self.span else None,
            "line": self.span.start_line if self.span else None,
            "col": self.span.start_col if self.span else None,
            "message": self.message,
        }
