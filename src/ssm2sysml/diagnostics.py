"""Diagnostic records and codes shared by SSM validation, mapping and SysML conformance."""
from __future__ import annotations

import enum
from dataclasses import dataclass

from .source import SourceSpan, record


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@record
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


@dataclass(frozen=True)
class Code:
    """One diagnostic code the tool emits: what it requires and why."""

    id: str
    severity: Severity
    description: str
    rationale: str

    def at(self, element_path: str, span: SourceSpan | None, message: str) -> Diagnostic:
        return Diagnostic(self.id, self.severity, element_path, span, message)


_E, _W = Severity.ERROR, Severity.WARNING
# Codes of `compile`: SSM-* from `validate_context`, W-* from `map_context`.
COMPILE_CODES: dict[str, Code] = {code.id: code for code in (
    Code("SSM-001", _E, "Every reference names a declared element: customers, actors, owners "
         "and performers name individuals, flow and monitor ends name activities, a conceptual "
         "model names a root definition, and a constraint refines another constraint of its "
         "root definition.",
         "Each reference becomes a SysML relationship, which must resolve."),
    Code("SSM-002", _E, "Every activity is performed by an actor or the owner of its conceptual "
         "model's root definition.", "Each activity becomes a perform action of that root "
         "definition's use case, performed by one of the people it names."),
    Code("SSM-003", _E, "The flows of a conceptual model form no cycle.",
         "Activities are emitted as actions in flow order, which a cycle does not have."),
    Code("SSM-004", _E, "Every id is declared once in its scope: individuals and root definitions "
         "in the context; customers, actors and constraints in a root definition; input and output "
         "names in a transformation; activities, and apart from them monitors, in a conceptual "
         "model; and a root definition has at most one conceptual model.",
         "Each declaration becomes one member of the model; a repeated one would be lost."),
    Code("SSM-005", _E, "Display names, definition types, worldviews, transformation statements "
         "and subjects, constraint texts, and the customer and actor lists of a root definition "
         "are non-empty.",
         "Each becomes a name, type, doc, rationale or stakeholder of the model; an empty one "
         "carries nothing, and the .ssm notation cannot write an empty list."),
    Code("W-DUPNAME", _W, "No two individuals share a display name.",
         "Readers tell individuals apart by display name."),
    Code("W-NOCM", _W, "Every root definition has a conceptual model.",
         "Without one, the use case body holds no activities."),
    Code("W-NOEXPR", _W, "Every environmental constraint has a formal expression.",
         "Without one, a placeholder `true` constraint is emitted, which constrains nothing."),
)}
