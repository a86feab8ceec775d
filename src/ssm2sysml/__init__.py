"""SSM-to-SysML compiler: parse soft-systems contexts, map them to a
SysML v2 textual subset, lint the result, and trace across it."""

from .diagnostics import Diagnostic, Severity
from .errors import (
    AmbiguousName,
    MappingError,
    ParseError,
    UnknownElement,
    UnknownMetadataDef,
    UnknownRule,
    UnknownType,
    UnsupportedConstruct,
    UnsupportedElement,
)
from .source import SourceSpan
from .ssm_model import (
    Activity,
    CatwoeRole,
    ConceptualModel,
    EnvConstraint,
    Flow,
    IdRef,
    Individual,
    MonitorLink,
    RootDefinition,
    SsmContext,
    Transformation,
    validate_context,
)
from .ssm_parser import format_ssm, parse_ssm
from .sysml_ast import (
    Element,
    ElementKind,
    Multiplicity,
    RelKind,
    Relationship,
    resolve,
    walk,
)
from .sysml_text import emit, parse_sysml
from .mapper import (
    MappingOptions,
    MappingReport,
    ProvenanceEntry,
    map_context,
)
from .conformance import RULES, Rule, check, explain
from .trace_view import (
    TraceEdge,
    TraceGraph,
    build_graph,
    evaluate_filter,
    reach,
    render_view,
)

__version__ = "0.1.0"

__all__ = [
    "Activity",
    "AmbiguousName",
    "CatwoeRole",
    "ConceptualModel",
    "Diagnostic",
    "Element",
    "ElementKind",
    "EnvConstraint",
    "Flow",
    "IdRef",
    "Individual",
    "MappingError",
    "MappingOptions",
    "MappingReport",
    "ProvenanceEntry",
    "RULES",
    "Rule",
    "TraceEdge",
    "TraceGraph",
    "build_graph",
    "check",
    "evaluate_filter",
    "explain",
    "map_context",
    "reach",
    "render_view",
    "MonitorLink",
    "Multiplicity",
    "ParseError",
    "RelKind",
    "Relationship",
    "RootDefinition",
    "Severity",
    "SourceSpan",
    "SsmContext",
    "Transformation",
    "UnknownElement",
    "UnknownMetadataDef",
    "UnknownRule",
    "UnknownType",
    "UnsupportedConstruct",
    "UnsupportedElement",
    "emit",
    "format_ssm",
    "parse_sysml",
    "parse_ssm",
    "resolve",
    "validate_context",
    "walk",
]
