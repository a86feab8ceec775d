"""SSM-to-SysML compiler: parse soft-systems contexts, map them to a
SysML v2 textual subset, lint the result, and trace across it.

The exports are resolved lazily (PEP 562): `import ssm2sysml` loads no
submodule, and the first access to a name imports the module that
defines it.
"""
import importlib

__version__ = "0.1.0"

# Each public name, and the submodule that defines it.
_EXPORTS = {
    "Activity": "ssm_model",
    "AmbiguousName": "errors",
    "CatwoeRole": "ssm_model",
    "ConceptualModel": "ssm_model",
    "Diagnostic": "diagnostics",
    "Element": "sysml_ast",
    "ElementKind": "sysml_ast",
    "EnvConstraint": "ssm_model",
    "Flow": "ssm_model",
    "IdRef": "ssm_model",
    "Individual": "ssm_model",
    "MappingError": "errors",
    "MappingOptions": "mapper",
    "MappingReport": "mapper",
    "ProvenanceEntry": "mapper",
    "RULES": "conformance",
    "Rule": "conformance",
    "TraceEdge": "trace_view",
    "TraceGraph": "trace_view",
    "build_graph": "trace_view",
    "check": "conformance",
    "evaluate_filter": "trace_view",
    "explain": "conformance",
    "map_context": "mapper",
    "reach": "trace_view",
    "render_view": "trace_view",
    "MonitorLink": "ssm_model",
    "Multiplicity": "sysml_ast",
    "ParseError": "errors",
    "RelKind": "sysml_ast",
    "Relationship": "sysml_ast",
    "RootDefinition": "ssm_model",
    "Severity": "diagnostics",
    "SourceSpan": "source",
    "SsmContext": "ssm_model",
    "Transformation": "ssm_model",
    "UnknownElement": "errors",
    "UnknownMetadataDef": "errors",
    "UnknownRule": "errors",
    "UnknownType": "errors",
    "UnsupportedConstruct": "errors",
    "UnsupportedElement": "errors",
    "emit": "sysml_text",
    "format_ssm": "ssm_parser",
    "parse_sysml": "sysml_text",
    "parse_ssm": "ssm_parser",
    "resolve": "sysml_ast",
    "validate_context": "ssm_model",
    "walk": "sysml_ast",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
