"""The equivalence checker: properties, engine, diagnostics, public API."""

from .api import check_equivalence
from .engine import Engine, Term
from .properties import OperatorProperties, OperatorRegistry, default_registry, empty_registry
from .result import CheckStats, Diagnostic, DiagnosticKind, EquivalenceResult, OutputReport

__all__ = [
    "CheckStats",
    "Diagnostic",
    "DiagnosticKind",
    "Engine",
    "EquivalenceResult",
    "OperatorProperties",
    "OperatorRegistry",
    "OutputReport",
    "Term",
    "check_equivalence",
    "default_registry",
    "empty_registry",
]
