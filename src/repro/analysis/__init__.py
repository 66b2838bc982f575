"""Geometric program analysis: domains, access maps, dependency mappings, data-flow checks."""

from .access import dependency_map, element_dim_names
from .dataflow import (
    check_coverage,
    check_dataflow,
    check_def_use_order,
    check_single_assignment,
)
from .domains import ProgramGeometry, StatementContext, statement_contexts

__all__ = [
    "ProgramGeometry",
    "StatementContext",
    "check_coverage",
    "check_dataflow",
    "check_def_use_order",
    "check_single_assignment",
    "dependency_map",
    "element_dim_names",
    "statement_contexts",
]
