"""ADDG extraction from a program in the allowed class (the "ADDG extractor" of Fig. 6)."""

from __future__ import annotations

from ..analysis.access import dependency_map
from ..analysis.domains import ProgramGeometry, StatementContext
from ..lang.ast import (
    ArrayRef,
    BinOp,
    Call,
    Expr,
    IntConst,
    UnaryOp,
    VarRef,
)
from ..lang.errors import ProgramClassError
from ..telemetry import TRACER
from .graph import ADDG, ConstNode, ExprNode, OpNode, ReadNode, StatementNode

__all__ = ["build_addg", "build_expr_node"]

#: Display name used for the unary negation operator node.
NEGATE_OP = "neg"


def build_expr_node(expr: Expr, context: StatementContext) -> ExprNode:
    """Recursively convert a right-hand-side expression into ADDG nodes."""
    if isinstance(expr, IntConst):
        return ConstNode(expr.value)
    if isinstance(expr, ArrayRef):
        return ReadNode(expr.name, expr, dependency_map(context, expr))
    if isinstance(expr, BinOp):
        operands = [build_expr_node(expr.lhs, context), build_expr_node(expr.rhs, context)]
        return OpNode(expr.op, operands, context.label)
    if isinstance(expr, UnaryOp):
        return OpNode(NEGATE_OP, [build_expr_node(expr.operand, context)], context.label)
    if isinstance(expr, Call):
        operands = [build_expr_node(argument, context) for argument in expr.args]
        return OpNode(expr.func, operands, context.label)
    if isinstance(expr, VarRef):
        raise ProgramClassError(
            f"statement {context.label!r}: scalar {expr.name!r} used as a data operand "
            "(the allowed program class only reads array elements and constants)"
        )
    raise ProgramClassError(f"unsupported expression node {type(expr).__name__} in data position")


def build_addg(geometry: ProgramGeometry) -> ADDG:
    """Extract the ADDG of the program whose geometric analysis is *geometry*.

    The statement nodes share the geometry's statement contexts (and so their
    write maps and defined sets), and the ADDG reads its written sets from it.
    Building the geometry already checked the program against the allowed
    program class; the geometric data-flow prerequisites (single assignment,
    def-use order) are checked separately by :func:`repro.analysis.check_dataflow`
    as in the verification scheme of Fig. 6.
    """
    with TRACER.span("frontend.extract", "frontend", program=geometry.program.name):
        statements = [
            StatementNode(context, build_expr_node(context.assignment.rhs, context))
            for context in geometry.contexts
        ]
        return ADDG(geometry, statements)
