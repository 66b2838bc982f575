"""Locating statements, loops and sub-expressions inside a program.

Transformations address their targets by statement label (every assignment in
the allowed class carries one), optionally refined with an expression *path*:
a tuple of 1-based operand positions descending from the root of the
right-hand side, the positions that label the operand edges of an ADDG.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..lang.ast import (
    ArrayRef,
    Assignment,
    BinOp,
    Call,
    Expr,
    ForLoop,
    IfThenElse,
    Program,
    Statement,
    UnaryOp,
)
from .errors import LocateError

__all__ = [
    "find_assignment",
    "enclosing_loops",
    "statement_container",
    "loop_of_label",
    "get_subexpr",
    "replace_subexpr",
    "replace_statement_body",
]


def find_assignment(program: Program, label: str) -> Assignment:
    """The assignment statement carrying *label*."""
    for assignment in program.assignments():
        if assignment.label == label:
            return assignment
    raise LocateError(f"no assignment labelled {label!r}")


def enclosing_loops(program: Program, label: str) -> List[ForLoop]:
    """The loops enclosing the labelled assignment, outermost first."""
    result: List[ForLoop] = []

    def visit(statements: Sequence[Statement], stack: List[ForLoop]) -> bool:
        for statement in statements:
            if isinstance(statement, Assignment):
                if statement.label == label:
                    result.extend(stack)
                    return True
            elif isinstance(statement, ForLoop):
                if visit(statement.body, stack + [statement]):
                    return True
            elif isinstance(statement, IfThenElse):
                if visit(statement.then_body, stack) or visit(statement.else_body, stack):
                    return True
        return False

    if not visit(program.body, []):
        raise LocateError(f"no assignment labelled {label!r}")
    return result


def statement_container(program: Program, target: Statement) -> Tuple[List[Statement], int]:
    """The statement list that directly contains *target* and its index in it."""

    def visit(statements: List[Statement]) -> Optional[Tuple[List[Statement], int]]:
        for index, statement in enumerate(statements):
            if statement is target:
                return statements, index
            if isinstance(statement, ForLoop):
                found = visit(statement.body)
                if found:
                    return found
            elif isinstance(statement, IfThenElse):
                found = visit(statement.then_body)
                if found:
                    return found
                found = visit(statement.else_body)
                if found:
                    return found
        return None

    found = visit(program.body)
    if found is None:
        raise LocateError("statement is not part of the program")
    return found


def loop_of_label(program: Program, label: str, depth: int = -1) -> ForLoop:
    """The loop enclosing the labelled assignment.

    ``depth = -1`` (default) selects the innermost enclosing loop, ``0`` the
    outermost, and so on.
    """
    loops = enclosing_loops(program, label)
    if not loops:
        raise LocateError(f"assignment {label!r} is not enclosed by any loop")
    try:
        return loops[depth]
    except IndexError as exc:
        raise LocateError(
            f"assignment {label!r} has only {len(loops)} enclosing loop(s), depth {depth} requested"
        ) from exc


def get_subexpr(expr: Expr, path: Sequence[int]) -> Expr:
    """The sub-expression at *path* (1-based operand positions) of *expr*."""
    current = expr
    for position in path:
        children = _expr_children(current)
        if not (1 <= position <= len(children)):
            raise LocateError(f"expression path {tuple(path)} does not exist")
        current = children[position - 1]
    return current


def replace_subexpr(expr: Expr, path: Sequence[int], replacement: Expr) -> Expr:
    """A copy of *expr* with the sub-expression at *path* replaced."""
    if not path:
        return replacement.clone()
    position = path[0]
    children = _expr_children(expr)
    if not (1 <= position <= len(children)):
        raise LocateError(f"expression path {tuple(path)} does not exist")
    new_children = [
        replace_subexpr(child, path[1:], replacement) if index == position - 1 else child.clone()
        for index, child in enumerate(children)
    ]
    return _rebuild_expr(expr, new_children)


def _expr_children(expr: Expr) -> Tuple[Expr, ...]:
    if isinstance(expr, BinOp):
        return (expr.lhs, expr.rhs)
    if isinstance(expr, UnaryOp):
        return (expr.operand,)
    if isinstance(expr, Call):
        return expr.args
    return ()


def _rebuild_expr(expr: Expr, children: List[Expr]) -> Expr:
    if isinstance(expr, BinOp):
        return BinOp(expr.op, children[0], children[1])
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, children[0])
    if isinstance(expr, Call):
        return Call(expr.func, children)
    raise LocateError(f"cannot rebuild expression of type {type(expr).__name__}")


def replace_statement_body(program: Program, old: Statement, new: Sequence[Statement]) -> Program:
    """A copy-free in-place replacement of *old* by the statements *new*.

    The caller is expected to have cloned the program first (all public
    transformation entry points do).
    """
    container, index = statement_container(program, old)
    container[index : index + 1] = list(new)
    return program
