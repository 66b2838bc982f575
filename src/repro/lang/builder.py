"""A small Python DSL for constructing programs programmatically.

The workload generator and several tests construct programs directly rather
than going through C source text.  :class:`ProgramBuilder` provides a compact
way to do that::

    from repro.lang import ProgramBuilder

    b = ProgramBuilder("scale", params=[("A", [64]), ("C", [64])])
    with b.loop("i", 0, 64):
        b.assign("s1", b.at("C", b.v("i")), b.mul(2, b.at("A", b.v("i"))))
    program = b.build()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .ast import (
    And,
    ArrayDecl,
    ArrayRef,
    Assignment,
    BinOp,
    Call,
    Comparison,
    Condition,
    Expr,
    ForLoop,
    IfThenElse,
    IntConst,
    Program,
    Statement,
    UnaryOp,
    VarRef,
)

__all__ = ["ProgramBuilder"]

ExprLike = Union[Expr, int, str]


def _coerce(value: ExprLike) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, int):
        return IntConst(value)
    if isinstance(value, str):
        return VarRef(value)
    raise TypeError(f"cannot convert {value!r} to an expression")


class ProgramBuilder:
    """Incrementally build a :class:`~repro.lang.ast.Program`."""

    def __init__(
        self,
        name: str,
        params: Sequence[Tuple[str, Sequence[int]]] = (),
        locals_: Sequence[Tuple[str, Sequence[int]]] = (),
        defines: Optional[Dict[str, int]] = None,
    ):
        self.name = name
        self.params = [ArrayDecl(n, dims) for n, dims in params]
        self.locals = [ArrayDecl(n, dims) for n, dims in locals_]
        self.defines = dict(defines or {})
        self.body: List[Statement] = []
        self._scopes: List[List[Statement]] = [self.body]
        self._label_counter = 0

    # ------------------------- expression helpers ------------------------ #
    @staticmethod
    def v(name: str) -> VarRef:
        """A scalar (iterator) reference."""
        return VarRef(name)

    @staticmethod
    def c(value: int) -> IntConst:
        """An integer constant."""
        return IntConst(value)

    @staticmethod
    def at(array: str, *indices: ExprLike) -> ArrayRef:
        """An array element reference ``array[indices...]``."""
        return ArrayRef(array, [_coerce(index) for index in indices])

    @staticmethod
    def add(lhs: ExprLike, rhs: ExprLike) -> BinOp:
        return BinOp("+", _coerce(lhs), _coerce(rhs))

    @staticmethod
    def sub(lhs: ExprLike, rhs: ExprLike) -> BinOp:
        return BinOp("-", _coerce(lhs), _coerce(rhs))

    @staticmethod
    def mul(lhs: ExprLike, rhs: ExprLike) -> BinOp:
        return BinOp("*", _coerce(lhs), _coerce(rhs))

    @staticmethod
    def neg(operand: ExprLike) -> UnaryOp:
        return UnaryOp("-", _coerce(operand))

    @staticmethod
    def call(func: str, *args: ExprLike) -> Call:
        return Call(func, [_coerce(arg) for arg in args])

    @staticmethod
    def cmp(op: str, lhs: ExprLike, rhs: ExprLike) -> Comparison:
        return Comparison(op, _coerce(lhs), _coerce(rhs))

    @staticmethod
    def both(*parts: Condition) -> And:
        return And(list(parts))

    # ------------------------- declaration helpers ------------------------ #
    def add_local(self, name: str, dims: Sequence[int]) -> None:
        self.locals.append(ArrayDecl(name, dims))

    # -------------------------- statement helpers ------------------------- #
    def _fresh_label(self) -> str:
        self._label_counter += 1
        return f"s{self._label_counter}"

    def assign(self, label: Optional[str], target: ArrayRef, rhs: ExprLike) -> Assignment:
        """Append a labelled assignment to the current scope."""
        statement = Assignment(label or self._fresh_label(), target, _coerce(rhs))
        self._scopes[-1].append(statement)
        return statement

    @contextmanager
    def loop(
        self,
        var: str,
        lower: ExprLike,
        upper: ExprLike,
        step: int = 1,
        cond_op: Optional[str] = None,
    ) -> Iterator[VarRef]:
        """A ``for`` loop scope.

        With a positive step the loop runs ``for (var = lower; var < upper; var += step)``;
        with a negative step it runs ``for (var = lower; var >= upper; var += step)``.
        A different condition operator can be forced with *cond_op*.
        """
        if cond_op is None:
            cond_op = "<" if step > 0 else ">="
        loop = ForLoop(var, _coerce(lower), cond_op, _coerce(upper), step, [])
        self._scopes[-1].append(loop)
        self._scopes.append(loop.body)
        try:
            yield VarRef(var)
        finally:
            self._scopes.pop()

    @contextmanager
    def if_(self, condition: Condition) -> Iterator[None]:
        """An ``if`` scope (without else)."""
        statement = IfThenElse(condition, [], [])
        self._scopes[-1].append(statement)
        self._scopes.append(statement.then_body)
        try:
            yield
        finally:
            self._scopes.pop()

    @contextmanager
    def if_else(self, condition: Condition) -> Iterator[Tuple[List[Statement], List[Statement]]]:
        """An ``if``/``else`` scope: yields the two bodies; fill them explicitly."""
        statement = IfThenElse(condition, [], [])
        self._scopes[-1].append(statement)
        try:
            yield statement.then_body, statement.else_body
        finally:
            pass

    @contextmanager
    def then_scope(self, statement: IfThenElse) -> Iterator[None]:
        self._scopes.append(statement.then_body)
        try:
            yield
        finally:
            self._scopes.pop()

    @contextmanager
    def else_scope(self, statement: IfThenElse) -> Iterator[None]:
        self._scopes.append(statement.else_body)
        try:
            yield
        finally:
            self._scopes.pop()

    def if_stmt(self, condition: Condition) -> IfThenElse:
        """Append an empty ``if``/``else`` and return it (use with then/else scopes)."""
        statement = IfThenElse(condition, [], [])
        self._scopes[-1].append(statement)
        return statement

    # ------------------------------- build -------------------------------- #
    def build(self) -> Program:
        """Produce the finished :class:`Program` (the builder can keep being used)."""
        program = Program(self.name, self.params, self.locals, self.body, self.defines)
        return program.clone()
