"""Iteration domains and schedules of assignment statements.

For every assignment statement the geometric analysis computes

* the ordered tuple of enclosing loop iterators,
* the **iteration domain**: the set of iterator vectors for which the
  statement instance executes (loop bounds, strides and ``if`` guards),
* a **schedule**: a ``2d+1``-style multidimensional timestamp (alternating
  static statement positions and loop "time" expressions) used by the
  def-use order checker.

These are bundled in :class:`StatementContext`, which also owns the
statement's access maps and defined set; a :class:`ProgramGeometry` holds a
program's contexts and per-array written sets.  Each is derived once, on first
use, and shared by the def-use checks, the ADDG extractor and the traversal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..presburger import AffineConstraint, LinExpr, Map, Set, eq_
from ..lang.ast import ArrayRef, Assignment, ForLoop, IfThenElse, Program, Statement
from ..lang.affine import (
    condition_to_pieces,
    expr_to_affine,
    loop_constraints,
    negated_condition_pieces,
)
from .access import element_dim_names

__all__ = ["ProgramGeometry", "StatementContext", "statement_contexts"]


class StatementContext:
    """An assignment statement together with its geometric context.

    The access maps and the defined set are built on first use and kept.  Two
    threads racing on a cold accessor build equal values; one assignment wins.
    """

    def __init__(
        self,
        assignment: Assignment,
        label: str,
        iterators: Tuple[str, ...],
        domain: Set,
        schedule: Tuple[LinExpr, ...],
        position: int,
    ):
        self.assignment = assignment
        self.label = label
        self.iterators = iterators
        self.domain = domain
        self.schedule = schedule
        self.position = position
        self._write_map: Optional[Map] = None
        self._defined: Optional[Set] = None
        self._read_maps: Dict[ArrayRef, Map] = {}

    @property
    def target_array(self) -> str:
        return self.assignment.target.name

    @property
    def write_map(self) -> Map:
        """The access map of the assignment target: iteration vector -> written element."""
        if self._write_map is None:
            self._write_map = self._access_map(self.assignment.target, "w")
        return self._write_map

    @property
    def defined(self) -> Set:
        """The elements of the target array written by the statement."""
        if self._defined is None:
            self._defined = self.write_map.range()
        return self._defined

    def read_map(self, ref: ArrayRef) -> Map:
        """The access map of the right-hand-side reference *ref*: iteration vector -> read element."""
        found = self._read_maps.get(ref)
        if found is None:
            found = self._read_maps[ref] = self._access_map(ref, "e")
        return found

    def _access_map(self, ref: ArrayRef, prefix: str) -> Map:
        """The access map of *ref*, restricted to the iteration domain."""
        out_names = element_dim_names(ref.name, len(ref.indices), prefix)
        constraints = [
            eq_(LinExpr.var(name), expr_to_affine(index))
            for name, index in zip(out_names, ref.indices)
        ]
        return Map.build(self.iterators, out_names, constraints).restrict_domain(self.domain)

    def __repr__(self) -> str:
        return (
            f"StatementContext({self.label!r}, target={self.target_array!r}, "
            f"iterators={list(self.iterators)})"
        )


class ProgramGeometry:
    """One program's statement contexts and per-array written sets, derived on first use.

    As for :class:`StatementContext`, racing threads build equal values.
    """

    def __init__(self, program: Program):
        self.program = program
        self._contexts: Optional[Tuple[StatementContext, ...]] = None
        self._writers: Optional[Dict[str, List[StatementContext]]] = None
        self._written: Dict[str, Set] = {}

    @property
    def contexts(self) -> Tuple[StatementContext, ...]:
        """The :class:`StatementContext` of every assignment, in program order."""
        if self._contexts is None:
            self._contexts = tuple(statement_contexts(self.program))
        return self._contexts

    @property
    def writers(self) -> Dict[str, List[StatementContext]]:
        """The contexts grouped by target array (arrays in first-write order)."""
        if self._writers is None:
            writers: Dict[str, List[StatementContext]] = {}
            for context in self.contexts:
                writers.setdefault(context.target_array, []).append(context)
            self._writers = writers
        return self._writers

    def written_set(self, array: str) -> Optional[Set]:
        """The elements of *array* written by the program (``None`` if it is never written)."""
        written = self._written.get(array)
        if written is None:
            for writer in self.writers.get(array, ()):
                written = writer.defined if written is None else written.union(writer.defined)
            if written is not None:
                self._written[array] = written
        return written


def statement_contexts(program: Program) -> List[StatementContext]:
    """Compute the :class:`StatementContext` of every assignment in *program*."""
    contexts: List[StatementContext] = []
    fresh_counter = [0]

    def fresh_label(assignment: Assignment) -> str:
        if assignment.label:
            return assignment.label
        fresh_counter[0] += 1
        return f"__stmt{fresh_counter[0]}"

    def visit(
        statements: Sequence[Statement],
        iterators: List[str],
        pieces: List[List[AffineConstraint]],
        existentials: List[str],
        schedule_prefix: List[LinExpr],
    ) -> None:
        for position, statement in enumerate(statements):
            if isinstance(statement, Assignment):
                built = None
                for piece in pieces:
                    piece_set = Set.build(tuple(iterators), piece, exists=tuple(existentials))
                    built = piece_set if built is None else built.union(piece_set)
                domain = built if built is not None else Set.universe(tuple(iterators))
                schedule = tuple(schedule_prefix + [LinExpr.constant(position)])
                contexts.append(
                    StatementContext(
                        statement,
                        fresh_label(statement),
                        tuple(iterators),
                        domain,
                        schedule,
                        position,
                    )
                )
            elif isinstance(statement, ForLoop):
                constraints, extra_exists = loop_constraints(
                    statement.var, statement.init, statement.cond_op, statement.bound, statement.step
                )
                new_pieces = [piece + constraints for piece in pieces]
                init_affine = expr_to_affine(statement.init)
                direction = 1 if statement.step > 0 else -1
                time_expr = (LinExpr.var(statement.var) - init_affine) * direction
                visit(
                    statement.body,
                    iterators + [statement.var],
                    new_pieces,
                    existentials + extra_exists,
                    schedule_prefix + [LinExpr.constant(position), time_expr],
                )
            elif isinstance(statement, IfThenElse):
                then_pieces = condition_to_pieces(statement.condition)
                combined_then = [piece + extra for piece in pieces for extra in then_pieces]
                visit(
                    statement.then_body,
                    iterators,
                    combined_then,
                    existentials,
                    schedule_prefix + [LinExpr.constant(position)],
                )
                if statement.else_body:
                    else_pieces = negated_condition_pieces(statement.condition)
                    combined_else = [piece + extra for piece in pieces for extra in else_pieces]
                    visit(
                        statement.else_body,
                        iterators,
                        combined_else,
                        existentials,
                        schedule_prefix + [LinExpr.constant(position)],
                    )
            else:
                raise TypeError(f"unsupported statement type {type(statement).__name__}")

    visit(program.body, [], [[]], [], [])
    return contexts
