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
program's contexts and per-array written sets.  Both derive everything in
their constructors and are immutable once built, so the def-use checks, the
ADDG extractor and the traversal share them, across threads too.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from ..presburger import AffineConstraint, LinExpr, Map, Set, eq_
from ..lang.ast import ArrayRef, Assignment, ForLoop, IfThenElse, Program, Statement, array_reads
from ..lang.affine import (
    condition_to_pieces,
    expr_to_affine,
    loop_constraints,
    negated_condition_pieces,
)
from ..lang.validate import require_program_class
from ..telemetry import TRACER
from .access import element_dim_names

__all__ = ["ProgramGeometry", "StatementContext", "statement_contexts"]


class StatementContext:
    """An assignment statement together with its geometric context.

    The constructor builds the write map, the defined set and the read map of
    every right-hand-side reference to an array not in *inputs*; nothing is
    filled in later.
    """

    __slots__ = (
        "assignment",
        "label",
        "iterators",
        "domain",
        "schedule",
        "position",
        "write_map",
        "defined",
        "read_maps",
    )

    def __init__(
        self,
        assignment: Assignment,
        label: str,
        iterators: Tuple[str, ...],
        domain: Set,
        schedule: Tuple[LinExpr, ...],
        position: int,
        inputs: AbstractSet[str],
    ):
        self.assignment = assignment
        self.label = label
        self.iterators = iterators
        self.domain = domain
        self.schedule = schedule
        self.position = position
        #: The access map of the assignment target: iteration vector -> written element.
        self.write_map: Map = self._access_map(assignment.target, "w")
        #: The elements of the target array written by the statement.
        self.defined: Set = self.write_map.range()
        #: The access maps of the reads of non-input arrays: iteration vector -> read element.
        self.read_maps: Dict[ArrayRef, Map] = {}
        for ref in array_reads(assignment.rhs):
            if ref.name not in inputs and ref not in self.read_maps:
                self.read_maps[ref] = self._access_map(ref, "e")

    @property
    def target_array(self) -> str:
        return self.assignment.target.name

    def read_map(self, ref: ArrayRef) -> Map:
        """The access map of the right-hand-side reference *ref*: iteration vector -> read element.

        A read of an input array has no precomputed map; it is built on each call.
        """
        found = self.read_maps.get(ref)
        return found if found is not None else self._access_map(ref, "e")

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
    """One program's statement contexts and per-array written sets.

    The constructor first checks the program against the allowed class
    (raising :class:`~repro.lang.errors.ProgramClassError`), so an
    out-of-class program is reported as such before any geometry is derived.
    """

    __slots__ = ("program", "contexts", "writers", "written")

    def __init__(self, program: Program):
        with TRACER.span("frontend.geometry", "frontend", program=program.name):
            require_program_class(program)
            self.program = program
            #: The :class:`StatementContext` of every assignment, in program order.
            self.contexts: Tuple[StatementContext, ...] = tuple(statement_contexts(program))
            #: The contexts grouped by target array (arrays in first-write order).
            self.writers: Dict[str, List[StatementContext]] = {}
            for context in self.contexts:
                self.writers.setdefault(context.target_array, []).append(context)
            #: The elements of each written array written by the program.
            self.written: Dict[str, Set] = {}
            for array, group in self.writers.items():
                written = group[0].defined
                for writer in group[1:]:
                    written = written.union(writer.defined)
                self.written[array] = written

    def written_set(self, array: str) -> Optional[Set]:
        """The elements of *array* written by the program (``None`` if it is never written)."""
        return self.written.get(array)


def statement_contexts(program: Program) -> List[StatementContext]:
    """Compute the :class:`StatementContext` of every assignment in *program*."""
    contexts: List[StatementContext] = []
    inputs = frozenset(program.input_arrays())
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
                        inputs,
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
