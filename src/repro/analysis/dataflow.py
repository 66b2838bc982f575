"""Array data-flow checks: single assignment, coverage, and def-use order.

The verification scheme of Fig. 6 of the paper runs a *def-use checker* on
both programs before equivalence checking, because the sufficient condition
assumes the code is correctly scheduled ("all the reads for values follow
their writes").  This module implements that prerequisite with standard array
data-flow analysis on a program's :class:`~repro.analysis.domains.ProgramGeometry`,
reading the access maps, defined sets and written sets it owns:

* :func:`check_single_assignment` — every array element is written at most
  once (the dynamic single-assignment property of the program class);
* :func:`check_coverage` — every element read from a non-input array is
  written by some statement (no reads of undefined values);
* :func:`check_def_use_order` — every read happens after the write of the
  element it reads, under the sequential schedule of the program.  The
  classical per-level dependence test decides it: for each schedule level
  one emptiness test finds the conflicting instance pairs that agree on the
  earlier levels and have the read earlier at this one (plus the pairs that
  agree everywhere); levels whose two entries are constants are decided
  without a Presburger operation;
* :func:`check_dataflow` — all of the above, returning a list of issues.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from ..presburger import AffineConstraint, LinExpr, Map, eq_, lt_
from ..lang.ast import ArrayRef, array_reads
from .domains import ProgramGeometry, StatementContext

__all__ = [
    "check_single_assignment",
    "check_coverage",
    "check_def_use_order",
    "check_dataflow",
]


# --------------------------------------------------------------------------- #
# Single assignment
# --------------------------------------------------------------------------- #
def check_single_assignment(geometry: ProgramGeometry) -> List[str]:
    """Verify the dynamic single-assignment property at the element level."""
    issues: List[str] = []
    for array, writers in geometry.writers.items():
        for index, writer in enumerate(writers):
            if not writer.write_map.is_injective():
                issues.append(
                    f"statement {writer.label!r} writes some element of {array!r} "
                    "in more than one iteration (single-assignment violation)"
                )
            for other in writers[index + 1 :]:
                if not writer.defined.is_disjoint(other.defined):
                    issues.append(
                        f"statements {writer.label!r} and {other.label!r} both write "
                        f"some element of {array!r} (single-assignment violation)"
                    )
    return issues


# --------------------------------------------------------------------------- #
# Coverage (no reads of undefined elements)
# --------------------------------------------------------------------------- #
def check_coverage(geometry: ProgramGeometry) -> List[str]:
    """Verify that every read of a non-input array reads a written element."""
    issues: List[str] = []
    inputs = set(geometry.program.input_arrays())
    for context in geometry.contexts:
        for ref in array_reads(context.assignment.rhs):
            if ref.name in inputs:
                continue
            read_elements = context.read_map(ref).range()
            if read_elements.is_empty():
                continue
            available = geometry.written_set(ref.name)
            if available is None:
                issues.append(
                    f"statement {context.label!r} reads {ref.name!r} which is never written"
                )
                continue
            uncovered = read_elements.subtract(available.rename(read_elements.names))
            if not uncovered.is_empty():
                issues.append(
                    f"statement {context.label!r} reads undefined elements of {ref.name!r}: {uncovered}"
                )
    return issues


# --------------------------------------------------------------------------- #
# Def-use order
# --------------------------------------------------------------------------- #
def _timestamps(context: StatementContext, length: int, prefix: str) -> Tuple[LinExpr, ...]:
    """The statement's ``2d+1`` timestamp, zero-padded to *length* entries.

    Iterators are renamed to the positional dimension names ``prefix0``,
    ``prefix1``, ... of the side (writer or reader) of a conflict relation.
    """
    renaming = {it: f"{prefix}{index}" for index, it in enumerate(context.iterators)}
    padding = (LinExpr.constant(0),) * (length - len(context.schedule))
    return tuple(expr.rename(renaming) for expr in context.schedule) + padding


def _order_violation(conflict: Map, writer_time: Sequence[LinExpr], reader_time: Sequence[LinExpr]) -> Map:
    """The conflict pairs whose read does not execute strictly after the write.

    A pair violates the order iff the reader's timestamp is not
    lexicographically after the writer's, i.e. iff for some level ``p`` the
    timestamps agree on every level before ``p`` and the reader's entry at
    ``p`` is smaller, or they agree everywhere.  Each level contributes one
    single-conjunct piece intersected with *conflict*; a level whose entries
    are both constants is decided without a Presburger operation.

    *writer_time* and *reader_time* are :func:`_timestamps` of equal length
    over the conflict's positional dimensions ``w0, w1, ...`` (writer
    iteration) and ``r0, r1, ...`` (reader iteration).
    """
    in_names = tuple(f"w{index}" for index in range(conflict.n_in))
    out_names = tuple(f"r{index}" for index in range(conflict.n_out))

    def piece(constraints: List[AffineConstraint]) -> Map:
        if not constraints:
            return conflict
        return conflict.intersect(Map.build(in_names, out_names, constraints))

    found: List[Map] = []
    prefix: List[AffineConstraint] = []
    for write, read in zip(writer_time, reader_time):
        if write.is_constant() and read.is_constant():
            if write.const < read.const:
                break  # every pair agreeing so far is ordered at this level
            if write.const > read.const:
                found.append(piece(prefix))
                break
            continue
        found.append(piece(prefix + [lt_(read, write)]))
        prefix.append(eq_(write, read))
    else:
        found.append(piece(prefix))  # identical timestamps: the read is not after the write

    violation = Map.empty(conflict.in_names, conflict.out_names)
    for part in found:
        if not part.is_empty():
            violation = violation.union(part)
    return violation


def _order_violations(
    geometry: ProgramGeometry,
) -> Iterator[Tuple[StatementContext, ArrayRef, StatementContext, Map]]:
    """Yield ``(reader, ref, writer, violation)`` for every misordered pair.

    *violation* is the non-empty relation from writer iterations to reader
    iterations of *ref* that touch the same element without the read
    executing after the write.
    """
    contexts = geometry.contexts
    inputs = set(geometry.program.input_arrays())
    writers_by_array = geometry.writers

    length = max((len(c.schedule) for c in contexts), default=0)
    writer_times = {c: _timestamps(c, length, "w") for c in contexts}
    reader_times = {c: _timestamps(c, length, "r") for c in contexts}

    for reader in contexts:
        for ref in array_reads(reader.assignment.rhs):
            if ref.name in inputs or ref.name not in writers_by_array:
                continue
            read_inverse = reader.read_map(ref).inverse()
            for writer in writers_by_array[ref.name]:
                # conflict: writer iteration -> reader iteration touching the same element
                conflict = writer.write_map.compose(read_inverse)
                if conflict.is_empty():
                    continue
                violation = _order_violation(conflict, writer_times[writer], reader_times[reader])
                if not violation.is_empty():
                    yield reader, ref, writer, violation


def check_def_use_order(geometry: ProgramGeometry) -> List[str]:
    """Verify that every read of a written element executes after its write.

    For each (writer statement, reader reference) pair on the same array, the
    conflict relation ``{ i_w -> i_r : w(i_w) = r(i_r) }`` must be contained
    in the happens-before relation of the ``2d+1`` schedules: the reader's
    timestamp must be lexicographically after the writer's.  The test runs
    level by level over the zero-padded timestamps, one emptiness test per
    level (see :func:`_order_violation`); where both entries of a level are
    constants the level is decided without a Presburger operation.
    """
    return [
        f"statement {reader.label!r} reads elements of {ref.name!r} before "
        f"statement {writer.label!r} writes them (violating instances: {violation})"
        for reader, ref, writer, violation in _order_violations(geometry)
    ]


def check_dataflow(geometry: ProgramGeometry) -> List[str]:
    """Run all data-flow prerequisites of the verification scheme (Fig. 6)."""
    return (
        check_single_assignment(geometry)
        + check_coverage(geometry)
        + check_def_use_order(geometry)
    )
