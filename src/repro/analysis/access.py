"""Element spaces and dependency mappings.

The access maps and defined sets of a statement are owned by its
:class:`~repro.analysis.domains.StatementContext`; this module builds the
paper's **dependency mappings** from them: relations from elements of the
defined array to the elements of an operand array read to compute them
(Section 3.2, e.g. ``M_buf,A2 = {[x] -> [y] : x = 2k-2 and y = k-1 and k in D}``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..presburger import AffineConstraint, LinExpr, Map, eq_
from ..lang.ast import ArrayRef
from ..lang.affine import expr_to_affine

if TYPE_CHECKING:
    from .domains import StatementContext

__all__ = ["element_dim_names", "dependency_map"]


def element_dim_names(array: str, rank: int, prefix: str = "e") -> Tuple[str, ...]:
    """Canonical dimension names for the element space of an array."""
    return tuple(f"{prefix}{index}" for index in range(rank))


def dependency_map(context: StatementContext, ref: ArrayRef) -> Map:
    """The dependency mapping from defined elements to the elements read by *ref*.

    For the statement ``s`` with target access ``w(i)`` and the operand
    reference ``r(i)``, this is ``{ w(i) -> r(i) : i in D_s }``, built directly
    with the iteration vector as existential dimensions (the construction of
    Section 3.2 of the paper).
    """
    iterators = list(context.iterators)
    target = context.assignment.target
    in_names = element_dim_names(target.name, len(target.indices), prefix="x")
    out_names = element_dim_names(ref.name, len(ref.indices), prefix="y")

    used = set(in_names) | set(out_names)
    renaming = {}
    for iterator in iterators:
        fresh = iterator
        while fresh in used:
            fresh = f"{fresh}_it"
        renaming[iterator] = fresh
        used.add(fresh)

    constraints: List[AffineConstraint] = []
    for name, index_expr in zip(in_names, target.indices):
        affine = expr_to_affine(index_expr).rename(renaming)
        constraints.append(eq_(LinExpr.var(name), affine))
    for name, index_expr in zip(out_names, ref.indices):
        affine = expr_to_affine(index_expr).rename(renaming)
        constraints.append(eq_(LinExpr.var(name), affine))

    pieces: Optional[Map] = None
    for conjunct in context.domain.conjuncts:
        piece_constraints = list(constraints)
        exists = [renaming[i] for i in iterators]
        # Lower the domain conjunct into constraints over the renamed iterators.
        div_names = [f"__dom_div{i}" for i in range(conjunct.n_div)]
        exists = exists + div_names
        order = [renaming[i] for i in iterators] + div_names
        for eq in conjunct.eqs:
            expr = _vector_to_linexpr(eq, order)
            piece_constraints.append(AffineConstraint(expr, "=="))
        for ineq in conjunct.ineqs:
            expr = _vector_to_linexpr(ineq, order)
            piece_constraints.append(AffineConstraint(expr, ">="))
        piece = Map.build(in_names, out_names, piece_constraints, exists=exists)
        pieces = piece if pieces is None else pieces.union(piece)
    if pieces is None:
        return Map.empty(in_names, out_names)
    return pieces


def _vector_to_linexpr(vector: Sequence[int], order: Sequence[str]) -> LinExpr:
    coeffs = {name: coefficient for name, coefficient in zip(order, vector[:-1]) if coefficient}
    return LinExpr(coeffs, vector[-1])
