"""Element spaces and dependency mappings.

The access maps and defined sets of a statement are owned by its
:class:`~repro.analysis.domains.StatementContext`; this module builds the
paper's **dependency mappings** from them: relations from elements of the
defined array to the elements of an operand array read to compute them
(Section 3.2, e.g. ``M_buf,A2 = {[x] -> [y] : x = 2k-2 and y = k-1 and k in D}``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..presburger import Conjunct, Map
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
    Section 3.2 of the paper).  Each conjunct is written as rows over the
    columns ``x | y | i | domain divs | const``: one equality ``x_j - w_j(i) = 0``
    or ``y_j - r_j(i) = 0`` per subscript, then the rows of one domain conjunct
    (over ``i | divs | const``) lifted with zeros in the ``x | y`` columns.
    """
    iterators = context.iterators
    target = context.assignment.target
    in_names = element_dim_names(target.name, len(target.indices), prefix="x")
    out_names = element_dim_names(ref.name, len(ref.indices), prefix="y")
    n_public = len(in_names) + len(out_names)

    index_rows: List[Tuple[Tuple[int, ...], int]] = []
    for column, index_expr in enumerate(tuple(target.indices) + tuple(ref.indices)):
        unit = [0] * n_public
        unit[column] = 1
        *coefficients, constant = expr_to_affine(index_expr).to_vector(iterators)
        index_rows.append((tuple(unit) + tuple(-c for c in coefficients), -constant))

    lift = (0,) * n_public
    pieces: Optional[Map] = None
    for conjunct in context.domain.conjuncts:
        divs = (0,) * conjunct.n_div
        eqs = [row + divs + (constant,) for row, constant in index_rows]
        eqs += [lift + row for row in conjunct.eqs]
        ineqs = [lift + row for row in conjunct.ineqs]
        conjuncts = [Conjunct(n_public, len(iterators) + conjunct.n_div, eqs, ineqs)]
        piece = Map(in_names, out_names, conjuncts)
        pieces = piece if pieces is None else pieces.union(piece)
    if pieces is None:
        return Map.empty(in_names, out_names)
    return pieces
