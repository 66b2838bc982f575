"""Brute-force enumeration: the independent crosscheck partner of the omega core.

:class:`EnumBackend` answers the five decision queries over all integers
by plain enumeration.  It reads nothing but a conjunct's ``n_vars``,
``n_div``, ``eqs`` and ``ineqs`` (rows laid out as
``[public | existential | constant]`` with ``row . (x, e, 1) == 0`` /
``>= 0``) and imports no code from :mod:`repro.presburger.omega`,
:mod:`repro.presburger.kernel` or :mod:`repro.presburger.setmap`, so it
shares no decision procedure with the backend it checks.

* Every column of a conjunct is bounded by interval propagation over that
  conjunct's own rows: a row bounds a column once every other column it
  mentions is bounded on the side the row needs, and the bounding repeats
  until no bound changes.  Bounds derived this way are necessary
  conditions, so enumerating them is exact.
* The public columns are then enumerated column by column; rows that
  mention only already-fixed public columns narrow the next column's range
  directly.  The existential columns are decided per public point by
  bounded enumeration.
* A column that stays unbounded raises :class:`~repro.solvers.base.Abstain`,
  and so does a search above :data:`BUDGET` points.  An existence question
  (feasibility, disjointness) first looks for a witness in :data:`BOX`
  before abstaining.  The backend never guesses.

:func:`points` and :func:`union_points` are the box view the kernel and
emission tests compare point sets with: the public columns over a fixed
box, the rest decided exactly.
"""

from __future__ import annotations

from itertools import product
from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .base import Abstain, SolverBackend

__all__ = ["Abstain", "BOX", "BUDGET", "EnumBackend", "feasible", "points", "union_points"]

#: The box :func:`points` enumerates for every shown public column, and where
#: an existence question looks for a witness before abstaining.
BOX = range(-3, 21)

#: Upper limit on the points (or existential assignments) one search visits.
BUDGET = 200_000

Point = Tuple[int, ...]
Row = Tuple[int, ...]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _rows(conjunct) -> List[Row]:
    """Every constraint as a ``>= 0`` row (an equality gives two)."""
    rows = [tuple(v) for v in conjunct.ineqs]
    for v in conjunct.eqs:
        rows.append(tuple(v))
        rows.append(tuple(-x for x in v))
    return rows


def _bound(rows: Sequence[Row], width: int) -> List[Tuple[int, int]]:
    """Interval bounds for each of *width* columns of *rows*.

    Each row is ``coeffs (width) + (constant,)`` meaning ``coeffs . y + c >= 0``.
    A column no row mentions can take any value, so it is pinned to zero
    (sound for existence questions only).  Raises :class:`Abstain` when
    some column stays unbounded.
    """
    unused = [all(row[col] == 0 for row in rows) for col in range(width)]
    lo: List[Optional[int]] = [0 if u else None for u in unused]
    hi: List[Optional[int]] = list(lo)
    for _ in range(4 * width + 4):
        changed = False
        for row in rows:
            for col in range(width):
                a = row[col]
                if a == 0:
                    continue
                # The largest value the rest of the row can take.
                rest = row[-1]
                for other in range(width):
                    b = row[other]
                    if other == col or b == 0:
                        continue
                    side = hi[other] if b > 0 else lo[other]
                    if side is None:
                        break
                    rest += b * side
                else:
                    # a * y + rest >= 0 for the actual rest <= this maximum.
                    if a > 0:
                        new = _ceil_div(-rest, a)
                        if lo[col] is None or new > lo[col]:
                            lo[col] = new
                            changed = True
                    else:
                        new = rest // -a
                        if hi[col] is None or new < hi[col]:
                            hi[col] = new
                            changed = True
        if not changed:
            break
    if any(low is None for low in lo) or any(high is None for high in hi):
        raise Abstain("a column stays unbounded")
    return list(zip(lo, hi))


def _exists(rows: Sequence[Row], width: int) -> bool:
    """Whether some integer ``y`` of *width* columns satisfies every row."""
    if width == 0:
        return all(row[-1] >= 0 for row in rows)
    bounds = _bound(rows, width)
    size = 1
    for low, high in bounds:
        if low > high:
            return False
        size *= high - low + 1
    if size > BUDGET:
        raise Abstain(f"{size} assignments exceed the budget")
    ranges = [range(low, high + 1) for low, high in bounds]
    for values in product(*ranges):
        if all(sum(c * y for c, y in zip(row, values)) + row[-1] >= 0 for row in rows):
            return True
    return False


def _plug(row: Row, n: int, point: Sequence[int]) -> Row:
    """*row* with its first *n* columns fixed to *point*."""
    return row[n:-1] + (row[-1] + sum(c * x for c, x in zip(row, point)),)


def _solutions(rows: Sequence[Row], n: int, d: int) -> Iterator[Point]:
    """The distinct public points (first *n* columns) of a system of *rows*
    over ``n + d`` columns, the last *d* existential."""
    bounds = _bound(rows, n + d)
    if any(low > high for low, high in bounds):
        return
    # Rows on public columns only narrow the range of the last column they
    # mention once the columns before it are fixed; the others are checked
    # per public point.
    by_last: List[List[Row]] = [[] for _ in range(n)]
    mixed: List[Row] = []
    for row in rows:
        mentioned = [col for col in range(n + d) if row[col]]
        if not mentioned:
            if row[-1] < 0:
                return
        elif mentioned[-1] >= n:
            mixed.append(row)
        else:
            by_last[mentioned[-1]].append(row)
    point = [0] * n
    visited = 0

    def extend(depth: int) -> Iterator[Point]:
        nonlocal visited
        if depth == n:
            if not mixed or _exists([_plug(row, n, point) for row in mixed], d):
                yield tuple(point)
            return
        low, high = bounds[depth]
        for row in by_last[depth]:
            a = row[depth]
            rest = row[-1] + sum(c * x for c, x in zip(row[:depth], point))
            if a > 0:
                low = max(low, _ceil_div(-rest, a))
            else:
                high = min(high, rest // -a)
        for value in range(low, high + 1):
            visited += 1
            if visited > BUDGET:
                raise Abstain(f"more than {BUDGET} points to enumerate")
            point[depth] = value
            yield from extend(depth + 1)

    yield from extend(0)


def _any_solution(rows: Sequence[Row], n: int, d: int) -> bool:
    """Whether the system of :func:`_solutions` has a point.

    When the bounded search abstains, a point of the :data:`BOX` is still a
    witness; only a search that finds none there abstains.
    """
    try:
        for _ in _solutions(rows, n, d):
            return True
        return False
    except Abstain:
        if len(BOX) ** n > BUDGET:
            raise
        for point in product(BOX, repeat=n):
            if _exists([_plug(row, n, point) for row in rows], d):
                return True
        raise


def feasible(conjunct) -> bool:
    """Whether *conjunct* has an integer point anywhere."""
    return _any_solution(_rows(conjunct), conjunct.n_vars, conjunct.n_div)


def _subset(a: Sequence, b: Sequence) -> bool:
    right = [(_rows(conjunct), conjunct.n_div) for conjunct in b]
    for left in a:
        n = left.n_vars
        rows = _rows(left)
        # A public column *left* leaves free makes it infinite; it can be
        # pinned only when no conjunct of *b* depends on it either.
        free = [col for col in range(n) if all(row[col] == 0 for row in rows)]
        if any(row[col] for right_rows, _ in right for row in right_rows for col in free):
            raise Abstain("an unconstrained column of a subset query")
        for point in _solutions(rows, n, left.n_div):
            if not any(
                _exists([_plug(row, n, point) for row in right_rows], d) for right_rows, d in right
            ):
                return False
    return True


def _intersects(left, right) -> bool:
    """Whether two conjuncts over the same public columns share a point."""
    n, dl, dr = left.n_vars, left.n_div, right.n_div
    rows = [row[:-1] + (0,) * dr + row[-1:] for row in _rows(left)]
    rows += [row[:n] + (0,) * dl + row[n:] for row in _rows(right)]
    return _any_solution(rows, n, dl + dr)


class EnumBackend(SolverBackend):
    """Decide queries by enumerating bounded integer points; abstain otherwise."""

    name = "enum"

    def is_feasible(self, conjunct) -> bool:
        self._count("is_feasible")
        return feasible(conjunct)

    def is_subset(self, a: Sequence, b: Sequence) -> bool:
        self._count("is_subset")
        return _subset(a, b)

    def is_equal(self, a: Sequence, b: Sequence) -> bool:
        self._count("is_equal")
        return _subset(a, b) and _subset(b, a)

    def is_disjoint(self, a: Sequence, b: Sequence) -> bool:
        self._count("is_disjoint")
        return not any(_intersects(left, right) for left in a for right in b)

    def sample_point(self, set_like, seed: int = 0, limit: int = 4096) -> Point:
        """The first enumerated point (deterministic; *seed*/*limit* unused)."""
        self._count("sample_point")
        for conjunct in set_like.conjuncts:
            for point in _solutions(_rows(conjunct), conjunct.n_vars, conjunct.n_div):
                return point
        raise ValueError("cannot sample a point from an empty set")


# --------------------------------------------------------------------------- #
# The box view (tests)
# --------------------------------------------------------------------------- #
def points(conjunct, box: range = BOX, hidden: Iterable[int] = ()) -> FrozenSet[Point]:
    """The points of *conjunct* in ``box ** k`` over its shown public columns.

    *hidden* names public columns to treat as existential, which makes the
    result the projection of the conjunct onto the remaining public columns.
    """
    hidden = set(hidden)
    n_cols = conjunct.n_vars + conjunct.n_div
    shown = [c for c in range(conjunct.n_vars) if c not in hidden]
    free = [c for c in range(n_cols) if c not in shown]
    rows = _rows(conjunct)
    found = set()
    for point in product(box, repeat=len(shown)):
        reduced = []
        for row in rows:
            constant = row[-1] + sum(row[c] * x for c, x in zip(shown, point))
            reduced.append(tuple(row[c] for c in free) + (constant,))
        if _exists(reduced, len(free)):
            found.add(point)
    return frozenset(found)


def union_points(conjuncts, box: range = BOX) -> FrozenSet[Point]:
    """The points in the box of a union of conjuncts (a ``Set``'s list)."""
    found: FrozenSet[Point] = frozenset()
    for conjunct in conjuncts:
        found |= points(conjunct, box)
    return found
