"""Brute-force integer-point oracle for the Presburger kernel tests.

The oracle answers "which integer points does this conjunct contain?" by
plain enumeration.  It reads nothing but a conjunct's ``n_vars``, ``n_div``,
``eqs`` and ``ineqs`` (rows laid out as ``[public | existential | constant]``
with ``row . (x, e, 1) == 0`` / ``>= 0``) and imports no code from
:mod:`repro.presburger.omega`, :mod:`repro.presburger.kernel` or
:mod:`repro.presburger.setmap`, so it is an independent reference for the
algorithms in those modules.

* The *shown* public columns are enumerated over a fixed box.
* Every other column (the existentials, plus any public column the caller
  hides to model a projection) is decided by bounded enumeration.  Its
  bounds come from rows in which every other column is already bounded on
  the side the row needs, by interval arithmetic; the bounding repeats
  until no bound changes.  Bounds derived this way are necessary
  conditions, so enumerating them is exact.
* A column that stays unbounded makes the oracle raise :class:`Abstain`.
  So does a search space above :data:`BUDGET`.  The oracle never guesses.
"""

from __future__ import annotations

from itertools import product
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

#: The default box enumerated for every shown public column.
BOX = range(-3, 21)

#: Upper limit on the existential assignments tried for one public point.
BUDGET = 200_000

Point = Tuple[int, ...]


class Abstain(Exception):
    """The oracle cannot decide: a hidden column is unbounded or too wide."""


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _rows(conjunct) -> List[Tuple[int, ...]]:
    """Every constraint as a ``>= 0`` row (an equality gives two)."""
    rows = [tuple(v) for v in conjunct.ineqs]
    for v in conjunct.eqs:
        rows.append(tuple(v))
        rows.append(tuple(-x for x in v))
    return rows


def _bound(rows: Sequence[Tuple[int, ...]], width: int) -> List[Tuple[int, int]]:
    """Interval bounds for each of *width* columns of the reduced *rows*.

    Each row is ``coeffs (width) + (constant,)`` meaning ``coeffs . y + c >= 0``.
    Raises :class:`Abstain` when some column stays unbounded.
    """
    # A column no row mentions can take any value: pin it to zero.
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
        raise Abstain("a hidden column stays unbounded")
    return list(zip(lo, hi))


def _exists(rows: Sequence[Tuple[int, ...]], width: int) -> bool:
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
        raise Abstain(f"{size} hidden assignments exceed the budget")
    ranges = [range(low, high + 1) for low, high in bounds]
    for values in product(*ranges):
        if all(
            sum(c * y for c, y in zip(row, values)) + row[-1] >= 0 for row in rows
        ):
            return True
    return False


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


def feasible(conjunct) -> bool:
    """Whether *conjunct* has an integer point anywhere.

    A point found in the box is a witness.  Otherwise every column is
    hidden and decided by bounded enumeration (abstaining when unbounded).
    """
    if points(conjunct):
        return True
    return bool(points(conjunct, hidden=range(conjunct.n_vars)))


def by_predicate(predicate, arity: int, box: range = BOX) -> FrozenSet[Point]:
    """The box points satisfying a plain Python predicate (self-test helper)."""
    return frozenset(p for p in product(box, repeat=arity) if predicate(*p))

