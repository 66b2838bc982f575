"""Integer sets and maps (tuple relations) — the user-facing Presburger API.

:class:`Set` and :class:`Map` are finite unions of
:class:`~repro.presburger.conjunct.Conjunct` values over named dimensions.
They provide the operations the equivalence checker needs from the OMEGA
calculator: intersection, union, subtraction, composition (natural join of
relations), domain/range, inverse, emptiness, equality and subset tests,
restriction, and point enumeration for bounded sets.

All operations are exact over the integers.  Dimension *names* are cosmetic
(used for parsing and pretty-printing); all binary operations match
dimensions positionally and only require equal arities.  The union algebra
the two classes have in common is written once, as functions both class
bodies bind by name.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .conjunct import Conjunct, Vector
from .constraints import AffineConstraint
from .errors import SpaceMismatchError, UnboundedSetError, UnsupportedOperationError
from .linexpr import LinExpr
from . import hooks as _hooks
from . import omega
from . import opcache as _opcache

__all__ = ["Set", "Map"]


# --------------------------------------------------------------------------- #
# Helpers shared by Set and Map
# --------------------------------------------------------------------------- #
def _cached_simplify(conjunct: Conjunct) -> Optional[Conjunct]:
    """Memoized :func:`repro.presburger.omega.simplify` over interned results."""
    return _opcache.memoized(
        "simplify",
        conjunct,
        lambda: _intern_optional(omega.simplify(conjunct)),
    )


def _intern_optional(conjunct: Optional[Conjunct]) -> Optional[Conjunct]:
    return None if conjunct is None else _opcache.intern_conjunct(conjunct)


def _cached_feasible(conjunct: Conjunct) -> bool:
    """Memoized :func:`repro.presburger.omega.is_feasible`."""
    return _opcache.memoized("feasible", conjunct, lambda: omega.is_feasible(conjunct))


def _clean(conjuncts: Iterable[Conjunct]) -> Tuple[Conjunct, ...]:
    """Simplify, drop infeasible conjuncts and deduplicate syntactically.

    Every conjunct that makes it into a :class:`Set` or :class:`Map` passes
    through here, which makes it the natural interning choke point: the
    surviving conjuncts are canonical (hash-consed) instances, so the
    dedup below and all later equality / cache-key computations are cheap.
    Feasibility is memoized per conjunct, like simplification.
    """
    seen = {}
    for conjunct in conjuncts:
        simplified = _cached_simplify(conjunct)
        if simplified is None or not _cached_feasible(simplified):
            continue
        seen.setdefault(simplified.normalized_key(), simplified)
    return tuple(seen.values())


def _union_intersect(a: Sequence[Conjunct], b: Sequence[Conjunct]) -> Tuple[Conjunct, ...]:
    """Pairwise conjunct intersection of two unions (memoized).

    Backs ``intersect`` and ``is_disjoint`` on both :class:`Set` and
    :class:`Map`; dimension names never enter the computation, so the cache
    key is just the two conjunct tuples.
    """
    return _opcache.memoized(
        "ui",
        (tuple(a), tuple(b)),
        lambda: _clean(omega.conjunct_intersect(left, right) for left in a for right in b),
    )


def _union_subtract(a: Sequence[Conjunct], b: Sequence[Conjunct]) -> Tuple[Conjunct, ...]:
    """Subtraction of unions of conjuncts (memoized).

    Backs ``subtract`` (and so ``complement``) on both :class:`Set` and
    :class:`Map`; the yes/no containment tests use :func:`_union_is_subset`,
    which never builds the difference.
    """
    return _opcache.memoized("us", (tuple(a), tuple(b)), lambda: _union_subtract_uncached(a, b))


def _union_is_subset(a: Sequence[Conjunct], b: Sequence[Conjunct]) -> bool:
    """Whether union *a* lies inside union *b*, i.e. ``a - b`` is empty (memoized).

    Backs ``is_subset`` and therefore ``is_equal`` on both :class:`Set` and
    :class:`Map` — the checker's equality tests and the inductive-assumption
    test of recurrences.  The difference is never built: see
    :func:`_union_is_subset_uncached`.
    """
    return _opcache.memoized("subset", (tuple(a), tuple(b)), lambda: _union_is_subset_uncached(a, b))


def _project(conjuncts: Tuple[Conjunct, ...], cols: Tuple[int, ...]) -> Tuple[Conjunct, ...]:
    """Existential projection of the columns *cols* out of a union (memoized).

    Backs ``Set.project_out`` (and through it ``Map.domain``/``range``,
    ``apply`` and ``preimage``); dimension names never enter the
    computation, so the key is the columns and the conjunct tuple.
    """
    return _opcache.memoized(
        "project",
        (cols, conjuncts),
        lambda: _clean(
            piece for conjunct in conjuncts for piece in omega.project_cols(conjunct, cols)
        ),
    )


def _restrict(relation: "Map", set_conjuncts: Tuple[Conjunct, ...], at_input: bool) -> Tuple[Conjunct, ...]:
    """Restriction of a map's input (*at_input*) or output tuple to a set (memoized).

    Backs ``Map.restrict_domain``/``restrict_range``; the key carries the
    in/out split and the side, but no dimension names.
    """

    def compute() -> Tuple[Conjunct, ...]:
        lifted = [relation._lift_set_conjunct(c, at_input=at_input) for c in set_conjuncts]
        return _clean(
            omega.conjunct_intersect(map_conjunct, set_conjunct)
            for map_conjunct in relation.conjuncts
            for set_conjunct in lifted
        )

    return _opcache.memoized(
        "restrict",
        (relation.n_in, relation.n_out, at_input, relation.conjuncts, set_conjuncts),
        compute,
    )


def _unshared(a: Sequence[Conjunct], b: Sequence[Conjunct]) -> List[Conjunct]:
    """The conjuncts of *a* that do not also occur in *b*.

    A conjunct of *a* equal to one of *b* (``==`` compares the normalized
    constraint system) contributes nothing to ``a - b``: every piece it
    leaves after the earlier conjuncts of *b* lies inside it, and so dies
    against its own negation.
    """
    shared = set(b)
    return [piece for piece in a if piece not in shared]


def _subtract_each(pieces: List[Conjunct], b: Sequence[Conjunct]) -> List[Conjunct]:
    """*pieces* minus each conjunct of *b* in turn, cleaned after every step."""
    for other in b:
        if not pieces:
            break
        negations = omega.complement(other)
        pieces = list(
            _clean(
                omega.conjunct_intersect(piece, negation)
                for piece in pieces
                for negation in negations
            )
        )
    return pieces


def _union_subtract_uncached(a: Sequence[Conjunct], b: Sequence[Conjunct]) -> Tuple[Conjunct, ...]:
    return tuple(_subtract_each(_unshared(a, b), b))


def _union_is_subset_uncached(a: Sequence[Conjunct], b: Sequence[Conjunct]) -> bool:
    """Decide ``a - b`` empty, stopping at the first witness piece.

    Conjuncts shared by *a* and *b* are dropped, every conjunct of *b* but
    the last is subtracted as in :func:`_union_subtract_uncached`, and the
    last one is only asked whether some ``piece and negation`` is feasible,
    with no simplification or cleaning of those final pieces.  The
    negations are tried in reverse :func:`omega.complement` order —
    divisibility and equality negations before inequality ones — because a
    containment that fails usually fails on a pinned coordinate.
    """
    pieces = _unshared(a, b)
    if not b:
        return not any(omega.is_feasible(piece) for piece in pieces)
    pieces = _subtract_each(pieces, b[:-1])
    if not pieces:
        return True
    return not any(
        omega.is_feasible(omega.conjunct_intersect(piece, negation))
        for negation in reversed(omega.complement(b[-1]))
        for piece in pieces
    )


#: How far a 1-D feasibility scan may walk above the rational lower bound
#: before giving up (divisibility constraints can shift the first integer
#: solution above the bound, but only by a bounded amount; this cap turns a
#: pathological gap into a loud error instead of a hang).
_LEXMIN_SCAN_LIMIT = 4096


def _bounds_1d(conjunct: Conjunct) -> Tuple[Optional[int], Optional[int]]:
    """Integer bounds ``(lower, upper)`` on column 0 read off *conjunct*'s rows.

    Only column 0 and the constant of each row are read, so every other
    column must already be eliminated (e.g. by a real shadow); ``None``
    marks a side no row bounds.
    """
    lower: Optional[int] = None
    upper: Optional[int] = None
    rows = conjunct.ineqs + conjunct.eqs + tuple(tuple(-x for x in eq) for eq in conjunct.eqs)
    for vec in rows:
        coefficient, constant = vec[0], vec[-1]
        if coefficient > 0:
            # a*x + c >= 0  =>  x >= ceil(-c/a)
            bound = (-constant + coefficient - 1) // coefficient
            lower = bound if lower is None else max(lower, bound)
        elif coefficient < 0:
            # a*x + c >= 0, a < 0  =>  x <= floor(c/-a)
            bound = constant // (-coefficient)
            upper = bound if upper is None else min(upper, bound)
    return lower, upper


def _min_value_1d(pieces: Sequence[Conjunct]) -> Optional[int]:
    """The smallest integer of a union of 1-public-dimension conjuncts.

    Returns ``None`` when every piece is infeasible.  Raises
    :class:`UnboundedSetError` when a feasible piece has no finite lower
    bound and :class:`UnsupportedOperationError` when the scan above the
    rational bound exceeds :data:`_LEXMIN_SCAN_LIMIT` candidates.
    """
    best: Optional[int] = None
    for piece in pieces:
        normalized = omega.normalize(piece)
        if normalized is None:
            continue
        # Bound the public dimension by rationally eliminating the divs.
        div_cols = list(range(normalized.n_vars, normalized.const_col))
        shadow = omega.real_shadow_eliminate(normalized, div_cols) if div_cols else normalized
        lower, upper = _bounds_1d(shadow)
        if lower is None:
            if omega.is_feasible(normalized):
                raise UnboundedSetError("set is unbounded below; lexmin does not exist")
            continue
        # The scan is capped even below a finite upper bound: a huge
        # divisibility gap must fail loudly, not degrade into an O(gap)
        # feasibility sweep.
        scan_end = lower + _LEXMIN_SCAN_LIMIT
        exhaustive = upper is not None and upper <= scan_end
        if exhaustive:
            scan_end = upper
        found: Optional[int] = None
        pruned = False
        for value in range(lower, scan_end + 1):
            if best is not None and value >= best:
                pruned = True  # cannot improve on another piece's minimum
                break
            if omega.is_feasible(normalized.substitute_vars([value])):
                found = value
                break
        if found is not None:
            if best is None or found < best:
                best = found
            continue
        if pruned or exhaustive:
            continue  # piece cannot contribute / was scanned completely
        if omega.is_feasible(normalized):
            raise UnsupportedOperationError(
                f"lexmin scan exceeded {_LEXMIN_SCAN_LIMIT} candidates above the rational bound"
            )
    return best


def _lexmin_conjunct(conjunct: Conjunct) -> Optional[Tuple[int, ...]]:
    """The lexicographically smallest integer point of one conjunct (or ``None``)."""
    if conjunct.n_vars == 0:
        return () if omega.is_feasible(conjunct) else None
    projected = omega.project_cols(conjunct, list(range(1, conjunct.n_vars)))
    value = _min_value_1d(projected)
    if value is None:
        return None
    fix = (1,) + (0,) * (conjunct.n_vars - 1 + conjunct.n_div) + (-value,)
    rest = _lexmin_union(omega.eliminate_col(conjunct.with_constraints(eqs=[fix]), 0))
    if rest is None:  # cannot happen: *value* came from the exact projection
        return None
    return (value,) + rest


def _lexmin_union(pieces: Sequence[Conjunct]) -> Optional[Tuple[int, ...]]:
    best: Optional[Tuple[int, ...]] = None
    for piece in pieces:
        point = _lexmin_conjunct(piece)
        if point is not None and (best is None or point < best):
            best = point
    return best


def _lower_constraints(
    constraints: Iterable[AffineConstraint],
    public_names: Sequence[str],
    exist_names: Sequence[str],
) -> Conjunct:
    order = list(public_names) + list(exist_names)
    if len(set(order)) != len(order):
        raise SpaceMismatchError(f"duplicate dimension names in {order!r}")
    eqs: List[Vector] = []
    ineqs: List[Vector] = []
    for constraint in constraints:
        vector = constraint.expr.to_vector(order)
        if constraint.is_equality:
            eqs.append(vector)
        else:
            ineqs.append(vector)
    return Conjunct(len(public_names), len(exist_names), eqs, ineqs)


def _render_affine(names: Sequence[str], coeffs: Sequence[int], const: int) -> str:
    expr = LinExpr({name: coefficient for name, coefficient in zip(names, coeffs)}, const)
    return str(expr)


def _render_body(names: Sequence[str], n_div: int, eqs: Iterable[Vector], ineqs: Iterable[Vector]) -> str:
    """The rows as ``... = 0 and ... >= 0``, each kind sorted by its vector.

    Sorting makes the text a function of the row set: an interned conjunct
    keeps the row order of the first instance built with its key, which
    depends on what the process computed before.
    """
    all_names = list(names) + [f"e{i}" for i in range(n_div)]
    parts = [f"{_render_affine(all_names, vec[:-1], vec[-1])} = 0" for vec in sorted(eqs)]
    parts += [f"{_render_affine(all_names, vec[:-1], vec[-1])} >= 0" for vec in sorted(ineqs)]
    return " and ".join(parts) if parts else "true"


# --------------------------------------------------------------------------- #
# The union algebra shared by Set and Map
# --------------------------------------------------------------------------- #
# A Set and a Map are both a union of conjuncts over a space: ``_space()`` is
# ``(names,)`` for a Set and ``(in_names, out_names)`` for a Map, and binary
# operations match dimensions positionally.  The functions below are that
# algebra, written once over ``relation.conjuncts``; each class body binds
# them by name (``intersect = _intersect``), so they are ordinary entries of
# ``vars(Set)``/``vars(Map)`` and take ``self`` like any method.
def _init_conjuncts(self, conjuncts: Iterable[Conjunct], clean: bool) -> None:
    conjuncts = tuple(conjuncts)
    width = sum(map(len, self._space()))
    for conjunct in conjuncts:
        if conjunct.n_vars != width:
            raise SpaceMismatchError(
                f"conjunct has {conjunct.n_vars} dims, {type(self).__name__.lower()} has {width}"
            )
    self.conjuncts = _clean(conjuncts) if clean else conjuncts


def _with_conjuncts(self, conjuncts: Tuple[Conjunct, ...]):
    """A relation over *self*'s space holding the already clean *conjuncts*."""
    return type(self)(*self._space(), conjuncts, _clean_input=False)


def _require_compatible(self, other) -> None:
    kind = type(self).__name__
    if not isinstance(other, type(self)):
        raise TypeError(f"expected {kind}, got {type(other).__name__}")
    mine, theirs = list(map(len, self._space())), list(map(len, other._space()))
    if mine != theirs:
        raise SpaceMismatchError(
            f"{kind.lower()} arities differ: {'->'.join(map(str, mine))} vs {'->'.join(map(str, theirs))}"
        )


def _holds_at(self, values: List[int]) -> bool:
    """Whether the point *values* (all public dimensions) lies in *self*."""
    backend = _hooks.active_backend()
    feasible = omega.is_feasible if backend is None else backend.is_feasible
    return any(feasible(conjunct.substitute_vars(values)) for conjunct in self.conjuncts)


def _is_empty(self) -> bool:
    return not self.conjuncts


def _intersect(self, other):
    _require_compatible(self, other)
    return _with_conjuncts(self, _union_intersect(self.conjuncts, other.conjuncts))


def _union(self, other):
    _require_compatible(self, other)
    return _with_conjuncts(self, _clean(self.conjuncts + other.conjuncts))


def _subtract(self, other):
    _require_compatible(self, other)
    return _with_conjuncts(self, _union_subtract(self.conjuncts, other.conjuncts))


def _is_subset(self, other) -> bool:
    _require_compatible(self, other)
    backend = _hooks.active_backend()
    if backend is not None:
        return backend.is_subset(self.conjuncts, other.conjuncts)
    return _union_is_subset(self.conjuncts, other.conjuncts)


def _is_equal(self, other) -> bool:
    backend = _hooks.active_backend()
    if backend is not None:
        _require_compatible(self, other)
        return backend.is_equal(self.conjuncts, other.conjuncts)
    return self.is_subset(other) and other.is_subset(self)


def _is_disjoint(self, other) -> bool:
    _require_compatible(self, other)
    backend = _hooks.active_backend()
    if backend is not None:
        return backend.is_disjoint(self.conjuncts, other.conjuncts)
    return not _union_intersect(self.conjuncts, other.conjuncts)


def _and(self, other):
    return self.intersect(other)


def _or(self, other):
    return self.union(other)


def _sub(self, other):
    return self.subtract(other)


def _eq(self, other: object) -> bool:
    if not isinstance(other, type(self)):
        return NotImplemented
    return self.is_equal(other)


def _hash(self) -> int:  # relations are immutable; hash on the syntactic form
    return hash(self._space() + (tuple(sorted(c.normalized_key() for c in self.conjuncts)),))


def _bool(self) -> bool:
    return not self.is_empty()


# --------------------------------------------------------------------------- #
# Set
# --------------------------------------------------------------------------- #
class Set:
    """A union of conjuncts over a tuple of named integer dimensions."""

    __slots__ = ("names", "conjuncts")

    def __init__(self, names: Sequence[str], conjuncts: Iterable[Conjunct] = (), *, _clean_input: bool = True):
        self.names: Tuple[str, ...] = tuple(names)
        _init_conjuncts(self, conjuncts, _clean_input)

    def _space(self) -> Tuple[Tuple[str, ...]]:
        return (self.names,)

    # -------------------------- constructors -------------------------- #
    @staticmethod
    def universe(names: Sequence[str]) -> "Set":
        return Set(names, [Conjunct.universe(len(tuple(names)))], _clean_input=False)

    @staticmethod
    def empty(names: Sequence[str]) -> "Set":
        return Set(names, [], _clean_input=False)

    @staticmethod
    def build(
        names: Sequence[str],
        constraints: Iterable[AffineConstraint] = (),
        exists: Sequence[str] = (),
    ) -> "Set":
        """Build a single-conjunct set from symbolic affine constraints."""
        conjunct = _lower_constraints(constraints, tuple(names), tuple(exists))
        return Set(names, [conjunct])

    @staticmethod
    def from_points(names: Sequence[str], points: Iterable[Sequence[int]]) -> "Set":
        """The finite set containing exactly the given integer points."""
        names = tuple(names)
        conjuncts = []
        for point in points:
            if len(point) != len(names):
                raise SpaceMismatchError("point arity does not match set arity")
            eqs = []
            for index, value in enumerate(point):
                vector = [0] * (len(names) + 1)
                vector[index] = 1
                vector[-1] = -int(value)
                eqs.append(tuple(vector))
            conjuncts.append(Conjunct(len(names), 0, eqs, []))
        return Set(names, conjuncts)

    # ---------------------------- queries ----------------------------- #
    @property
    def arity(self) -> int:
        return len(self.names)

    is_empty = _is_empty

    def is_universe(self) -> bool:
        return any(c.is_universe() for c in self.conjuncts)

    def contains(self, point: Sequence[int]) -> bool:
        """Membership test for a concrete integer point."""
        if len(point) != self.arity:
            raise SpaceMismatchError("point arity does not match set arity")
        return _holds_at(self, [int(x) for x in point])

    # --------------------------- operations --------------------------- #
    intersect = _intersect
    union = _union
    subtract = _subtract
    is_subset = _is_subset
    is_equal = _is_equal
    is_disjoint = _is_disjoint

    def complement(self) -> "Set":
        return Set.universe(self.names).subtract(self)

    def project_out(self, names: Sequence[str]) -> "Set":
        """Existentially project away the named dimensions (memoized)."""
        names = list(names)
        for name in names:
            if name not in self.names:
                raise SpaceMismatchError(f"dimension {name!r} not in set {self.names!r}")
        cols = tuple(self.names.index(name) for name in names)
        remaining = tuple(n for n in self.names if n not in names)
        return Set(remaining, _project(self.conjuncts, cols), _clean_input=False)

    def rename(self, names: Sequence[str]) -> "Set":
        names = tuple(names)
        if len(names) != self.arity:
            raise SpaceMismatchError("renaming must preserve arity")
        return Set(names, self.conjuncts, _clean_input=False)

    # ------------------------ point enumeration ----------------------- #
    def dim_bounds(self, name: str) -> Tuple[int, int]:
        """Valid integer bounds ``(low, high)`` of dimension *name*.

        The bounds enclose the dimension's values (they are derived from the
        rational relaxation, so they may not be tight, but every point of the
        set lies within them).  Raises :class:`UnboundedSetError` if no finite
        bound exists and :class:`SpaceMismatchError` for unknown dimensions.
        """
        if name not in self.names:
            raise SpaceMismatchError(f"dimension {name!r} not in set {self.names!r}")
        if self.is_empty():
            raise UnboundedSetError("cannot bound a dimension of an empty set")
        target = self.names.index(name)
        lower: Optional[int] = None
        upper: Optional[int] = None
        for conjunct in self.conjuncts:
            other_cols = [c for c in range(conjunct.const_col) if c != target]
            conj_lower, conj_upper = _bounds_1d(omega.real_shadow_eliminate(conjunct, other_cols))
            if conj_lower is None or conj_upper is None:
                raise UnboundedSetError(f"dimension {name!r} is unbounded")
            lower = conj_lower if lower is None else min(lower, conj_lower)
            upper = conj_upper if upper is None else max(upper, conj_upper)

        if lower is None or upper is None:
            raise UnboundedSetError(f"dimension {name!r} is unbounded")
        return lower, upper

    def points(self, limit: int = 1_000_000) -> Iterator[Tuple[int, ...]]:
        """Iterate over all integer points of a bounded set.

        Raises :class:`UnboundedSetError` when a dimension is unbounded and a
        :class:`ValueError` when the bounding box exceeds *limit* candidates.
        """
        if self.is_empty():
            return iter(())
        ranges = []
        box = 1
        for name in self.names:
            low, high = self.dim_bounds(name)
            ranges.append(range(low, high + 1))
            box *= len(ranges[-1])
            if box > limit:
                raise ValueError(f"bounding box exceeds {limit} candidate points")

        def generator() -> Iterator[Tuple[int, ...]]:
            if not ranges:
                # Zero-dimensional set: the single (empty) point is present iff
                # the set is non-empty, which we already know.
                yield ()
                return
            for candidate in itertools.product(*ranges):
                if self.contains(candidate):
                    yield candidate

        return generator()

    def count(self, limit: int = 1_000_000) -> int:
        """The number of integer points of a bounded set."""
        return sum(1 for _ in self.points(limit))

    def lexmin(self) -> Tuple[int, ...]:
        """The lexicographically smallest integer point of the set (memoized).

        Works on unbounded-above sets (only finite *lower* bounds are
        required).  Raises :class:`ValueError` for an empty set and
        :class:`UnboundedSetError` when some prefix of the lexicographic
        order is unbounded below, so no minimum exists.
        """
        if self.is_empty():
            raise ValueError("empty set has no lexicographic minimum")
        point = _opcache.memoized(
            "lexmin", self.conjuncts, lambda: _lexmin_union(self.conjuncts)
        )
        if point is None:
            raise ValueError("empty set has no lexicographic minimum")
        return point

    def sample_point(self, seed: int = 0, limit: int = 4096) -> Tuple[int, ...]:
        """A deterministic concrete point of the set (witness synthesis).

        When the bounding box holds at most *limit* candidates the point is
        drawn pseudo-randomly (seeded, hash-seed independent) from the full
        enumeration; unbounded or very large sets fall back to
        :meth:`lexmin`.  The returned point always satisfies :meth:`contains`.
        Raises :class:`ValueError` for an empty set.
        """
        if self.is_empty():
            raise ValueError("cannot sample a point from an empty set")
        backend = _hooks.active_backend()
        if backend is not None:
            return backend.sample_point(self, seed=seed, limit=limit)
        return self._sample_point_default(seed=seed, limit=limit)

    def _sample_point_default(self, seed: int = 0, limit: int = 4096) -> Tuple[int, ...]:
        """The inline (omega) sampling body; backends must not re-enter it."""
        with _hooks.suspended():
            try:
                points = list(self.points(limit=limit))
            except (UnboundedSetError, ValueError):
                return self.lexmin()
            rng = random.Random(f"sample:{seed}:{len(points)}")
            return points[rng.randrange(len(points))]

    # --------------------------- dunder api ---------------------------- #
    __and__ = _and
    __or__ = _or
    __sub__ = _sub
    __eq__ = _eq
    __hash__ = _hash
    __bool__ = _bool

    def __str__(self) -> str:
        if self.is_empty():
            return "{ " + "[" + ", ".join(self.names) + "] : false }"
        pieces = []
        header = "[" + ", ".join(self.names) + "]"
        for conjunct in self.conjuncts:
            body = _render_body(self.names, conjunct.n_div, conjunct.eqs, conjunct.ineqs)
            pieces.append(f"{header} : {body}" if body != "true" else header)
        return "{ " + "; ".join(pieces) + " }"

    def __repr__(self) -> str:
        return f"Set({str(self)!r})"


# --------------------------------------------------------------------------- #
# Map
# --------------------------------------------------------------------------- #
class Map:
    """A union of conjuncts relating an input tuple to an output tuple."""

    __slots__ = ("in_names", "out_names", "conjuncts")

    def __init__(
        self,
        in_names: Sequence[str],
        out_names: Sequence[str],
        conjuncts: Iterable[Conjunct] = (),
        *,
        _clean_input: bool = True,
    ):
        self.in_names: Tuple[str, ...] = tuple(in_names)
        self.out_names: Tuple[str, ...] = tuple(out_names)
        _init_conjuncts(self, conjuncts, _clean_input)

    def _space(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        return (self.in_names, self.out_names)

    # -------------------------- constructors -------------------------- #
    @staticmethod
    def empty(in_names: Sequence[str], out_names: Sequence[str]) -> "Map":
        return Map(in_names, out_names, [], _clean_input=False)

    @staticmethod
    def identity(names: Sequence[str], domain: Optional[Set] = None) -> "Map":
        """The identity map on the given dimensions, optionally restricted to *domain*."""
        names = tuple(names)
        out_names = tuple(f"{n}'" for n in names)
        width = 2 * len(names)
        eqs = []
        for index in range(len(names)):
            vector = [0] * (width + 1)
            vector[index] = 1
            vector[len(names) + index] = -1
            eqs.append(tuple(vector))
        result = Map(names, out_names, [Conjunct(width, 0, eqs, [])], _clean_input=False)
        if domain is not None:
            result = result.restrict_domain(domain)
        return result

    @staticmethod
    def build(
        in_names: Sequence[str],
        out_names: Sequence[str],
        constraints: Iterable[AffineConstraint] = (),
        exists: Sequence[str] = (),
    ) -> "Map":
        """Build a single-conjunct map from symbolic affine constraints."""
        public = tuple(in_names) + tuple(out_names)
        conjunct = _lower_constraints(constraints, public, tuple(exists))
        return Map(in_names, out_names, [conjunct])

    # ---------------------------- queries ----------------------------- #
    @property
    def n_in(self) -> int:
        return len(self.in_names)

    @property
    def n_out(self) -> int:
        return len(self.out_names)

    is_empty = _is_empty

    def contains(self, in_point: Sequence[int], out_point: Sequence[int]) -> bool:
        values = [int(x) for x in in_point] + [int(x) for x in out_point]
        if len(values) != self.n_in + self.n_out:
            raise SpaceMismatchError("point arity does not match map arity")
        return _holds_at(self, values)

    # --------------------------- operations --------------------------- #
    intersect = _intersect
    union = _union
    subtract = _subtract
    is_subset = _is_subset
    is_equal = _is_equal
    is_disjoint = _is_disjoint

    def as_set(self) -> Set:
        """The map viewed as a set over the concatenated (in, out) dimensions."""
        names = self._wrapped_names()
        return Set(names, self.conjuncts, _clean_input=False)

    def _wrapped_names(self) -> Tuple[str, ...]:
        out_names = tuple(
            name if name not in self.in_names else f"{name}'" for name in self.out_names
        )
        return self.in_names + out_names

    def domain(self) -> Set:
        """The set of input tuples related to at least one output tuple."""
        wrapped = self.as_set()
        return wrapped.project_out(wrapped.names[self.n_in :]).rename(self.in_names)

    def range(self) -> Set:
        """The set of output tuples related to at least one input tuple."""
        wrapped = self.as_set()
        return wrapped.project_out(wrapped.names[: self.n_in]).rename(self.out_names)

    def inverse(self) -> "Map":
        """The relation with inputs and outputs swapped (memoized)."""
        return _opcache.memoized(
            "inverse",
            (self.in_names, self.out_names, self.conjuncts),
            self._inverse_uncached,
        )

    def _inverse_uncached(self) -> "Map":
        n_in, width = self.n_in, self.n_in + self.n_out

        def swap(vec: Vector) -> Vector:
            return vec[n_in:width] + vec[:n_in] + vec[width:]

        conjuncts = [
            Conjunct(width, c.n_div, [swap(v) for v in c.eqs], [swap(v) for v in c.ineqs])
            for c in self.conjuncts
        ]
        return Map(self.out_names, self.in_names, conjuncts, _clean_input=False)

    def compose(self, other: "Map") -> "Map":
        """Relational composition ``self`` *then* ``other`` (memoized).

        ``result = { x -> z : exists y . (x -> y) in self and (y -> z) in other }``
        This is the natural join used by the paper to reduce intermediate
        variables:  ``M_C_B = M_C_tmp . M_tmp_B``.
        """
        if not isinstance(other, Map):
            raise TypeError(f"expected Map, got {type(other).__name__}")
        if self.n_out != other.n_in:
            raise SpaceMismatchError(
                "cannot compose: the output space of the left map "
                f"[{', '.join(self.in_names)}] -> [{', '.join(self.out_names)}] "
                f"has {self.n_out} dimension(s) but the input space of the right map "
                f"[{', '.join(other.in_names)}] -> [{', '.join(other.out_names)}] "
                f"has {other.n_in} dimension(s)"
            )
        key = (self.in_names, self.out_names, self.conjuncts, other.in_names, other.out_names, other.conjuncts)
        return _opcache.memoized("compose", key, lambda: self._compose_uncached(other))

    def _compose_uncached(self, other: "Map") -> "Map":
        n_x, n_y, n_z = self.n_in, self.n_out, other.n_out
        pieces: List[Conjunct] = []
        for left in self.conjuncts:
            for right in other.conjuncts:
                # Columns of a piece: x | z | left divs | right divs | y | constant
                # (the joined tuple y becomes existential).
                def lift_left(vec: Vector) -> Vector:
                    y = vec[n_x : n_x + n_y]
                    return vec[:n_x] + (0,) * n_z + vec[n_x + n_y : -1] + (0,) * right.n_div + y + vec[-1:]

                def lift_right(vec: Vector) -> Vector:
                    z = vec[n_y : n_y + n_z]
                    return (0,) * n_x + z + (0,) * left.n_div + vec[n_y + n_z : -1] + vec[:n_y] + vec[-1:]

                eqs = [lift_left(v) for v in left.eqs] + [lift_right(v) for v in right.eqs]
                ineqs = [lift_left(v) for v in left.ineqs] + [lift_right(v) for v in right.ineqs]
                pieces.append(Conjunct(n_x + n_z, left.n_div + right.n_div + n_y, eqs, ineqs))
        return Map(self.in_names, other.out_names, pieces)

    def apply(self, domain_set: Set) -> Set:
        """The image of *domain_set* under this map."""
        return self.restrict_domain(domain_set).range()

    def preimage(self, range_set: Set) -> Set:
        """The preimage of *range_set* under this map."""
        return self.restrict_range(range_set).domain()

    def restrict_domain(self, domain_set: Set) -> "Map":
        """Keep only pairs whose input tuple lies in *domain_set* (memoized)."""
        if domain_set.arity != self.n_in:
            raise SpaceMismatchError("domain restriction arity mismatch")
        return Map(
            self.in_names,
            self.out_names,
            _restrict(self, domain_set.conjuncts, at_input=True),
            _clean_input=False,
        )

    def restrict_range(self, range_set: Set) -> "Map":
        """Keep only pairs whose output tuple lies in *range_set* (memoized)."""
        if range_set.arity != self.n_out:
            raise SpaceMismatchError("range restriction arity mismatch")
        return Map(
            self.in_names,
            self.out_names,
            _restrict(self, range_set.conjuncts, at_input=False),
            _clean_input=False,
        )

    def _lift_set_conjunct(self, conjunct: Conjunct, *, at_input: bool) -> Conjunct:
        n_vars = conjunct.n_vars

        def lift(vec: Vector) -> Vector:  # dims | divs and constant
            if at_input:
                return vec[:n_vars] + (0,) * self.n_out + vec[n_vars:]
            return (0,) * self.n_in + vec

        width = self.n_in + self.n_out
        return Conjunct(width, conjunct.n_div, [lift(v) for v in conjunct.eqs], [lift(v) for v in conjunct.ineqs])

    def is_single_valued(self) -> bool:
        """True when every input tuple is related to at most one output tuple."""
        return self.inverse().compose(self).is_subset(Map.identity(self.out_names))

    def is_injective(self) -> bool:
        """True when no two input tuples map to the same output tuple."""
        return self.inverse().is_single_valued()

    def rename(self, in_names: Sequence[str], out_names: Sequence[str]) -> "Map":
        in_names, out_names = tuple(in_names), tuple(out_names)
        if len(in_names) != self.n_in or len(out_names) != self.n_out:
            raise SpaceMismatchError("renaming must preserve arities")
        return Map(in_names, out_names, self.conjuncts, _clean_input=False)

    # ------------------------ point enumeration ----------------------- #
    def pairs(self, limit: int = 1_000_000) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """Iterate over (input, output) pairs of a bounded relation."""
        for point in self.as_set().points(limit):
            yield point[: self.n_in], point[self.n_in :]

    # --------------------------- dunder api ---------------------------- #
    __and__ = _and
    __or__ = _or
    __sub__ = _sub
    __eq__ = _eq
    __hash__ = _hash
    __bool__ = _bool

    def __str__(self) -> str:
        if self.is_empty():
            return "{ [" + ", ".join(self.in_names) + "] -> [" + ", ".join(self.out_names) + "] : false }"
        pieces = []
        for conjunct in self.conjuncts:
            pieces.append(self._render_conjunct(conjunct))
        return "{ " + "; ".join(pieces) + " }"

    def _render_conjunct(self, conjunct: Conjunct) -> str:
        """Render one conjunct, preferring the ``[in] -> [f(in)]`` image form."""
        names = self._wrapped_names()
        in_part = "[" + ", ".join(self.in_names) + "]"
        image = self._image_form(conjunct)
        if image is None:
            head = f"{in_part} -> [{', '.join(names[self.n_in:])}]"
            body = _render_body(names, conjunct.n_div, conjunct.eqs, conjunct.ineqs)
        else:
            out_exprs, eqs, ineqs = image
            head = f"{in_part} -> [{', '.join(out_exprs)}]"
            body = _render_body(names, conjunct.n_div, eqs, ineqs)
        return f"{head} : {body}" if body != "true" else head

    def _image_form(self, conjunct: Conjunct) -> Optional[Tuple[List[str], List[Vector], List[Vector]]]:
        """The output expressions and the remaining rows of the image form.

        Every output needs an equality that defines it from the inputs alone
        (a unit coefficient, no other output, no div); ``None`` otherwise.
        The image drops the output names, so those equalities are
        substituted into the remaining rows, and rows that then repeat (an
        equality also up to sign) or hold trivially (``0 = 0``, ``c >= 0``)
        are dropped.  This is plain row arithmetic: rendering does no
        Presburger work.
        """
        n_in = self.n_in
        # Sorted, so the choice of defining equalities (and which sign of a
        # repeated equality survives) does not depend on the interned
        # instance's row order; _render_body sorts the rows it prints.
        all_eqs = sorted(conjunct.eqs)
        defining: Dict[int, int] = {}  # output column -> index of its equality
        for col in range(n_in, conjunct.n_vars):
            for index, eq in enumerate(all_eqs):
                if abs(eq[col]) == 1 and not any(eq[c] for c in range(n_in, len(eq) - 1) if c != col):
                    defining[col] = index
                    break
            else:
                return None
        out_exprs = []
        for col, index in defining.items():
            eq = all_eqs[index]
            sign = -eq[col]
            coeffs = {self.in_names[i]: sign * eq[i] for i in range(n_in) if eq[i] != 0}
            out_exprs.append(str(LinExpr(coeffs, sign * eq[-1])))

        def substituted(vec: Vector) -> Vector:
            for col, index in defining.items():
                if vec[col]:
                    eq = all_eqs[index]
                    scale = vec[col] * eq[col]
                    vec = tuple(v - scale * e for v, e in zip(vec, eq))
            return vec

        used = set(defining.values())
        eqs: Dict[Vector, None] = {}
        for vec in (substituted(v) for index, v in enumerate(all_eqs) if index not in used):
            if any(vec) and tuple(-x for x in vec) not in eqs:
                eqs.setdefault(vec)
        ineqs = dict.fromkeys(vec for vec in map(substituted, conjunct.ineqs) if any(vec[:-1]) or vec[-1] < 0)
        return out_exprs, list(eqs), list(ineqs)

    def __repr__(self) -> str:
        return f"Map({str(self)!r})"
