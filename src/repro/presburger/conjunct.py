"""Conjuncts: conjunctions of affine integer constraints with existentials.

A :class:`Conjunct` is the basic building block of the Presburger sets and
maps used throughout the library (the analogue of isl's ``basic_set`` /
``basic_map`` or an Omega "conjunct").  It represents

.. math::

    \\{ x \\in Z^{n} \\mid \\exists e \\in Z^{d} :
        A (x, e, 1)^T = 0 \\wedge B (x, e, 1)^T \\ge 0 \\}

where ``n`` is the number of *public* dimensions and ``d`` the number of
*existential* (a.k.a. "div") dimensions.  Coefficient vectors are stored
densely as tuples of Python ints with the layout::

    [ public dims... | existential dims... | constant ]

The class is deliberately dumb: all non-trivial algorithms (normalisation,
variable elimination, feasibility) live in :mod:`repro.presburger.omega` so
they can be tested in isolation.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

Vector = Tuple[int, ...]


class Conjunct:
    """A conjunction of integer affine equalities and inequalities.

    Parameters
    ----------
    n_vars:
        Number of public dimensions.
    n_div:
        Number of existential dimensions.
    eqs:
        Equality constraints, each a coefficient vector ``v`` meaning
        ``v . (vars, divs, 1) == 0``.
    ineqs:
        Inequality constraints, each meaning ``v . (vars, divs, 1) >= 0``.
    """

    __slots__ = ("n_vars", "n_div", "eqs", "ineqs", "_key", "_hash", "_normed")

    def __init__(
        self,
        n_vars: int,
        n_div: int = 0,
        eqs: Iterable[Sequence[int]] = (),
        ineqs: Iterable[Sequence[int]] = (),
    ):
        self.n_vars = int(n_vars)
        self.n_div = int(n_div)
        width = self.n_vars + self.n_div + 1
        self.eqs: Tuple[Vector, ...] = tuple(self._check(v, width) for v in eqs)
        self.ineqs: Tuple[Vector, ...] = tuple(self._check(v, width) for v in ineqs)
        # Structural key and hash are computed lazily and cached: most
        # conjuncts are short-lived intermediates that are never hashed, but
        # the survivors are hashed and compared over and over (syntactic
        # deduplication, tabling keys, the operation cache).
        self._key: Tuple | None = None
        self._hash: int | None = None
        # True only for conjuncts produced by the normalisation kernel:
        # normalize() is idempotent, so flagged conjuncts can skip a second
        # pass entirely (see repro.presburger.kernel).
        self._normed = False

    @staticmethod
    def _check(vector: Sequence[int], width: int) -> Vector:
        # Identity-preserving for rows that are already canonical tuples of
        # ints: rebuilding them here would silently strip the interned
        # instances produced by normalize() (the hash-consing pools dedupe
        # by value, but identity-fast comparisons and the pool hit rate
        # depend on the *same* tuple object flowing through).
        if type(vector) is tuple and all(type(x) is int for x in vector):
            if len(vector) != width:
                raise ValueError(
                    f"constraint vector has length {len(vector)}, expected {width}"
                )
            return vector
        vec = tuple(int(x) for x in vector)
        if len(vec) != width:
            raise ValueError(f"constraint vector has length {len(vec)}, expected {width}")
        return vec

    @classmethod
    def _make(
        cls,
        n_vars: int,
        n_div: int,
        eqs: Tuple[Vector, ...],
        ineqs: Tuple[Vector, ...],
        normed: bool = False,
    ) -> "Conjunct":
        """Trusted constructor for the flat-matrix kernel.

        The caller guarantees *eqs*/*ineqs* are tuples of width-correct
        tuples of Python ints (kernel row operations only ever produce
        those), so the per-row ``_check`` validation of ``__init__`` — a
        measurable slice of the hot path — is skipped.
        """
        self = object.__new__(cls)
        self.n_vars = n_vars
        self.n_div = n_div
        self.eqs = eqs
        self.ineqs = ineqs
        self._key = None
        self._hash = None
        self._normed = normed
        return self

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    @property
    def const_col(self) -> int:
        """Index of the constant column."""
        return self.n_vars + self.n_div

    def is_universe(self) -> bool:
        """True when the conjunct has no constraints at all."""
        return not self.eqs and not self.ineqs

    def involves_col(self, col: int) -> bool:
        """True if any constraint has a non-zero coefficient in column *col*."""
        return any(v[col] != 0 for v in self.eqs) or any(v[col] != 0 for v in self.ineqs)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def universe(n_vars: int, n_div: int = 0) -> "Conjunct":
        """The unconstrained conjunct over *n_vars* public dimensions."""
        return Conjunct(n_vars, n_div)

    def with_constraints(
        self,
        eqs: Iterable[Sequence[int]] = (),
        ineqs: Iterable[Sequence[int]] = (),
    ) -> "Conjunct":
        """A copy of this conjunct with extra constraints appended."""
        return Conjunct(
            self.n_vars,
            self.n_div,
            list(self.eqs) + [tuple(v) for v in eqs],
            list(self.ineqs) + [tuple(v) for v in ineqs],
        )

    def add_divs(self, count: int) -> "Conjunct":
        """A copy with *count* extra existential columns (inserted before the constant)."""
        if count == 0:
            return self
        insert_at = self.const_col

        def widen(vec: Vector) -> Vector:
            return vec[:insert_at] + (0,) * count + vec[insert_at:]

        return Conjunct(
            self.n_vars,
            self.n_div + count,
            [widen(v) for v in self.eqs],
            [widen(v) for v in self.ineqs],
        )

    def drop_col(self, col: int) -> "Conjunct":
        """A copy with column *col* removed.

        All constraints must have a zero coefficient in that column; the caller
        is responsible for eliminating the variable first.
        """
        if col >= self.const_col:
            raise ValueError("cannot drop the constant column")
        for vec in list(self.eqs) + list(self.ineqs):
            if vec[col] != 0:
                raise ValueError("cannot drop a column that still appears in constraints")
        n_vars = self.n_vars - 1 if col < self.n_vars else self.n_vars
        n_div = self.n_div if col < self.n_vars else self.n_div - 1

        def shrink(vec: Vector) -> Vector:
            return vec[:col] + vec[col + 1:]

        return Conjunct(n_vars, n_div, [shrink(v) for v in self.eqs], [shrink(v) for v in self.ineqs])

    # ------------------------------------------------------------------ #
    # Point evaluation
    # ------------------------------------------------------------------ #
    def substitute_vars(self, values: Sequence[int]) -> "Conjunct":
        """Plug concrete integers into the public dimensions.

        The result is a conjunct with zero public dimensions whose feasibility
        decides membership of the point.
        """
        if len(values) != self.n_vars:
            raise ValueError(f"expected {self.n_vars} values, got {len(values)}")

        def plug(vec: Vector) -> Vector:
            constant = vec[self.const_col] + sum(c * v for c, v in zip(vec[: self.n_vars], values))
            return tuple(vec[self.n_vars : self.const_col]) + (constant,)

        return Conjunct(0, self.n_div, [plug(v) for v in self.eqs], [plug(v) for v in self.ineqs])

    # ------------------------------------------------------------------ #
    # Structural helpers
    # ------------------------------------------------------------------ #
    def normalized_key(self) -> Tuple:
        """A canonical-ish key used for syntactic deduplication of conjuncts.

        The key (and its hash) is computed once and cached, so repeated
        equality tests and dict/set membership checks cost one comparison of
        already-built tuples — or nothing at all for interned conjuncts,
        which short-circuit on identity.
        """
        key = self._key
        if key is None:
            key = self._key = (
                self.n_vars,
                self.n_div,
                tuple(sorted(self.eqs)),
                tuple(sorted(self.ineqs)),
            )
        return key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Conjunct):
            return NotImplemented
        return self.normalized_key() == other.normalized_key()

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self.normalized_key())
        return value

    def __repr__(self) -> str:
        return (
            f"Conjunct(n_vars={self.n_vars}, n_div={self.n_div}, "
            f"eqs={list(self.eqs)!r}, ineqs={list(self.ineqs)!r})"
        )
