"""Exact integer-arithmetic algorithms on conjuncts (an Omega-test core).

This module is the replacement for the OMEGA calculator used in the paper.
It implements, exactly over the integers:

* constraint normalisation (gcd reduction, tightening, contradiction and
  redundancy detection),
* elimination of a variable (public or existential) from a conjunct —
  by substitution through a unit-coefficient equality, by Pugh's
  coefficient-reduction ("mod-hat") transformation for non-unit equalities,
  and by Fourier–Motzkin with dark shadow + splintering for inequalities
  (the Omega test), yielding an *exact* union of conjuncts,
* integer feasibility of a conjunct,
* simplification (removal of easily eliminable existential variables),
* complementation of a conjunct whose existentials are divisibility
  constraints.

All functions are pure: they take :class:`~repro.presburger.conjunct.Conjunct`
values and return new ones.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set as PySet, Tuple

from .conjunct import Conjunct, Vector
from .errors import UnsupportedOperationError
from . import kernel as _kernel
from . import opcache as _opcache

__all__ = [
    "mod_hat",
    "normalize",
    "simplify",
    "eliminate_col",
    "project_cols",
    "is_feasible",
    "complement",
    "conjunct_intersect",
    "negate_inequality",
]


# --------------------------------------------------------------------------- #
# Small helpers
# --------------------------------------------------------------------------- #
def mod_hat(a: int, m: int) -> int:
    """Pugh's symmetric modulo: ``a - m * floor(a / m + 1/2)``.

    The result lies in ``(-m/2, m/2]`` and is congruent to ``a`` modulo ``m``.
    """
    if m <= 0:
        raise ValueError("modulus must be positive")
    return a - m * ((2 * a + m) // (2 * m))


def negate_inequality(vec: Sequence[int]) -> Vector:
    """The integer negation of ``vec >= 0``, namely ``-vec - 1 >= 0``."""
    negated = [-x for x in vec]
    negated[-1] -= 1
    return tuple(negated)


# --------------------------------------------------------------------------- #
# Normalisation
# --------------------------------------------------------------------------- #
def normalize(conjunct: Conjunct) -> Optional[Conjunct]:
    """Gcd-normalise, tighten and lightly simplify a conjunct.

    Returns ``None`` when a contradiction is detected syntactically (the
    conjunct is trivially empty).  The result is logically equivalent to the
    input over the integers.

    Implemented by :func:`repro.presburger.kernel.normalize_conjunct`:
    results carry fully interned rows and the ``_normed`` flag, so
    normalising a normal form is a no-op.
    """
    return _kernel.normalize_conjunct(conjunct)


def _intern_rows(conjunct: Conjunct) -> Conjunct:
    """Re-intern every row of *conjunct* (leak-audit helper).

    Column-dropping rebuilds constraint vectors as fresh tuples; routing the
    result through here restores the invariant that every vector stored in a
    conjunct that survives into a ``Set``/``Map`` is the canonical interned
    instance, so later equality tests stay identity-fast.
    """
    iv = _opcache.intern_vector
    return Conjunct._make(
        conjunct.n_vars,
        conjunct.n_div,
        tuple(iv(v) for v in conjunct.eqs),
        tuple(iv(v) for v in conjunct.ineqs),
        normed=conjunct._normed,
    )


def _dropped_dims(conjunct: Conjunct, col: int) -> Tuple[int, int]:
    """The (n_vars, n_div) of *conjunct* after dropping column *col*."""
    if col < conjunct.n_vars:
        return conjunct.n_vars - 1, conjunct.n_div
    return conjunct.n_vars, conjunct.n_div - 1


def _substitute_eq(conjunct: Conjunct, index: int, col: int) -> Conjunct:
    """Substitute equality *index* away for column *col* and drop the column.

    The equality must have a unit coefficient in *col*; it is solved for
    that column and the solution is substituted into every other row.
    """
    eq = conjunct.eqs[index]
    remaining = [vec for j, vec in enumerate(conjunct.eqs) if j != index]
    n_vars, n_div = _dropped_dims(conjunct, col)
    return Conjunct._make(
        n_vars,
        n_div,
        tuple(_kernel.substitute_drop(remaining, eq, col)),
        tuple(_kernel.substitute_drop(conjunct.ineqs, eq, col)),
    )


# --------------------------------------------------------------------------- #
# Variable elimination (exact)
# --------------------------------------------------------------------------- #
def eliminate_col(conjunct: Conjunct, col: int) -> List[Conjunct]:
    """Exactly eliminate the variable in column *col*.

    The variable is treated as existentially quantified; the result is a list
    of conjuncts (a union) over the remaining columns whose union of solution
    sets equals the projection of the input.  An empty list means the input
    was infeasible regardless of the eliminated variable.
    """
    _opcache._CACHE.count("fm_eliminations")
    normalized = normalize(conjunct)
    if normalized is None:
        return []
    conjunct = normalized

    if not conjunct.involves_col(col):
        # drop_col rebuilds every row as a fresh (shrunk) tuple: re-intern so
        # the hash-consing invariant survives this exit too.
        return [_intern_rows(conjunct.drop_col(col))]

    # 1. A unit-coefficient equality allows exact substitution.
    for index, eq in enumerate(conjunct.eqs):
        if abs(eq[col]) == 1:
            renorm = normalize(_substitute_eq(conjunct, index, col))
            return [renorm] if renorm is not None else []

    # 2. An equality with a non-unit coefficient: Pugh's coefficient reduction.
    eqs_with_col = [(i, eq) for i, eq in enumerate(conjunct.eqs) if eq[col] != 0]
    if eqs_with_col:
        index, eq = min(eqs_with_col, key=lambda item: abs(item[1][col]))
        a = eq[col]
        m = abs(a) + 1
        widened = conjunct.add_divs(1)
        sigma_col = widened.const_col - 1
        source = widened.eqs[index]
        new_eq = [mod_hat(x, m) for x in source]
        new_eq[sigma_col] = -m
        augmented = widened.with_constraints(eqs=[tuple(new_eq)])
        # The new equality has coefficient -sign(a) (a unit) in column *col*,
        # so the recursive call terminates via case 1.
        return eliminate_col(augmented, col)

    # 3. Only inequalities involve the column: Omega-test elimination.
    return _eliminate_inequality_col(conjunct, col)


def _eliminate_inequality_col(conjunct: Conjunct, col: int) -> List[Conjunct]:
    """Eliminate a column that appears only in inequalities (exact union)."""
    lowers = [v for v in conjunct.ineqs if v[col] > 0]
    uppers = [v for v in conjunct.ineqs if v[col] < 0]
    others = [v for v in conjunct.ineqs if v[col] == 0]

    def _shadow_conjunct(shadow: List[Vector]) -> Conjunct:
        # Every row (eqs, others, resultants) has a zero coefficient in the
        # eliminated column, so dropping it is a pure row-shrink.
        n_vars, n_div = _dropped_dims(conjunct, col)
        return Conjunct._make(
            n_vars,
            n_div,
            tuple(_kernel.drop_rows(conjunct.eqs, col)),
            tuple(_kernel.drop_rows(others + shadow, col)),
        )

    if not lowers or not uppers:
        # Unbounded in at least one direction: an integer value always exists.
        renorm = normalize(_shadow_conjunct([]))
        return [renorm] if renorm is not None else []

    # When every lower bound (or every upper bound) has a unit coefficient,
    # the Fourier–Motzkin slack (a-1)(b-1) vanishes for every pair: the real
    # shadow is exact and the dark-shadow bookkeeping can be skipped.
    unit_bounds = all(v[col] == 1 for v in lowers) or all(v[col] == -1 for v in uppers)

    real_shadow, dark_shadow, all_exact = _kernel.fm_combine(
        lowers, uppers, col, unit_bounds
    )

    if all_exact:
        renorm = normalize(_shadow_conjunct(real_shadow))
        return [renorm] if renorm is not None else []

    results: List[Conjunct] = []
    dark_norm = normalize(_shadow_conjunct(dark_shadow))
    if dark_norm is not None:
        results.append(dark_norm)

    # Splinters: force the eliminated variable onto one of finitely many
    # hyperplanes just above a lower bound (Pugh's exact-projection theorem).
    a_max = max(-upper[col] for upper in uppers)
    for lower in lowers:
        b = lower[col]
        max_offset = (a_max * b - a_max - b) // a_max
        _opcache._CACHE.count("dark_shadow_splinters", max_offset + 1)
        for offset in range(max_offset + 1):
            equality = list(lower)
            equality[-1] -= offset
            splinter = conjunct.with_constraints(eqs=[tuple(equality)])
            results.extend(eliminate_col(splinter, col))
    return results


def real_shadow_eliminate(conjunct: Conjunct, cols: Sequence[int]) -> Conjunct:
    """Rational Fourier–Motzkin elimination of the given columns.

    The result is an *over-approximation* of the integer projection (its real
    shadow); it is only used to derive valid outer bounding boxes for point
    enumeration, never for exact reasoning.
    """
    ineqs: List[Vector] = list(conjunct.ineqs)
    for eq in conjunct.eqs:
        ineqs.append(tuple(eq))
        ineqs.append(tuple(-x for x in eq))
    n_vars, n_div = conjunct.n_vars, conjunct.n_div
    current = Conjunct(n_vars, n_div, [], ineqs)
    for col in sorted(cols, reverse=True):
        lowers = [v for v in current.ineqs if v[col] > 0]
        uppers = [v for v in current.ineqs if v[col] < 0]
        others = [v for v in current.ineqs if v[col] == 0]
        resultants: List[Vector] = []
        for lower in lowers:
            b = lower[col]
            for upper in uppers:
                a = -upper[col]
                resultants.append(tuple(b * upper[j] + a * lower[j] for j in range(len(lower))))
        current = Conjunct(current.n_vars, current.n_div, [], others + resultants).drop_col(col)
    return current


def project_cols(conjunct: Conjunct, cols: Sequence[int]) -> List[Conjunct]:
    """Exactly eliminate several columns (indices relative to the input layout)."""
    pending = [conjunct]
    # Eliminate from the highest column index downwards so earlier indices
    # remain valid as columns are dropped.
    for col in sorted(cols, reverse=True):
        next_pending: List[Conjunct] = []
        for piece in pending:
            next_pending.extend(eliminate_col(piece, col))
        pending = next_pending
        if not pending:
            break
    return pending


# --------------------------------------------------------------------------- #
# Feasibility
# --------------------------------------------------------------------------- #
def _choose_elimination_col(conjunct: Conjunct) -> int:
    """Heuristically pick the cheapest column to eliminate next."""
    total_cols = conjunct.const_col
    best_col = 0
    best_score: Tuple[int, int] | None = None
    for col in range(total_cols):
        if not conjunct.involves_col(col):
            return col
        unit_eq = any(abs(eq[col]) == 1 for eq in conjunct.eqs)
        if unit_eq:
            return col
        in_eq = any(eq[col] != 0 for eq in conjunct.eqs)
        lowers = sum(1 for v in conjunct.ineqs if v[col] > 0)
        uppers = sum(1 for v in conjunct.ineqs if v[col] < 0)
        if in_eq:
            score = (1, 0)
        elif lowers == 0 or uppers == 0:
            score = (0, 0)
        else:
            exact = all(v[col] == 1 for v in conjunct.ineqs if v[col] > 0) or all(
                v[col] == -1 for v in conjunct.ineqs if v[col] < 0
            )
            score = (2 if exact else 3, lowers * uppers)
        if best_score is None or score < best_score:
            best_score = score
            best_col = col
    return best_col


def _decide_by_bounds(conjunct: Conjunct) -> Optional[bool]:
    """Integer feasibility of a conjunct whose columns are independent, else ``None``.

    This is the first step of Pugh's Omega test.  Equalities are solved
    away while one has a ±1 coefficient and at most one other column; a
    one-column equality ``a*x + b = 0`` pins ``x = -b/a``, or is a
    contradiction when ``a`` does not divide ``b``.  Each step keeps the
    integer point set exactly (a unit coefficient makes the solved column
    an integer function of the rest).  If no equality is left and every
    inequality then involves at most one column, the columns are
    independent: the conjunct has an integer point iff each column's
    tightest lower bound ``ceil(-b/a)`` is at most its tightest upper
    bound ``floor(b/-a)``.  Any other shape returns ``None``, and the
    caller eliminates a column instead.
    """
    cols = range(conjunct.const_col)
    eqs = list(conjunct.eqs)
    ineqs = conjunct.ineqs
    while eqs:
        for index, eq in enumerate(eqs):
            used = [c for c in cols if eq[c]]
            if not used:
                if eq[-1]:
                    return False
                break  # 0 = 0
            if len(used) == 1:
                col = used[0]
                a = eq[col]
                if eq[-1] % a:
                    return False
                eq = eq[:col] + (1,) + eq[col + 1 : -1] + (eq[-1] // a,)  # x + b/a = 0
                break
            if len(used) == 2:
                col = next((c for c in used if eq[c] in (1, -1)), None)
                if col is not None:
                    break
        else:
            return None
        del eqs[index]
        if used:
            eqs = _kernel.substitute_drop(eqs, eq, col)
            ineqs = _kernel.substitute_drop(ineqs, eq, col)
            cols = range(len(cols) - 1)

    lower: Dict[int, int] = {}
    upper: Dict[int, int] = {}
    for row in ineqs:
        col = None
        for c in cols:
            if row[c]:
                if col is not None:
                    return None
                col = c
        if col is None:
            if row[-1] < 0:
                return False
            continue
        a, b = row[col], row[-1]
        if a > 0:
            bound = -(b // a)  # a*x + b >= 0  =>  x >= ceil(-b/a)
            if bound > lower.get(col, bound - 1):
                lower[col] = bound
        else:
            bound = b // -a  # x <= floor(b/-a)
            if bound < upper.get(col, bound + 1):
                upper[col] = bound
    return all(low <= upper[col] for col, low in lower.items() if col in upper)


def is_feasible(conjunct: Conjunct) -> bool:
    """Decide whether the conjunct contains at least one integer point.

    A normalized conjunct whose columns are independent is decided by
    comparing bounds (:func:`_decide_by_bounds`); any other shape
    eliminates one column and asks again of every piece.
    """
    _opcache._CACHE.count("feasibility_checks")
    if conjunct.is_universe():
        return True  # fast path: no constraints, every point qualifies
    normalized = normalize(conjunct)
    if normalized is None:
        return False
    decided = _decide_by_bounds(normalized)
    if decided is not None:
        return decided
    col = _choose_elimination_col(normalized)
    return any(is_feasible(piece) for piece in eliminate_col(normalized, col))


# --------------------------------------------------------------------------- #
# Simplification
# --------------------------------------------------------------------------- #
def _scaled_substitution(vec: Vector, eq: Vector, col: int) -> Vector:
    """Cancel column *col* of *vec* using equality *eq* (any non-zero coefficient).

    The result is ``|eq[col]| * vec  -  vec[col] * sign(eq[col]) * eq`` which
    has a zero coefficient in *col*.  Because *eq* equals zero and the scale
    factor is positive, the transformation is exact for both equalities and
    inequalities.
    """
    c = eq[col]
    a = vec[col]
    scale = abs(c)
    sign = 1 if c > 0 else -1
    return tuple(scale * vec[j] - a * sign * eq[j] for j in range(len(vec)))


def simplify(conjunct: Conjunct) -> Optional[Conjunct]:
    """Normalise and canonicalise the existential variables of a conjunct.

    * existential columns that do not occur in any constraint are dropped;
    * existential columns with a unit coefficient in some equality are
      substituted away;
    * remaining existential columns that occur in an equality are rewritten
      into canonical "div form": they occur *only* in their defining equality
      (inequalities and other equalities are rewritten through a scaled
      substitution), which is the form :func:`complement` understands.

    Returns ``None`` for syntactically infeasible conjuncts.
    """
    current = normalize(conjunct)
    if current is None:
        return None
    changed = True
    while changed:
        changed = False
        for div_index in range(current.n_div - 1, -1, -1):
            col = current.n_vars + div_index
            if not current.involves_col(col):
                current = current.drop_col(col)
                changed = True
                break
            index = next((i for i, eq in enumerate(current.eqs) if abs(eq[col]) == 1), None)
            if index is not None:
                renorm = normalize(_substitute_eq(current, index, col))
                if renorm is None:
                    return None
                current = renorm
                changed = True
                break

    # Canonical div form: each remaining existential that is defined by an
    # equality should occur nowhere else.
    for _ in range(32):
        rewritten = False
        for div_index in range(current.n_div):
            col = current.n_vars + div_index
            eqs_with = [(i, eq) for i, eq in enumerate(current.eqs) if eq[col] != 0]
            if not eqs_with:
                continue
            extra_eqs = len(eqs_with) > 1
            in_ineqs = any(vec[col] != 0 for vec in current.ineqs)
            if not extra_eqs and not in_ineqs:
                continue
            def_index, def_eq = min(eqs_with, key=lambda item: abs(item[1][col]))
            new_eqs: List[Vector] = []
            for i, eq in enumerate(current.eqs):
                if i == def_index or eq[col] == 0:
                    new_eqs.append(eq)
                else:
                    new_eqs.append(_scaled_substitution(eq, def_eq, col))
            new_ineqs = [
                vec if vec[col] == 0 else _scaled_substitution(vec, def_eq, col)
                for vec in current.ineqs
            ]
            candidate = normalize(
                Conjunct._make(current.n_vars, current.n_div, tuple(new_eqs), tuple(new_ineqs))
            )
            if candidate is None:
                return None
            current = candidate
            rewritten = True
            break
        if not rewritten:
            break

    return _dedupe_divisibility(current)


def _dedupe_divisibility(conjunct: Conjunct) -> Conjunct:
    """Drop existential columns that express a divisibility already present.

    Compositions and repeated domain restrictions re-introduce identical
    constraints such as ``exists e: w = 2e`` with fresh existential columns;
    without deduplication the conjuncts grow without bound and every
    subsequent operation slows down dramatically.
    """
    if conjunct.n_div == 0:
        return conjunct
    seen: Dict[Tuple, int] = {}
    drop_cols: List[int] = []
    drop_eqs: PySet = set()
    for div_index in range(conjunct.n_div):
        col = conjunct.n_vars + div_index
        eq_hits = [(i, eq) for i, eq in enumerate(conjunct.eqs) if eq[col] != 0]
        if len(eq_hits) != 1:
            continue
        if any(vec[col] != 0 for vec in conjunct.ineqs):
            continue
        index, eq = eq_hits[0]
        other_div_coeffs = [
            eq[c] for c in range(conjunct.n_vars, conjunct.const_col) if c != col
        ]
        if any(other_div_coeffs):
            continue
        modulus = abs(eq[col])
        signature_vec = tuple(eq[: conjunct.n_vars]) + (eq[-1],)
        for value in signature_vec:
            if value != 0:
                if value < 0:
                    signature_vec = tuple(-v for v in signature_vec)
                break
        signature = (modulus, signature_vec[:-1], signature_vec[-1] % modulus if modulus else 0)
        if signature in seen:
            drop_eqs.add(index)
            drop_cols.append(col)
        else:
            seen[signature] = index
    if not drop_cols:
        return conjunct
    new_eqs = [eq for i, eq in enumerate(conjunct.eqs) if i not in drop_eqs]
    result = Conjunct(conjunct.n_vars, conjunct.n_div, new_eqs, conjunct.ineqs)
    for col in sorted(drop_cols, reverse=True):
        result = result.drop_col(col)
    # This is the last stop before simplified conjuncts are stored into a
    # Set/Map, and drop_col produced fresh row tuples: re-intern them so the
    # hash-consing invariant holds for everything a Set can contain.
    return _intern_rows(result)


# --------------------------------------------------------------------------- #
# Complement
# --------------------------------------------------------------------------- #
def _widened(rows: Tuple[Vector, ...], at: int, zeros: Vector) -> Tuple[Vector, ...]:
    """*rows* with the all-zero columns *zeros* inserted before index *at*."""
    if not zeros:
        return rows
    return tuple(vec[:at] + zeros + vec[at:] for vec in rows)


def conjunct_intersect(first: Conjunct, second: Conjunct) -> Conjunct:
    """Intersection of two conjuncts over the same public dimensions.

    The columns are the public ones, *first*'s existentials, *second*'s
    existentials and the constant; *first*'s rows come before *second*'s.
    """
    n_vars = first.n_vars
    if n_vars != second.n_vars:
        raise ValueError("conjuncts have different public arity")
    after_first = (0,) * second.n_div
    before_second = (0,) * first.n_div
    at = first.const_col
    return Conjunct._make(
        n_vars,
        first.n_div + second.n_div,
        _widened(first.eqs, at, after_first) + _widened(second.eqs, n_vars, before_second),
        _widened(first.ineqs, at, after_first) + _widened(second.ineqs, n_vars, before_second),
    )


def _strip_div_columns(vec: Vector, n_vars: int, n_div: int) -> Vector:
    """Drop the existential columns of a vector that does not use them."""
    return vec[:n_vars] + (vec[-1],)


def complement(conjunct: Conjunct) -> List[Conjunct]:
    """The complement of a conjunct within the universe of its public space.

    Existential variables must either be removable by simplification/exact
    projection or appear as pure divisibility constraints
    ``m * e == affine(public dims)``; otherwise
    :class:`UnsupportedOperationError` is raised.  The result is a list of
    conjuncts whose union is the complement.

    While the operation cache is enabled the result is kept on the conjunct
    (its ``_negations`` slot), so complementing the same canonical
    conjunct again costs nothing; under :func:`opcache.disabled` the slot
    is neither read nor written.
    """
    if not _opcache._CACHE.enabled:
        return _complement(conjunct, 0)
    negations = conjunct._negations
    if negations is None:
        negations = conjunct._negations = tuple(_complement(conjunct, 0))
    return list(negations)


def _complement(conjunct: Conjunct, depth: int) -> List[Conjunct]:
    """:func:`complement`, *depth* levels into its existential elimination."""
    if depth > 24:
        raise UnsupportedOperationError(
            "complement: could not reduce existential variables to divisibility form"
        )
    simplified = simplify(conjunct)
    if simplified is None:
        # Empty conjunct: complement is the universe.
        return [Conjunct.universe(conjunct.n_vars)]
    conjunct = simplified

    if conjunct.n_div:
        # Validate / normalise the remaining existential variables.
        for div_index in range(conjunct.n_div):
            col = conjunct.n_vars + div_index
            eq_hits = [eq for eq in conjunct.eqs if eq[col] != 0]
            ineq_hits = [v for v in conjunct.ineqs if v[col] != 0]
            pure_div = (
                len(eq_hits) == 1
                and not ineq_hits
                and all(
                    eq_hits[0][other] == 0
                    for other in range(conjunct.n_vars, conjunct.const_col)
                    if other != col
                )
            )
            if pure_div:
                continue
            # Try to eliminate this existential exactly and recurse on the
            # resulting union: not(A or B) = not(A) and not(B).
            pieces = eliminate_col(conjunct, col)
            if not pieces:
                return [Conjunct.universe(conjunct.n_vars)]
            result = _complement(pieces[0], depth + 1)
            for piece in pieces[1:]:
                piece_complement = _complement(piece, depth + 1)
                result = [
                    normalize(conjunct_intersect(left, right))
                    for left in result
                    for right in piece_complement
                ]
                result = [c for c in result if c is not None and is_feasible(c)]
            return result

    plain_eqs: List[Vector] = []
    div_constraints: List[Tuple[int, Vector]] = []
    for eq in conjunct.eqs:
        div_part = eq[conjunct.n_vars : conjunct.const_col]
        nonzero = [c for c in div_part if c != 0]
        if not nonzero:
            plain_eqs.append(eq)
        else:
            modulus = abs(nonzero[0])
            div_constraints.append((modulus, eq))
    plain_ineqs = list(conjunct.ineqs)

    n_vars = conjunct.n_vars
    pieces: List[Conjunct] = []

    for vec in plain_ineqs:
        stripped = _strip_div_columns(vec, n_vars, conjunct.n_div)
        pieces.append(Conjunct(n_vars, 0, [], [negate_inequality(stripped)]))

    for vec in plain_eqs:
        stripped = _strip_div_columns(vec, n_vars, conjunct.n_div)
        upper = list(stripped)
        upper[-1] -= 1  # vec >= 1
        lower = negate_inequality(stripped)  # vec <= -1
        pieces.append(Conjunct(n_vars, 0, [], [tuple(upper)]))
        pieces.append(Conjunct(n_vars, 0, [], [lower]))

    for modulus, eq in div_constraints:
        # eq is: affine(public) + (+-m) * e + const == 0, i.e. m | affine + const.
        public_part = eq[:n_vars]
        constant = eq[-1]
        for remainder in range(1, modulus):
            # m | (affine + const - remainder)
            vector = public_part + (-modulus, constant - remainder)
            pieces.append(Conjunct(n_vars, 1, [vector], []))

    if not pieces:
        # The conjunct was the universe; its complement is empty.
        return []
    return pieces
