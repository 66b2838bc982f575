"""Flat-matrix constraint kernel: batched row operations for the hot path.

A conjunct's constraint block is an integer matrix stored as a tuple of row
tuples (the storage :class:`~repro.presburger.conjunct.Conjunct` uses, so
there is no conversion cost at the boundary).  The routines below operate
on whole row batches and build their results through the trusted
:meth:`Conjunct._make` constructor: the rows are already validated tuples
of ints, so per-row validation would be pure overhead.  The Presburger
algorithms of :mod:`repro.presburger.omega` call them for every row-level
step:

* ``normalize_conjunct`` — gcd reduction (C-level ``math.gcd(*row)``), sign
  canonicalisation, floor-tightening, duplicate/tightest-inequality
  reduction and opposite-pair promotion in one pass over all rows.  Results
  carry the ``_normed`` idempotence flag, which lets the
  feasibility/elimination recursion skip re-normalising values that are
  already normal forms.
* ``fm_combine`` — the Fourier–Motzkin lower×upper pair combination as one
  batched pass: every resultant and its dark-shadow row come out of a single
  pairing loop.  The batches are tiny in practice (a handful of pairs per
  eliminated column), so plain Python ints are the right representation.
* ``drop_rows`` / ``substitute_drop`` — fused column elimination: apply a
  unit-coefficient substitution and remove the column in a single
  comprehension instead of substitute → construct → drop → construct.

``tests/unit/presburger/test_kernel.py`` checks every routine against a
brute-force integer-point oracle that shares no code with this module or
:mod:`repro.presburger.omega`.
"""

from __future__ import annotations

from math import gcd as _gcd
from operator import neg as _neg
from typing import Dict, List, Optional, Sequence, Tuple

from .conjunct import Conjunct, Vector
from . import opcache as _opcache

__all__ = [
    "KERNEL_VERSION",
    "drop_rows",
    "fingerprint",
    "fm_combine",
    "normalize_conjunct",
    "substitute_drop",
]

#: Bumped whenever the kernel's observable row layout or normal form
#: changes; folded into the persistent-cache fingerprint so stale on-disk
#: results can never leak across kernel revisions.
KERNEL_VERSION = 1


def fingerprint() -> str:
    """The kernel revision folded into the persistent-cache fingerprint."""
    return f"kernel-v{KERNEL_VERSION}"


# --------------------------------------------------------------------------- #
# Batched normalisation
# --------------------------------------------------------------------------- #
def normalize_conjunct(conjunct: Conjunct) -> Optional[Conjunct]:
    """The implementation of :func:`repro.presburger.omega.normalize`.

    Returns ``None`` on a syntactic contradiction, otherwise a conjunct
    whose rows are interned and which carries the ``_normed`` flag so a
    second pass is a no-op.
    """
    if conjunct._normed:
        return conjunct
    iv = _opcache.intern_vector

    eqs: List[Vector] = []
    for vec in conjunct.eqs:
        g = _gcd(*vec[:-1])
        if g == 0:
            if vec[-1] != 0:
                return None
            continue
        if g == 1:
            reduced = vec
        else:
            if vec[-1] % g:
                return None
            reduced = tuple(x // g for x in vec)
        # canonical sign: first non-zero coefficient positive (g != 0
        # guarantees the first non-zero entry precedes the constant)
        for x in reduced:
            if x != 0:
                if x < 0:
                    reduced = tuple(map(_neg, reduced))
                break
        eqs.append(iv(reduced))

    # The tightest row per coefficient vector, in first-seen order.  Rows
    # are interned once, on the way out: a row whose gcd is 1 is the input
    # tuple itself, so an already canonical row costs one pool hit.
    tightest: Dict[Vector, Vector] = {}
    for vec in conjunct.ineqs:
        g = _gcd(*vec[:-1])
        if g == 0:
            if vec[-1] < 0:
                return None
            continue
        if g != 1:
            vec = tuple(x // g for x in vec[:-1]) + (vec[-1] // g,)
        key = vec[:-1]
        prev = tightest.get(key)
        if prev is None or vec[-1] < prev[-1]:
            tightest[key] = vec

    if eqs:
        eqs = list(dict.fromkeys(eqs))

    final_ineqs: List[Vector] = []
    promoted: List[Vector] = []
    consumed = set()
    for key, vec in tightest.items():
        if key in consumed:
            continue
        neg_key = tuple(map(_neg, key))
        other = tightest.get(neg_key)
        if other is not None:
            total = vec[-1] + other[-1]
            if total < 0:
                return None
            if total == 0:
                promoted.append(vec)
                consumed.add(neg_key)
                continue
        final_ineqs.append(iv(vec))

    for vec in promoted:
        # A reduced inequality row already has gcd 1: only its sign needs
        # canonicalising to make it an equality row.
        for x in vec:
            if x != 0:
                if x < 0:
                    vec = tuple(map(_neg, vec))
                break
        vec = iv(vec)
        if vec not in eqs:
            eqs.append(vec)

    return Conjunct._make(
        conjunct.n_vars, conjunct.n_div, tuple(eqs), tuple(final_ineqs), normed=True
    )


# --------------------------------------------------------------------------- #
# Batched Fourier–Motzkin pair combination
# --------------------------------------------------------------------------- #
def fm_combine(
    lowers: Sequence[Vector],
    uppers: Sequence[Vector],
    col: int,
    unit_bounds: bool,
) -> Tuple[List[Vector], List[Vector], bool]:
    """All lower×upper FM resultants for column *col* in one batch.

    Returns ``(real_shadow, dark_shadow, all_exact)`` with rows in
    lower-major order.  ``dark_shadow`` is
    empty when *unit_bounds* (the slack vanishes for every pair).
    """
    real: List[Vector] = []
    dark: List[Vector] = []
    all_exact = True
    for lower in lowers:
        b = lower[col]
        for upper in uppers:
            a = -upper[col]
            resultant = tuple(b * u + a * l for u, l in zip(upper, lower))
            real.append(resultant)
            if unit_bounds:
                continue
            slack = (a - 1) * (b - 1)
            if slack:
                all_exact = False
            dark.append(resultant[:-1] + (resultant[-1] - slack,))
    return real, dark, all_exact


# --------------------------------------------------------------------------- #
# Fused column elimination
# --------------------------------------------------------------------------- #
def drop_rows(rows: Sequence[Vector], col: int) -> List[Vector]:
    """Remove column *col* from every row (the rows must not use it)."""
    return [vec[:col] + vec[col + 1 :] for vec in rows]


def substitute_drop(rows: Sequence[Vector], eq: Vector, col: int) -> List[Vector]:
    """Substitute the unit-coefficient equality *eq* for column *col* and
    remove the column, in one pass per row.
    """
    a = eq[col]  # +1 or -1
    out: List[Vector] = []
    for vec in rows:
        b = vec[col]
        if b == 0:
            out.append(vec[:col] + vec[col + 1 :])
        else:
            scale = -a * b
            out.append(
                tuple(
                    vec[j] + scale * eq[j]
                    for j in range(len(vec))
                    if j != col
                )
            )
    return out
