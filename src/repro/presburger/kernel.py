"""Flat-matrix constraint kernel: batched row operations for the hot path.

The Presburger algorithms in :mod:`repro.presburger.omega` were written
object-at-a-time: every :class:`~repro.presburger.conjunct.Conjunct`
construction re-validates each row, every call to ``normalize`` recomputes
gcds element by element through :func:`vector_gcd`, and the Fourier–Motzkin
pair combination allocates one Python list per resultant.  Profiling the
repeated-composition workload shows those per-row Python loops (and the
constructor's ``_check``) dominate the runtime once the operation cache has
removed the repeated *logical* work.

This module re-backs those operations with a flat layout: a conjunct's
constraint block is treated as an integer matrix stored as a tuple of row
tuples (the storage :class:`Conjunct` already uses — so no conversion cost
at the boundary), and the kernel operates on whole row batches at once:

* ``normalize_conjunct`` — gcd reduction (C-level ``math.gcd(*row)``), sign
  canonicalisation, floor-tightening, duplicate/tightest-inequality
  reduction and opposite-pair promotion in one pass over all rows, building
  the result through the trusted :meth:`Conjunct._make` constructor (the
  rows are already validated tuples of ints, so per-row ``_check`` is pure
  overhead).  Results carry the ``_normed`` idempotence flag, which lets the
  feasibility/elimination recursion skip re-normalising values that are
  already normal forms (``normalize`` is idempotent, so the skip is
  bit-for-bit identical).
* ``fm_combine`` — the Fourier–Motzkin lower×upper pair combination as one
  batched pass: every resultant and its dark-shadow row come out of a single
  pairing loop.  The batches are tiny in practice (a handful of pairs per
  eliminated column), so plain Python ints are the right representation.
  Pair order, dark-shadow slack and exactness bookkeeping match the object
  path bit for bit.
* ``drop_rows`` / ``substitute_drop`` — fused column elimination: apply a
  unit-coefficient substitution and remove the column in a single
  comprehension instead of substitute → construct → validate → drop →
  construct → validate.
* ``feasible_many`` — batched feasibility over all conjuncts of one
  ``Set``: one metrics increment, one normalisation sweep (near-free for
  ``_normed`` members) and the recursion only for the hard remainder.

Mode selection
--------------

``REPRO_KERNEL`` (environment variable)
    ``flat`` (the default) routes the hot path through this module;
    ``object`` keeps the original per-object code, byte-for-byte as it was
    — the ablation baseline for ``bench_presburger --kernel-ablation`` and
    the differential tests.

:func:`configure` / :func:`use`
    Programmatic runtime switch and a context manager for scoped ablation.

Both modes produce bit-identical verdicts and bit-identical ``Set``/``Map``
values; ``tests/unit/presburger/test_kernel.py`` sweeps the differential
corpus under both modes and asserts exact equality of the results, and the
solver cross-check suite gates end-to-end verdict identity.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from math import gcd as _gcd
from typing import Iterator, List, Optional, Sequence, Tuple

from .conjunct import Conjunct, Vector
from . import opcache as _opcache

__all__ = [
    "KERNEL_VERSION",
    "active_mode",
    "configure",
    "drop_rows",
    "feasible_many",
    "fingerprint",
    "fm_combine",
    "normalize_conjunct",
    "substitute_drop",
    "use",
]

#: Bumped whenever the kernel's observable row layout or normal form
#: changes; folded into the persistent-cache fingerprint so stale on-disk
#: results can never leak across kernel revisions.
KERNEL_VERSION = 1


def _env_mode() -> str:
    raw = os.environ.get("REPRO_KERNEL", "").strip().lower()
    return raw if raw in ("flat", "object") else "flat"


#: True when the flat-matrix kernel is active (module-global so the omega
#: hot path pays one attribute read, not a function call, per dispatch).
FLAT = _env_mode() == "flat"


def active_mode() -> str:
    """The current kernel mode: ``"flat"`` or ``"object"``."""
    return "flat" if FLAT else "object"


def configure(mode: str) -> None:
    """Select the kernel mode at runtime (``"flat"`` or ``"object"``)."""
    global FLAT
    if mode not in ("flat", "object"):
        raise ValueError(f"unknown kernel mode {mode!r} (expected 'flat' or 'object')")
    FLAT = mode == "flat"


@contextmanager
def use(mode: str) -> Iterator[None]:
    """Context manager: run a block under the given kernel mode.

    Used by the ablation benchmark and the differential tests; verdicts are
    identical either way, only the execution strategy changes.
    """
    previous = active_mode()
    configure(mode)
    try:
        yield
    finally:
        configure(previous)


def fingerprint() -> str:
    """The kernel revision folded into the persistent-cache fingerprint.

    Deliberately independent of the *active mode*: flat and object produce
    bit-identical results, so a warm on-disk cache is shared across modes.
    """
    return f"kernel-v{KERNEL_VERSION}"


# --------------------------------------------------------------------------- #
# Batched normalisation
# --------------------------------------------------------------------------- #
def normalize_conjunct(conjunct: Conjunct) -> Optional[Conjunct]:
    """Flat-matrix :func:`repro.presburger.omega.normalize` (bit-identical).

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
                    reduced = tuple(-y for y in reduced)
                break
        eqs.append(iv(reduced))

    ineqs: List[Vector] = []
    for vec in conjunct.ineqs:
        g = _gcd(*vec[:-1])
        if g == 0:
            if vec[-1] < 0:
                return None
            continue
        if g == 1:
            reduced = vec
        else:
            reduced = tuple(x // g for x in vec[:-1]) + (vec[-1] // g,)
        ineqs.append(iv(reduced))

    if eqs:
        eqs = list(dict.fromkeys(eqs))

    tightest = {}
    for vec in ineqs:
        key = vec[:-1]
        constant = vec[-1]
        prev = tightest.get(key)
        if prev is None or constant < prev:
            tightest[key] = constant

    final_ineqs: List[Vector] = []
    promoted: List[Vector] = []
    consumed = set()
    for key, constant in tightest.items():
        if key in consumed:
            continue
        neg_key = tuple(-x for x in key)
        other = tightest.get(neg_key)
        if other is not None and neg_key != key:
            total = constant + other
            if total < 0:
                return None
            if total == 0:
                promoted.append(key + (constant,))
                consumed.add(key)
                consumed.add(neg_key)
                continue
        final_ineqs.append(iv(key + (constant,)))

    for vec in promoted:
        g = _gcd(*vec[:-1])
        if g == 0:
            if vec[-1] != 0:
                return None
            continue
        if vec[-1] % g:
            return None
        reduced = tuple(x // g for x in vec)
        for x in reduced:
            if x != 0:
                if x < 0:
                    reduced = tuple(-y for y in reduced)
                break
        reduced = iv(reduced)
        if reduced not in eqs:
            eqs.append(reduced)

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

    Returns ``(real_shadow, dark_shadow, all_exact)`` with rows in the same
    lower-major order as the object path's nested loop.  ``dark_shadow`` is
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

    Equivalent to ``_apply_substitution`` followed by ``drop_col`` on the
    object path, without the two intermediate constructions.
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


# --------------------------------------------------------------------------- #
# Batched feasibility
# --------------------------------------------------------------------------- #
def feasible_many(conjuncts: Sequence[Conjunct]) -> List[bool]:
    """Integer feasibility of every conjunct of one ``Set`` in one pass.

    One batched metrics increment, one normalisation sweep (a no-op for
    ``_normed`` members, i.e. the common case of freshly simplified
    conjuncts) and the elimination recursion only for the hard remainder.
    Bit-identical to mapping :func:`repro.presburger.omega.is_feasible`.
    """
    from . import omega as _omega

    if _omega._METRICS.enabled and conjuncts:
        _omega._METRICS.inc("presburger.feasibility_checks", len(conjuncts))
    results: List[bool] = []
    for conjunct in conjuncts:
        if conjunct.is_universe():
            results.append(True)
            continue
        normalized = _omega.normalize(conjunct)
        if normalized is None:
            results.append(False)
            continue
        if normalized.is_universe():
            results.append(True)
            continue
        if normalized.const_col == 0:
            results.append(
                all(v[-1] == 0 for v in normalized.eqs)
                and all(v[-1] >= 0 for v in normalized.ineqs)
            )
            continue
        col = _omega._choose_elimination_col(normalized)
        results.append(
            any(
                _omega.is_feasible(piece)
                for piece in _omega.eliminate_col(normalized, col)
            )
        )
    return results
