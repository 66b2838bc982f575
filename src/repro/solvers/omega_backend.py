"""The omega core wrapped as a :class:`SolverBackend` (the default).

This backend delegates to the *same* memoized helpers the inline Presburger
path uses (``_union_is_subset`` for the containment and equality tests,
``_union_intersect`` for disjointness, ``omega.is_feasible`` and the default
sampling body), so activating it changes nothing about any verdict, any
cache key, or any operation-cache traffic beyond the query counters —
``--backend omega`` is byte-identical to the inline code path by
construction.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

from ..presburger import omega
from ..presburger.conjunct import Conjunct

# The memoized union helpers are deliberately the private spellings from
# setmap: reusing them (rather than re-deriving the algorithms) is what makes
# "OmegaBackend == inline path" true by construction.
from ..presburger.setmap import _union_intersect, _union_is_subset

from .base import SolverBackend

__all__ = ["OmegaBackend"]


class OmegaBackend(SolverBackend):
    """Fourier–Motzkin / omega-test decision procedure (exact, stdlib-only)."""

    name = "omega"

    def is_feasible(self, conjunct: Conjunct) -> bool:
        self._count("is_feasible")
        return omega.is_feasible(conjunct)

    def is_subset(self, a: Sequence[Conjunct], b: Sequence[Conjunct]) -> bool:
        self._count("is_subset")
        return _union_is_subset(tuple(a), tuple(b))

    def is_equal(self, a: Sequence[Conjunct], b: Sequence[Conjunct]) -> bool:
        self._count("is_equal")
        a, b = tuple(a), tuple(b)
        return _union_is_subset(a, b) and _union_is_subset(b, a)

    def is_disjoint(self, a: Sequence[Conjunct], b: Sequence[Conjunct]) -> bool:
        self._count("is_disjoint")
        return not _union_intersect(tuple(a), tuple(b))

    def sample_point(self, set_like: Any, seed: int = 0, limit: int = 4096) -> Tuple[int, ...]:
        self._count("sample_point")
        return set_like._sample_point_default(seed=seed, limit=limit)
