"""Differential execution of two decision backends on every query.

The PR 4 scenario engine compares the checker against an interpreter
oracle; this backend applies the same idea one layer down and compares two
decision procedures against each other.  Every query runs on both backends
and is counted as ``crosscheck.agreements``, ``crosscheck.abstentions``
(the secondary raised :class:`~repro.solvers.base.Abstain`; the primary's
answer stands) or ``crosscheck.disagreements``.  A disagreement raises
:class:`~repro.solvers.base.BackendDisagreement` with the serialized
query, so the exact constraint system that split the solvers can be
replayed offline (:func:`~repro.solvers.base.replay_query`).

``sample_point`` is cross-checked by *membership*, not by point identity:
both backends may legitimately return different witnesses of the same set,
so the secondary verifies that the primary's point satisfies the
constraints instead of re-deriving it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Sequence, Tuple

from ..presburger.conjunct import Conjunct

from .base import Abstain, BackendDisagreement, SolverBackend, serialize_query

__all__ = ["CrossCheckBackend"]


class CrossCheckBackend(SolverBackend):
    """Run *primary* and *secondary* on each query; alarm on any divergence."""

    name = "crosscheck"

    def __init__(self, primary: SolverBackend, secondary: SolverBackend) -> None:
        super().__init__()
        self.primary = primary
        self.secondary = secondary

    # ------------------------------------------------------------------ #
    @property
    def query_counts(self) -> Dict[str, int]:  # type: ignore[override]
        """Own counters merged with both children's (distinct name prefixes)."""
        merged = dict(self._own_counts)
        merged.update(self.primary.query_counts)
        merged.update(self.secondary.query_counts)
        return merged

    @query_counts.setter
    def query_counts(self, value: Dict[str, int]) -> None:
        self._own_counts = value

    def _count(self, kind: str) -> None:
        # The merged `query_counts` view is a copy; counters live in
        # `_own_counts` so increments are not lost.
        key = f"{self.name}.{kind}"
        self._own_counts[key] = self._own_counts.get(key, 0) + 1

    # ------------------------------------------------------------------ #
    def _settle(self, first: Any, second: Callable[[], Any], query: Callable[[], Dict[str, Any]]) -> Any:
        """Compare *first* with the secondary's answer; *first* is the verdict."""
        try:
            answer = second()
        except Abstain:
            self._count("abstentions")
            return first
        if answer == first:
            self._count("agreements")
            return first
        self._count("disagreements")
        raise BackendDisagreement(query(), self.primary.name, self.secondary.name, first, answer)

    def _run(self, kind: str, *args: Any) -> Any:
        return self._settle(
            getattr(self.primary, kind)(*args),
            lambda: getattr(self.secondary, kind)(*args),
            lambda: serialize_query(kind, *args),
        )

    def is_feasible(self, conjunct: Conjunct) -> bool:
        return self._run("is_feasible", conjunct)

    def is_subset(self, a: Sequence[Conjunct], b: Sequence[Conjunct]) -> bool:
        return self._run("is_subset", a, b)

    def is_equal(self, a: Sequence[Conjunct], b: Sequence[Conjunct]) -> bool:
        return self._run("is_equal", a, b)

    def is_disjoint(self, a: Sequence[Conjunct], b: Sequence[Conjunct]) -> bool:
        return self._run("is_disjoint", a, b)

    def sample_point(self, set_like: Any, seed: int = 0, limit: int = 4096) -> Tuple[int, ...]:
        point = self.primary.sample_point(set_like, seed=seed, limit=limit)
        self._settle(
            True,
            lambda: any(
                self.secondary.is_feasible(conjunct.substitute_vars(list(point)))
                for conjunct in set_like.conjuncts
            ),
            lambda: serialize_query("sample_point", set_like.conjuncts, seed=seed, limit=limit),
        )
        return point
