"""The decision-procedure backend protocol and its wire format.

A :class:`SolverBackend` answers the five *decision queries* the checker
stack actually issues against the Presburger layer:

* ``is_feasible(conjunct)`` — satisfiability of one conjunct (membership
  tests substitute a concrete point first);
* ``is_subset(a, b)`` / ``is_equal(a, b)`` / ``is_disjoint(a, b)`` — over
  two unions of conjuncts (the bodies of a :class:`~repro.presburger.Set`
  or :class:`~repro.presburger.Map`);
* ``sample_point(set_like, seed, limit)`` — model extraction: a concrete
  integer point of a non-empty set.

Construction-time simplification (``_clean``), projection, composition and
the rest of the relation *algebra* stay on the omega core unconditionally —
backends second-source the *verdicts*, not the rewriting.

Every query increments ``query_counts["<backend>.<kind>"]`` so reports can
say which procedure (and how often) produced a verdict.  Queries are
serialisable (:func:`serialize_query` / :func:`replay_query`): a
:class:`BackendDisagreement` carries the serialized query that diverged, so
it can be replayed against any backend offline.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..presburger.conjunct import Conjunct

__all__ = [
    "SolverBackend",
    "Abstain",
    "BackendDisagreement",
    "SolverError",
    "SolverUnavailableError",
    "conjunct_to_dict",
    "conjunct_from_dict",
    "serialize_query",
    "replay_query",
]


class SolverError(RuntimeError):
    """A backend failed to answer a query (solver crash, unparsable reply, ...)."""


class SolverUnavailableError(SolverError):
    """The requested backend cannot run here (missing binary or module)."""


class Abstain(SolverError):
    """A backend cannot decide this query and declines rather than guess."""


class BackendDisagreement(BaseException):
    """Two backends returned different verdicts for the same decision query.

    Inherits :class:`BaseException` (not :class:`Exception`) for the same
    reason :class:`~repro.verifier.watchdog.JobTimeoutError` does: a
    disagreement is a soundness alarm that must reach the executor even
    through the checker's broad internal ``except Exception`` recovery
    paths.  The serialized query rides along for offline replay
    (:func:`replay_query`).
    """

    def __init__(self, query: Dict[str, Any], primary: str, secondary: str,
                 primary_result: Any, secondary_result: Any) -> None:
        super().__init__(
            f"backend disagreement on {query.get('kind')!r}: "
            f"{primary}={primary_result!r} vs {secondary}={secondary_result!r}"
        )
        self.query = query
        self.primary = primary
        self.secondary = secondary
        self.primary_result = primary_result
        self.secondary_result = secondary_result

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable rendering (embedded in ERROR job results)."""
        return {
            "query": self.query,
            "primary": self.primary,
            "secondary": self.secondary,
            "primary_result": _jsonable(self.primary_result),
            "secondary_result": _jsonable(self.secondary_result),
        }


def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return list(value)
    return value


class SolverBackend(abc.ABC):
    """Abstract decision-procedure backend.

    Subclasses set :attr:`name` and implement the five queries over raw
    :class:`~repro.presburger.conjunct.Conjunct` tuples.  The base class
    owns the per-kind query counters.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self.query_counts: Dict[str, int] = {}

    def _count(self, kind: str) -> None:
        key = f"{self.name}.{kind}"
        self.query_counts[key] = self.query_counts.get(key, 0) + 1

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def is_feasible(self, conjunct: Conjunct) -> bool:
        """Does *conjunct* have an integer solution?"""

    @abc.abstractmethod
    def is_subset(self, a: Sequence[Conjunct], b: Sequence[Conjunct]) -> bool:
        """Is the union *a* contained in the union *b*?"""

    @abc.abstractmethod
    def is_equal(self, a: Sequence[Conjunct], b: Sequence[Conjunct]) -> bool:
        """Do the unions *a* and *b* describe the same integer set?"""

    @abc.abstractmethod
    def is_disjoint(self, a: Sequence[Conjunct], b: Sequence[Conjunct]) -> bool:
        """Is the intersection of the unions *a* and *b* empty?"""

    @abc.abstractmethod
    def sample_point(self, set_like: Any, seed: int = 0, limit: int = 4096) -> Tuple[int, ...]:
        """A concrete integer point of the non-empty :class:`Set` *set_like*."""


# --------------------------------------------------------------------------- #
# Query wire format
# --------------------------------------------------------------------------- #
def conjunct_to_dict(conjunct: Conjunct) -> Dict[str, Any]:
    """JSON-serialisable rendering of a conjunct; inverse of :func:`conjunct_from_dict`."""
    return {
        "n_vars": conjunct.n_vars,
        "n_div": conjunct.n_div,
        "eqs": [list(vec) for vec in conjunct.eqs],
        "ineqs": [list(vec) for vec in conjunct.ineqs],
    }


def conjunct_from_dict(data: Dict[str, Any]) -> Conjunct:
    return Conjunct(
        int(data["n_vars"]),
        int(data.get("n_div", 0)),
        eqs=tuple(tuple(int(x) for x in vec) for vec in data.get("eqs", ())),
        ineqs=tuple(tuple(int(x) for x in vec) for vec in data.get("ineqs", ())),
    )


def serialize_query(
    kind: str,
    a: Sequence[Conjunct],
    b: Optional[Sequence[Conjunct]] = None,
    *,
    seed: Optional[int] = None,
    limit: Optional[int] = None,
) -> Dict[str, Any]:
    """The portable form of one decision query (carried by disagreements)."""
    payload: Dict[str, Any] = {
        "kind": kind,
        "a": [conjunct_to_dict(c) for c in a],
    }
    if b is not None:
        payload["b"] = [conjunct_to_dict(c) for c in b]
    if seed is not None:
        payload["seed"] = seed
    if limit is not None:
        payload["limit"] = limit
    return payload


def replay_query(query: Dict[str, Any], backend: "SolverBackend") -> Any:
    """Run a serialized query against *backend* and return its answer.

    The inverse of :func:`serialize_query`: replays the exact decision that
    produced a :class:`BackendDisagreement` so divergences can be reduced
    offline against any backend.
    """
    kind = query["kind"]
    a: List[Conjunct] = [conjunct_from_dict(c) for c in query.get("a", ())]
    b: List[Conjunct] = [conjunct_from_dict(c) for c in query.get("b", ())]
    if kind == "is_feasible":
        if len(a) != 1:
            raise ValueError("is_feasible query must carry exactly one conjunct")
        return backend.is_feasible(a[0])
    if kind == "is_subset":
        return backend.is_subset(tuple(a), tuple(b))
    if kind == "is_equal":
        return backend.is_equal(tuple(a), tuple(b))
    if kind == "is_disjoint":
        return backend.is_disjoint(tuple(a), tuple(b))
    if kind == "sample_point":
        from ..presburger.setmap import Set

        arity = a[0].n_vars if a else 0
        names = tuple(f"d{i}" for i in range(arity))
        set_like = Set(names, tuple(a), _clean_input=False)
        return backend.sample_point(
            set_like, seed=int(query.get("seed", 0)), limit=int(query.get("limit", 4096))
        )
    raise ValueError(f"unknown query kind {kind!r}")
