"""The unified option set of one equivalence check.

Every layer of the tool — the :class:`~repro.verifier.session.Verifier`
session API, the :func:`repro.checker.api.check_equivalence` shim, the batch
service's :class:`~repro.service.job.VerificationJob` and the CLI — describes
*how* to check with the same frozen value: a :class:`CheckOptions`.  Before
this type existed the option set was re-spelled (with drift) by every
consumer; now a single value travels the whole pipeline and its
:meth:`~CheckOptions.fingerprint` participates in the service result-cache
key, so verdicts computed under different options can never alias.

Operator declarations are carried in picklable, hashable form — ``(name,
props)`` pairs where ``props`` is a string drawn from ``"A"`` (associative)
and ``"C"`` (commutative) — rather than as an
:class:`~repro.checker.properties.OperatorRegistry` object, which keeps the
options value frozen, serialisable and cheap to fingerprint.  ``operators``
is the *complete* declaration set: ``None`` means the paper's default
registry (``+`` and ``*`` associative-commutative), ``()`` means no algebraic
laws at all.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Optional, Tuple

from ..checker.properties import OperatorRegistry, default_registry

__all__ = ["CheckOptions", "OPTIONS_FINGERPRINT_VERSION", "BACKEND_NAMES"]

#: Bump when the canonical fingerprint payload of :meth:`CheckOptions.fingerprint`
#: changes meaning, so stale fingerprints can never collide with new ones.
#: Version 2: ``backend`` joined the payload (PR 8).
OPTIONS_FINGERPRINT_VERSION = 2

#: The selectable decision-procedure backends (see :mod:`repro.solvers`),
#: the one list the CLI choices and :func:`repro.solvers.get_backend` follow.
BACKEND_NAMES = ("omega", "smtlib", "crosscheck")

OperatorDecls = Tuple[Tuple[str, str], ...]


def _canonical_props(props: str) -> str:
    upper = props.upper()
    return "".join(letter for letter in "AC" if letter in upper)


def _canonical_operators(entries: Iterable[Tuple[str, str]]) -> OperatorDecls:
    """Sort declarations and normalise props; drop no-op (empty) declarations."""
    canonical = {}
    for op, props in entries:
        canonical[str(op)] = _canonical_props(str(props))
    return tuple(sorted((op, props) for op, props in canonical.items() if props))


def _registry_operators(registry: OperatorRegistry) -> OperatorDecls:
    return _canonical_operators(
        (op, ("A" if props.associative else "") + ("C" if props.commutative else ""))
        for op, props in registry.items()
    )


_DEFAULT_OPERATORS = _registry_operators(default_registry())


def is_budget(value: Any) -> bool:
    """The one rule for a wall-clock budget, wherever one enters the tool.

    ``None`` (no budget) or a finite, non-negative number of seconds the
    watchdog timer can wait on: at most ``threading.TIMEOUT_MAX``, beyond
    which the timer thread dies and the check would silently run unbudgeted.
    ``0`` means unlimited, like ``None``.  The CLI budget flags,
    :class:`CheckOptions` and the daemon's request ``timeout`` all apply it.
    """
    return value is None or (
        not isinstance(value, bool)
        and isinstance(value, (int, float))
        and 0 <= value <= threading.TIMEOUT_MAX
    )


@dataclass(frozen=True)
class CheckOptions:
    """Everything that can influence the verdict of one equivalence check.

    Parameters
    ----------
    method:
        ``"extended"`` (default) or ``"basic"`` (Section 5.1: no algebraic
        normalisation).
    operators:
        The complete operator declaration set as ``(name, props)`` pairs
        (``props`` ⊆ ``"AC"``).  ``None`` selects the default registry of the
        paper; an explicit tuple replaces it entirely.
    outputs:
        Restrict the check to these output arrays (focused checking), or
        ``None`` for all common outputs.
    correspondences:
        Designer-declared intermediate array correspondences used as cut
        points (Section 6.1).
    tabling:
        Reuse established equivalences across overlapping sub-ADDGs
        (Section 6.2).
    check_preconditions:
        Run the def-use / single-assignment prerequisites first.
    timeout:
        Per-check wall-clock budget in seconds, enforced by the batch
        service's executor: a finite, non-negative number (``0`` or
        ``None``: unlimited; see :func:`is_budget`).  The timeout cannot change
        a *computed* verdict, so it does not participate in
        :meth:`fingerprint`.
    backend:
        The decision-procedure backend answering the Presburger queries:
        ``"omega"`` (default, the paper's core), ``"smtlib"`` (external
        SMT solver via SMT-LIB2 text) or ``"crosscheck"`` (omega *and* the
        enumeration partner on every query, hard error on divergence).  Participates in
        :meth:`fingerprint` — a verdict computed by one backend must never
        be served for another.
    smt_solver:
        Solver command for the ``smtlib`` backend (e.g. ``z3``,
        ``cvc5 --lang smt2``); ``None`` picks ``z3``, else ``cvc5``, on
        PATH.  Like ``timeout`` it is
        excluded from :meth:`fingerprint`: any sound SMT-LIB2 solver must
        produce the same verdict, and a solver that doesn't is a bug to
        surface, not a distinct cache universe.

    Where the Presburger operation cache keeps its work is not an option of
    a check: it is process state, attached once by the process that owns the
    run (see :func:`repro.presburger.opcache.attach_persistent`).
    """

    method: str = "extended"
    operators: Optional[OperatorDecls] = None
    outputs: Optional[Tuple[str, ...]] = None
    correspondences: Tuple[Tuple[str, str], ...] = ()
    tabling: bool = True
    check_preconditions: bool = True
    timeout: Optional[float] = None
    backend: str = "omega"
    smt_solver: Optional[str] = None

    def __post_init__(self) -> None:
        if self.method not in ("basic", "extended"):
            raise ValueError(f"unknown method {self.method!r} (expected 'basic' or 'extended')")
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r} (expected one of {', '.join(BACKEND_NAMES)})"
            )
        if not is_budget(self.timeout):
            raise ValueError(
                "timeout must be a finite, non-negative number of seconds or None, "
                f"got {self.timeout!r}"
            )
        if self.operators is not None:
            canonical = _canonical_operators(self.operators)
            # An explicit spelling of the default registry collapses onto the
            # ``None`` form so semantically equal options compare equal.
            object.__setattr__(
                self, "operators", None if canonical == _DEFAULT_OPERATORS else canonical
            )
        if self.outputs is not None:
            object.__setattr__(self, "outputs", tuple(str(name) for name in self.outputs))
        object.__setattr__(
            self,
            "correspondences",
            tuple((str(a), str(b)) for a, b in self.correspondences),
        )

    # ------------------------------------------------------------------ #
    @classmethod
    def from_registry(cls, registry: Optional[OperatorRegistry], **kwargs: Any) -> "CheckOptions":
        """Build options from an :class:`OperatorRegistry` value (or ``None``).

        The registry is flattened into the picklable ``operators`` form; the
        remaining keyword arguments are the other :class:`CheckOptions`
        fields.
        """
        operators = None if registry is None else _registry_operators(registry)
        return cls(operators=operators, **kwargs)

    def registry(self) -> OperatorRegistry:
        """Materialise the operator declarations as an :class:`OperatorRegistry`."""
        if self.operators is None:
            return default_registry()
        registry = OperatorRegistry()
        for op, props in self.operators:
            registry.declare(op, associative="A" in props, commutative="C" in props)
        return registry

    def resolved_operators(self) -> OperatorDecls:
        """The complete declaration set with ``None`` resolved to the default."""
        return _DEFAULT_OPERATORS if self.operators is None else self.operators

    def replace(self, **changes: Any) -> "CheckOptions":
        """A copy with the given fields changed (:func:`dataclasses.replace`)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable rendering; inverse of :meth:`from_dict`."""
        return {
            "method": self.method,
            "operators": (
                None if self.operators is None else [list(pair) for pair in self.operators]
            ),
            "outputs": None if self.outputs is None else list(self.outputs),
            "correspondences": [list(pair) for pair in self.correspondences],
            "tabling": self.tabling,
            "check_preconditions": self.check_preconditions,
            "timeout": self.timeout,
            "backend": self.backend,
            "smt_solver": self.smt_solver,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CheckOptions":
        """Inverse of :meth:`to_dict`.  Unknown keys are ignored, so option
        blocks written by older versions keep loading."""
        operators = data.get("operators")
        outputs = data.get("outputs")
        return cls(
            method=data.get("method", "extended"),
            operators=None if operators is None else tuple((op, props) for op, props in operators),
            outputs=None if outputs is None else tuple(outputs),
            correspondences=tuple((a, b) for a, b in data.get("correspondences", ())),
            tabling=data.get("tabling", True),
            check_preconditions=data.get("check_preconditions", True),
            timeout=data.get("timeout"),
            backend=data.get("backend", "omega"),
            smt_solver=data.get("smt_solver"),
        )

    def fingerprint(self) -> str:
        """A stable SHA-256 hex digest of the verdict-relevant option set.

        Two options values fingerprint equally iff they describe the same
        check semantics: the operator set is resolved (``None`` and the
        explicit default spelling collapse), correspondences are order
        insensitive, and ``timeout`` — which can only abort a check, never
        change a computed verdict — is excluded.  The service folds this
        digest into its result-cache key so a ``basic``-method verdict can
        never be served for an ``extended`` request.
        """
        payload = {
            "version": OPTIONS_FINGERPRINT_VERSION,
            "method": self.method,
            "operators": [list(pair) for pair in self.resolved_operators()],
            "outputs": None if self.outputs is None else list(self.outputs),
            "correspondences": sorted([a, b] for a, b in self.correspondences),
            "tabling": self.tabling,
            "check_preconditions": self.check_preconditions,
            "backend": self.backend,
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()
