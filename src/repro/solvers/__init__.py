"""Pluggable decision-procedure backends for the Presburger layer.

The paper's verdicts ultimately rest on one decision procedure: the
hand-rolled omega / Fourier–Motzkin core of :mod:`repro.presburger`.  This
package second-sources those decisions behind a small protocol:

* :class:`OmegaBackend` — the existing omega core (default; activating it
  is byte-identical to the inline path);
* :class:`SmtLibBackend` — compiles the queries to SMT-LIB2 ``LIA`` text
  and solves via an external solver binary (z3, cvc5);
* :class:`~repro.solvers.enum_backend.EnumBackend` — brute-force
  enumeration over bounded integer points, sharing no code with the omega
  core; it abstains (:class:`~repro.solvers.base.Abstain`) rather than
  guess;
* :class:`CrossCheckBackend` — runs omega and the enumeration partner on
  every query and raises :class:`BackendDisagreement` (carrying the
  serialized query, replayable with :func:`replay_query`) on any
  divergence.

Selection travels as ``CheckOptions.backend`` (``--backend`` on the CLI)
and is folded into the options fingerprint, so verdicts never alias across
backends in any cache.  Activation is scoped:
:func:`use_backend` installs the backend on the Presburger layer's
context-local hook for the duration of one check.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional, Tuple

from ..presburger import hooks as _hooks

from .base import (
    BackendDisagreement,
    SolverBackend,
    SolverError,
    SolverUnavailableError,
    conjunct_from_dict,
    conjunct_to_dict,
    replay_query,
    serialize_query,
)
from .crosscheck import CrossCheckBackend
from .enum_backend import EnumBackend
from .omega_backend import OmegaBackend
from .smtlib import SmtLibBackend, resolve_solver_command

__all__ = [
    "BackendDisagreement",
    "CrossCheckBackend",
    "OmegaBackend",
    "SmtLibBackend",
    "SolverBackend",
    "SolverError",
    "SolverUnavailableError",
    "available_backends",
    "conjunct_from_dict",
    "conjunct_to_dict",
    "get_backend",
    "replay_query",
    "resolve_solver_command",
    "serialize_query",
    "use_backend",
]

def get_backend(name: str, smt_solver: Optional[str] = None) -> SolverBackend:
    """Construct the backend *name* (a fresh instance with zeroed counters).

    ``smt_solver`` picks the external solver command for ``smtlib``
    (default: ``z3`` > ``cvc5`` on PATH).  ``crosscheck`` always pairs the
    omega core with the enumeration partner.  Raises
    :class:`SolverUnavailableError` when the requested backend cannot run
    here and :class:`ValueError` for unknown names.
    """
    if name == "omega":
        return OmegaBackend()
    if name == "smtlib":
        return SmtLibBackend(smt_solver)
    if name == "crosscheck":
        return CrossCheckBackend(OmegaBackend(), EnumBackend())
    raise ValueError(f"unknown backend {name!r}")


def available_backends() -> Tuple[str, ...]:
    """The backend names that can actually be constructed on this machine."""
    names = ["omega"]
    try:
        resolve_solver_command()
        names.append("smtlib")
    except SolverUnavailableError:
        pass
    names.append("crosscheck")
    return tuple(names)


@contextlib.contextmanager
def use_backend(
    name: str, smt_solver: Optional[str] = None
) -> Iterator[Optional[SolverBackend]]:
    """Route Presburger decision queries to backend *name* within the block.

    Yields the live backend instance (for counter inspection), or ``None``
    for ``"omega"`` — the default backend *is* the inline path, so nothing
    is installed and the pre-backend behaviour is preserved exactly,
    including zero counter overhead.
    """
    if name == "omega":
        yield None
        return
    backend = get_backend(name, smt_solver)
    with _hooks.activate(backend):
        yield backend
