"""Push-button entry point of the equivalence checker (the tool of Fig. 6).

:func:`check_equivalence` is a thin backward compatible shim over the
session API of :mod:`repro.verifier`: each call builds a
:class:`~repro.verifier.options.CheckOptions` from its keyword arguments and
delegates to a one-shot :class:`~repro.verifier.session.Verifier`.  It
remains the convenient spelling for single checks; callers that check many
pairs (or many variants of one program) should hold a :class:`Verifier`
instead to reuse its compiled-artifact cache and to stream progress through
observers — see ``docs/api.md`` for the migration table.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from ..lang import Program
from .properties import OperatorRegistry
from .result import EquivalenceResult

__all__ = ["check_equivalence"]

ProgramLike = Union[Program, str]


def check_equivalence(
    original: ProgramLike,
    transformed: ProgramLike,
    *,
    method: str = "extended",
    registry: Optional[OperatorRegistry] = None,
    outputs: Optional[Sequence[str]] = None,
    correspondences: Sequence[Tuple[str, str]] = (),
    tabling: bool = True,
    check_preconditions: bool = True,
) -> EquivalenceResult:
    """Check the functional (input–output) equivalence of two program functions.

    Parameters
    ----------
    original, transformed:
        The two functions, as mini-C source text or parsed programs.
    method:
        ``"extended"`` (default) handles expression propagation, loop and
        algebraic transformations; ``"basic"`` disables the algebraic
        normalisation (flattening / matching) and corresponds to the method
        of Section 5.1 / reference [11] of the paper.
    registry:
        Operator property declarations; by default ``+`` and ``*`` are
        associative and commutative.
    outputs:
        Restrict the check to a subset of the output arrays (focused checking).
    correspondences:
        Pairs ``(original_array, transformed_array)`` of intermediate arrays
        declared by the designer to correspond element-wise; they are used as
        cut points and verified separately (focused checking, Section 6.1).
    tabling:
        Enable the reuse of established equivalences across overlapping
        sub-ADDGs (Section 6.2).  Disabling it is only useful for ablation
        benchmarks.
    check_preconditions:
        Run the def-use / single-assignment prerequisites (Fig. 6) first and
        report violations as diagnostics instead of checking equivalence.
    """
    # Imported lazily: repro.verifier depends on this package's engine and
    # result modules, so a module-level import would be circular.
    from ..verifier import CheckOptions, Verifier

    options = CheckOptions.from_registry(
        registry,
        method=method,
        outputs=tuple(outputs) if outputs is not None else None,
        correspondences=tuple((a, b) for a, b in correspondences),
        tabling=tabling,
        check_preconditions=check_preconditions,
    )
    return Verifier().check(original, transformed, options=options)
