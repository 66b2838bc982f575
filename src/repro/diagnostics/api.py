"""Assembling failure reports: the public entry points of the subsystem.

:func:`build_failure_report` turns one non-equivalent
:class:`~repro.checker.result.EquivalenceResult` into a
:class:`~repro.diagnostics.report.FailureReport` by running the three
diagnosis stages (witness synthesis → concrete replay → pipeline bisection)
and cross-linking their evidence.  :func:`diagnose` is the one-shot
convenience over a throwaway :class:`~repro.verifier.session.Verifier`;
sessions call :meth:`~repro.verifier.session.Verifier.diagnose` directly.
:func:`attach_failure_report` is the service-side hook that decorates a
batch :class:`~repro.service.job.JobResult` with its diagnosis (used by the
``fuzz`` CLI and the report aggregator's witness gates).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from ..addg import ADDG, build_addg
from ..analysis import ProgramGeometry
from ..checker.result import EquivalenceResult
from ..lang import Program, parse_program
from ..transforms import TransformStep
from .bisect import bisect_trace
from .replay import CellDiffs, dependency_path, replay_divergence
from .report import FailureReport, OutputWitness
from .witness import synthesize_witnesses

__all__ = ["attach_failure_report", "build_failure_report", "diagnose"]

ProgramOrSource = Union[Program, str]


def _as_program(value: ProgramOrSource) -> Program:
    return parse_program(value) if isinstance(value, str) else value


def _replay_seeds(trials: int, base_seed: int, witness_seed: Optional[int]) -> List[int]:
    """Witness seed first (when the oracle already holds one), then the sweep."""
    seeds = [] if witness_seed is None else [int(witness_seed)]
    seeds.extend(base_seed + trial for trial in range(max(1, trials)))
    return list(dict.fromkeys(seeds))


def _attach_paths(
    witness: OutputWitness,
    diffs: CellDiffs,
    original_addg: Optional[ADDG],
    transformed_addg: Optional[ADDG],
) -> None:
    """Confirm the sampled point against the replay and walk its provenance."""
    cells = diffs.get(witness.array, {})
    if witness.witness_point is not None and diffs:
        witness.point_confirmed = witness.witness_point in cells
    anchor = None
    if witness.witness_point is not None and witness.witness_point in cells:
        anchor = witness.witness_point
    elif cells:
        anchor = min(cells)
    elif witness.witness_point is not None:
        anchor = witness.witness_point
    if anchor is None:
        return
    if original_addg is not None:
        witness.original_path = dependency_path(original_addg, witness.array, anchor)
    if transformed_addg is not None:
        witness.transformed_path = dependency_path(transformed_addg, witness.array, anchor)


def build_failure_report(
    original: ProgramOrSource,
    transformed: ProgramOrSource,
    result: EquivalenceResult,
    *,
    trace: Optional[Sequence[TransformStep]] = None,
    trials: int = 3,
    base_seed: int = 0,
    witness_seed: Optional[int] = None,
    original_addg: Optional[ADDG] = None,
    transformed_addg: Optional[ADDG] = None,
    bisect: bool = True,
) -> FailureReport:
    """Diagnose one checked pair: witnesses, replay, dependency paths, bisection.

    *result* is the verdict to explain (an equivalent verdict yields an empty
    report).  ``witness_seed`` seeds the replay first when an external oracle
    already distinguished the pair (its witness then replays before the
    ``base_seed`` sweep); ``trace`` enables pipeline bisection when its steps
    carry snapshots.  Pre-extracted ADDGs are accepted so sessions can reuse
    their compiled artifacts.
    """
    original = _as_program(original)
    transformed = _as_program(transformed)
    if result.equivalent:
        return FailureReport(
            equivalent=True,
            confirmed=False,
            notes=("check verdict was EQUIVALENT; nothing to diagnose",),
        )

    notes: List[str] = []
    seeds = _replay_seeds(trials, base_seed, witness_seed)
    replay, diffs = replay_divergence(original, transformed, seeds)
    if replay.original_error is not None:
        notes.append(
            "original program fails at runtime on the sampled inputs; replay is inconclusive"
        )

    if original_addg is None:
        original_addg = _safe_addg(original, "original", notes)
    if transformed_addg is None:
        transformed_addg = _safe_addg(transformed, "transformed", notes)

    witnesses = synthesize_witnesses(result, seed=base_seed)
    for witness in witnesses:
        _attach_paths(witness, diffs, original_addg, transformed_addg)

    bisection = None
    if bisect and trace:
        bisection = bisect_trace(original, trace, trials=trials, base_seed=base_seed)

    return FailureReport(
        equivalent=False,
        confirmed=replay.diverged,
        outputs=witnesses,
        replay=replay,
        bisection=bisection,
        notes=tuple(notes),
    )


def _safe_addg(program: Program, side: str, notes: List[str]) -> Optional[ADDG]:
    try:
        return build_addg(ProgramGeometry(program))
    except Exception as error:  # extraction can fail outside the allowed class
        notes.append(f"cannot extract the {side} ADDG for dependency paths: {error}")
        return None


def diagnose(
    original: ProgramOrSource,
    transformed: ProgramOrSource,
    options: Optional[Any] = None,
    **kwargs: Any,
) -> FailureReport:
    """Check the pair and diagnose the verdict in one shot.

    A convenience over a throwaway :class:`~repro.verifier.session.Verifier`
    session — see :meth:`Verifier.diagnose` for the keyword arguments.
    """
    from ..verifier import Verifier

    return Verifier(options=options).diagnose(original, transformed, **kwargs)


def attach_failure_report(
    outcome: Any,
    job: Any,
    *,
    trials: int = 3,
    base_seed: int = 0,
    verifier: Optional[Any] = None,
) -> Optional[FailureReport]:
    """Diagnose a completed batch job and store the report in its metadata.

    *outcome* is a :class:`~repro.service.job.JobResult` and *job* the
    :class:`~repro.service.job.VerificationJob` it came from (matched by the
    caller).  Only completed, non-equivalent outcomes with a retained checker
    result are diagnosed; the transformation trace and the oracle witness
    seed are picked up from the job metadata when present.  Pass a shared
    :class:`~repro.verifier.session.Verifier` so a batch of related pairs
    (e.g. twins of one base original) reuses compiled frontend artifacts.
    Returns the report (also serialised into
    ``outcome.metadata["failure_report"]``), or ``None`` when the outcome is
    not diagnosable.
    """
    if job is None or outcome.result is None or outcome.equivalent is not False:
        return None
    if verifier is None:
        from ..verifier import Verifier

        verifier = Verifier()
    metadata = outcome.metadata or {}
    trace = [TransformStep.from_dict(step) for step in metadata.get("trace") or []]
    witness_seed = (metadata.get("oracle") or {}).get("witness_seed")
    report = verifier.diagnose(
        job.original_source,
        job.transformed_source,
        result=outcome.result,
        trace=trace or None,
        replay_trials=trials,
        replay_seed=base_seed,
        witness_seed=witness_seed,
    )
    outcome.metadata["failure_report"] = report.to_dict()
    return report
