"""The session API of the equivalence checker (the pipeline of Fig. 6).

The paper's tool is a pipeline — parse/validate → def-use prerequisites →
ADDG extraction → synchronized Presburger traversal — and this module
exposes it as explicit stages instead of one kwargs-heavy function call:

* :meth:`Verifier.compile` runs the *frontend* once per program and returns
  a :class:`CompiledProgram` (parsed AST + def-use report + extracted ADDG),
  cached inside the session so checking N transformed variants against one
  original pays the original's frontend exactly once — the paper's
  Section 6.2 sub-ADDG reuse insight lifted one level up, to whole programs;
* :meth:`Verifier.check` runs the *engine* (the synchronized traversal) over
  two compiled programs under a :class:`~repro.verifier.options.CheckOptions`
  value, streaming milestones to registered
  :class:`~repro.verifier.events.CheckObserver` values;
:func:`repro.checker.api.check_equivalence` remains as a thin one-shot shim
over a throwaway session.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..addg import ADDG, build_addg
from ..analysis import check_dataflow
from ..lang import Program, parse_program, program_to_text
from ..presburger import Map
from ..checker.engine import Engine
from ..checker.result import (
    CheckStats,
    Diagnostic,
    DiagnosticKind,
    EquivalenceResult,
    OutputReport,
)
from ..telemetry import TRACER, aggregate_phase_seconds, current_request
from .events import CheckObserver, _Broadcast
from .options import CheckOptions

__all__ = ["CompiledProgram", "Verifier", "normalized_program_text", "ProgramLike"]

ProgramLike = Union[Program, str, "CompiledProgram"]


def normalized_program_text(program: Program) -> str:
    """Canonical source text of a parsed program (pretty-print, no ``#define``).

    The parser folds ``#define`` constants into the body, so the re-emitted
    preamble is inert decoration; dropping it makes the canonical form
    independent of whether sizes were spelled as macros or literals.  This is
    the normal form the service fingerprints hash.
    """
    text = program_to_text(program)
    return "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("#define")
    ).lstrip("\n")


class CompiledProgram:
    """The frontend artifacts of one program, reusable across many checks.

    Holds the parsed :class:`~repro.lang.ast.Program` eagerly; the def-use
    report (:attr:`dataflow_issues`) and the extracted ADDG (:attr:`addg`)
    are computed on first use and cached, so a precondition-failing check
    never pays for extraction and a ``check_preconditions=False`` check never
    pays for the def-use analysis.
    """

    __slots__ = ("program", "_dataflow_issues", "_addg", "_fingerprint")

    def __init__(self, program: Program):
        self.program = program
        self._dataflow_issues: Optional[Tuple[str, ...]] = None
        self._addg: Optional[ADDG] = None
        self._fingerprint: Optional[str] = None

    @property
    def dataflow_issues(self) -> Tuple[str, ...]:
        """Def-use / single-assignment prerequisite violations (Fig. 6), if any."""
        if self._dataflow_issues is None:
            with TRACER.span("frontend.defuse", "frontend"):
                self._dataflow_issues = tuple(str(issue) for issue in check_dataflow(self.program))
        return self._dataflow_issues

    @property
    def addg(self) -> ADDG:
        """The extracted array data dependence graph (built once, cached)."""
        if self._addg is None:
            self._addg = build_addg(self.program)
        return self._addg

    @property
    def fingerprint(self) -> str:
        """SHA-256 of the normalised source text (identifies the program)."""
        if self._fingerprint is None:
            text = normalized_program_text(self.program)
            self._fingerprint = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return self._fingerprint

    @property
    def outputs(self) -> Tuple[str, ...]:
        """The output arrays of the program (via the extracted ADDG)."""
        return tuple(self.addg.outputs)

    def __repr__(self) -> str:
        return f"CompiledProgram({self.fingerprint[:12]})"


class Verifier:
    """A checking session: compiled-artifact cache + default options + observers.

    Parameters
    ----------
    options:
        The session's default :class:`CheckOptions`, used when
        :meth:`check` is called without a per-call override.
    observers:
        :class:`CheckObserver` values notified by every check of this
        session (per-call observers can be added on top).

    A session is cheap; its value is the compile cache: every distinct
    program is parsed, def-use-checked and ADDG-extracted once, no matter
    how many checks it participates in.  Sessions are not thread-safe.
    """

    def __init__(
        self,
        options: Optional[CheckOptions] = None,
        observers: Sequence[CheckObserver] = (),
    ):
        self.options = options if options is not None else CheckOptions()
        self._observers: List[CheckObserver] = list(observers)
        self._cache: Dict[Tuple[str, object], CompiledProgram] = {}
        self.compile_hits = 0
        self.compile_misses = 0

    # ------------------------------------------------------------------ #
    def add_observer(self, observer: CheckObserver) -> None:
        """Register *observer* for every subsequent check of this session."""
        self._observers.append(observer)

    def clear_cache(self) -> None:
        """Drop every cached :class:`CompiledProgram`."""
        self._cache.clear()

    # ------------------------------------------------------------------ #
    def compile(self, source: ProgramLike) -> CompiledProgram:
        """Run the frontend on *source*, reusing the session's cache.

        Accepts mini-C source text, a parsed :class:`~repro.lang.ast.Program`
        or an existing :class:`CompiledProgram` (returned as-is).  Source
        text is keyed by its exact text; ``Program`` values by identity.
        """
        if isinstance(source, CompiledProgram):
            return source
        if isinstance(source, str):
            key: Tuple[str, object] = ("text", source)
        elif isinstance(source, Program):
            key = ("program", id(source))
        else:
            raise TypeError(
                f"expected a Program, source text or CompiledProgram, got {type(source).__name__}"
            )
        cached = self._cache.get(key)
        if cached is not None:
            self.compile_hits += 1
            return cached
        self.compile_misses += 1
        program = parse_program(source) if isinstance(source, str) else source
        compiled = CompiledProgram(program)
        self._cache[key] = compiled
        return compiled

    # ------------------------------------------------------------------ #
    def check(
        self,
        original: ProgramLike,
        transformed: ProgramLike,
        options: Optional[CheckOptions] = None,
        observer: Optional[CheckObserver] = None,
    ) -> EquivalenceResult:
        """Check the functional equivalence of two programs.

        The frontend work (parse, def-use, extraction) of each side is served
        from the session's compile cache when available; its per-call cost is
        reported in ``stats.frontend_seconds``, the traversal in
        ``stats.engine_seconds`` (``elapsed_seconds`` is their sum).

        While :mod:`repro.telemetry` tracing is enabled the check additionally
        fills ``stats.phase_seconds`` from its recorded spans before
        :meth:`~repro.verifier.events.CheckObserver.on_stats` is broadcast.
        """
        resolved = options if options is not None else self.options
        broadcast = self._broadcast(observer)
        if not TRACER.enabled:
            result = self._check_impl(original, transformed, resolved, broadcast)
            broadcast.on_stats(result.stats)
            return result
        mark = TRACER.mark()
        with TRACER.span("verifier.check", "verifier") as check_span:
            # When the check runs under a server request, tag the root span
            # with the request id so a merged cross-process trace can be
            # joined back to the daemon's request log (repro.telemetry.live).
            request = current_request()
            if request is not None:
                check_span.set(request=request)
            result = self._check_impl(original, transformed, resolved, broadcast)
        result.stats.phase_seconds = aggregate_phase_seconds(TRACER.records_since(mark))
        broadcast.on_stats(result.stats)
        return result

    def _check_impl(
        self,
        original: ProgramLike,
        transformed: ProgramLike,
        resolved: CheckOptions,
        broadcast: _Broadcast,
    ) -> EquivalenceResult:
        """The check pipeline body; the caller broadcasts ``on_stats``."""
        frontend_started = time.perf_counter()
        original_compiled = self.compile(original)
        transformed_compiled = self.compile(transformed)

        if resolved.check_preconditions:
            precondition_diagnostics = []
            for side_name, compiled in (
                ("original", original_compiled),
                ("transformed", transformed_compiled),
            ):
                for issue in compiled.dataflow_issues:
                    precondition_diagnostics.append(
                        Diagnostic(
                            DiagnosticKind.PRECONDITION,
                            f"{side_name} program fails the def-use prerequisites: {issue}",
                        )
                    )
            if precondition_diagnostics:
                frontend = time.perf_counter() - frontend_started
                stats = CheckStats(
                    elapsed_seconds=frontend,
                    frontend_seconds=frontend,
                    engine_seconds=0.0,
                    backend=resolved.backend,
                )
                for diagnostic in precondition_diagnostics:
                    broadcast.on_diagnostic(diagnostic)
                return EquivalenceResult(
                    equivalent=False,
                    outputs=[],
                    diagnostics=precondition_diagnostics,
                    stats=stats,
                    method=resolved.method,
                )

        original_addg = original_compiled.addg
        transformed_addg = transformed_compiled.addg
        frontend = time.perf_counter() - frontend_started

        with TRACER.span("engine.traverse", "engine"):
            result = _traverse_with_backend(original_addg, transformed_addg, resolved, broadcast)
        result.stats.frontend_seconds = frontend
        result.stats.elapsed_seconds = frontend + result.stats.engine_seconds
        return result

    def diagnose(
        self,
        original: ProgramLike,
        transformed: ProgramLike,
        options: Optional[CheckOptions] = None,
        observer: Optional[CheckObserver] = None,
        result: Optional[EquivalenceResult] = None,
        trace: Optional[Sequence] = None,
        replay_trials: int = 3,
        replay_seed: int = 0,
        witness_seed: Optional[int] = None,
    ) -> "FailureReport":
        """Check the pair (unless *result* is given) and explain the verdict.

        Runs the :mod:`repro.diagnostics` stages over the session's compiled
        artifacts: witness synthesis from the Presburger mismatch sets,
        concrete interpreter replay (``replay_trials`` seeded inputs starting
        at ``replay_seed``; a ``witness_seed`` from an external oracle
        replays first) and — when *trace* carries the pair's recorded
        :class:`~repro.transforms.pipeline.TransformStep` sequence — pipeline
        bisection.  The check itself streams through the observer protocol as
        usual; the finished :class:`~repro.diagnostics.report.FailureReport`
        is additionally broadcast via
        :meth:`~repro.verifier.events.CheckObserver.on_failure_report`.
        An equivalent verdict yields an empty report (nothing to diagnose).
        """
        from ..diagnostics import build_failure_report

        broadcast = self._broadcast(observer)
        original_compiled = self.compile(original)
        transformed_compiled = self.compile(transformed)
        if result is None:
            result = self.check(
                original_compiled, transformed_compiled, options=options, observer=observer
            )
        report = build_failure_report(
            original_compiled.program,
            transformed_compiled.program,
            result,
            trace=trace,
            trials=replay_trials,
            base_seed=replay_seed,
            witness_seed=witness_seed,
            original_addg=_addg_if_built(original_compiled),
            transformed_addg=_addg_if_built(transformed_compiled),
        )
        broadcast.on_failure_report(report)
        return report

    # ------------------------------------------------------------------ #
    def _broadcast(self, observer: Optional[CheckObserver]) -> _Broadcast:
        observers = list(self._observers)
        if observer is not None:
            observers.append(observer)
        return _Broadcast(observers)


def _addg_if_built(compiled: CompiledProgram) -> Optional[ADDG]:
    """The compiled ADDG, or ``None`` when extraction fails (handled downstream)."""
    try:
        return compiled.addg
    except Exception:
        return None


def _traverse_with_backend(
    original: ADDG,
    transformed: ADDG,
    resolved: CheckOptions,
    broadcast: _Broadcast,
) -> EquivalenceResult:
    """Run the traversal under the options' decision backend.

    ``omega`` (the default) installs nothing — the inline Presburger path
    runs exactly as before the backend layer existed.  Any other backend is
    activated on the context-local hook for the duration of the traversal,
    and its per-kind query counters land in ``stats.solver_queries``.  A
    :class:`~repro.solvers.BackendDisagreement` raised mid-traversal
    propagates (it is a ``BaseException``) with the hook already reset.
    """
    from ..solvers import use_backend

    with use_backend(resolved.backend, resolved.smt_solver) as backend:
        result = _traverse(original, transformed, resolved, broadcast)
    result.stats.backend = resolved.backend
    if backend is not None:
        result.stats.solver_queries = dict(backend.query_counts)
    return result


def _traverse(
    original: ADDG,
    transformed: ADDG,
    options: CheckOptions,
    observer: CheckObserver,
) -> EquivalenceResult:
    """The synchronized-traversal stage: one engine run over a pair of ADDGs.

    Fills ``stats.engine_seconds`` (and ``elapsed_seconds``, assuming no
    frontend ran; :meth:`Verifier.check` overwrites it with the full sum).
    """
    started = time.perf_counter()
    engine = Engine(
        original,
        transformed,
        registry=options.registry(),
        method=options.method,
        correspondences=options.correspondences,
        tabling=options.tabling,
    )
    notified = 0

    def flush_diagnostics() -> None:
        nonlocal notified
        for diagnostic in engine.diagnostics[notified:]:
            observer.on_diagnostic(diagnostic)
        notified = len(engine.diagnostics)

    requested = list(options.outputs) if options.outputs is not None else None
    original_outputs = list(original.outputs)
    transformed_outputs = list(transformed.outputs)
    if requested is None:
        to_check = [name for name in original_outputs if name in transformed_outputs]
        missing_in_transformed = [n for n in original_outputs if n not in transformed_outputs]
        missing_in_original = [n for n in transformed_outputs if n not in original_outputs]
    else:
        to_check = [n for n in requested if n in original_outputs and n in transformed_outputs]
        missing_in_transformed = [n for n in requested if n not in transformed_outputs]
        missing_in_original = [n for n in requested if n not in original_outputs]

    reports = []
    overall = True
    # An output array missing on one side gets both a diagnostic and a
    # non-equivalent report entry, so per-output aggregates (e.g. the batch
    # JSONL reports) count it among the failing outputs instead of silently
    # dropping it.  A requested array missing from *both* programs appears in
    # both lists and keeps one diagnostic per side, but must report (and
    # notify) only once.
    reported_missing = set()
    for missing, side in (
        (missing_in_transformed, "transformed"),
        (missing_in_original, "original"),
    ):
        for name in missing:
            engine.diagnostics.append(
                Diagnostic(
                    DiagnosticKind.OUTPUT_MISSING,
                    f"output array {name!r} is not produced by the {side} program",
                    output_array=name,
                )
            )
            overall = False
            if name not in reported_missing:
                reported_missing.add(name)
                report = OutputReport(array=name, equivalent=False)
                reports.append(report)
                observer.on_output_checked(report)
            flush_diagnostics()

    for name in to_check:
        with TRACER.span("engine.output", "engine", array=name):
            engine.current_output = name
            diagnostics_before = len(engine.diagnostics)
            defined1 = original.written_set(name)
            defined2 = transformed.written_set(name)
            common = defined1.intersect(defined2.rename(defined1.names))
            if not defined1.is_equal(defined2.rename(defined1.names)):
                engine.diagnostics.append(
                    Diagnostic(
                        DiagnosticKind.DOMAIN_MISMATCH,
                        f"the two programs define different element sets of output array {name!r}",
                        output_array=name,
                        original_mapping=str(defined1),
                        transformed_mapping=str(defined2),
                        mismatch_domain=str(
                            defined1.subtract(defined2.rename(defined1.names)).union(
                                defined2.rename(defined1.names).subtract(defined1)
                            )
                        ),
                    )
                )
            identity = Map.identity(common.names, domain=common)
            term1 = engine.output_term(0, name, identity)
            term2 = engine.output_term(1, name, identity)
            ok = engine.compare(term1, term2)
            new_diagnostics = engine.diagnostics[diagnostics_before:]
            output_ok = ok and not new_diagnostics
            overall = overall and output_ok
            failing_domain = None
            for diagnostic in new_diagnostics:
                if diagnostic.mismatch_domain:
                    failing_domain = diagnostic.mismatch_domain
                    break
            report = OutputReport(
                array=name,
                equivalent=output_ok,
                checked_domain=str(common),
                failing_domain=failing_domain,
            )
            reports.append(report)
            observer.on_output_checked(report)
            flush_diagnostics()
    engine.current_output = None

    # Verify declared intermediate correspondences as separate obligations —
    # both the ones actually used as cut points during the traversal and the
    # ones the designer declared but the traversal never reached.
    obligations = set(engine.correspondence_obligations()) | set(engine.correspondences)
    with TRACER.span("engine.correspondences", "engine", count=len(obligations)):
        for name1, name2 in sorted(obligations):
            diagnostics_before = len(engine.diagnostics)
            try:
                defined1 = original.written_set(name1)
                defined2 = transformed.written_set(name2)
            except KeyError:
                engine.diagnostics.append(
                    Diagnostic(
                        DiagnosticKind.PRECONDITION,
                        f"declared correspondence ({name1!r}, {name2!r}) refers to an array that is never written",
                    )
                )
                overall = False
                flush_diagnostics()
                continue
            # The obligation is checked on the intersection of the defined element
            # sets: a declared correspondence may legitimately be partial (e.g.
            # when one program only materialises part of the temporary).
            common = defined1.intersect(defined2.rename(defined1.names))
            identity = Map.identity(common.names, domain=common)
            engine.current_output = name1
            term1 = engine.output_term(0, name1, identity)
            term2 = engine.output_term(1, name2, identity)
            # While discharging the obligation for this pair, the pair itself must
            # not be usable as a cut point (that would be circular).
            engine.correspondences.discard((name1, name2))
            try:
                ok = engine.compare(term1, term2)
            finally:
                engine.correspondences.add((name1, name2))
            new_diagnostics = engine.diagnostics[diagnostics_before:]
            if not (ok and not new_diagnostics):
                overall = False
            engine.current_output = None
            flush_diagnostics()

    engine.apply_suspect_heuristic()
    flush_diagnostics()
    engine.record_opcache_stats()
    engine.stats.original_addg_size = original.size()
    engine.stats.transformed_addg_size = transformed.size()
    engine.stats.engine_seconds = time.perf_counter() - started
    engine.stats.elapsed_seconds = engine.stats.frontend_seconds + engine.stats.engine_seconds
    return EquivalenceResult(
        equivalent=overall,
        outputs=reports,
        diagnostics=engine.diagnostics,
        stats=engine.stats,
        method=options.method,
    )
