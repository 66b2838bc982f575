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

import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..addg import ADDG, build_addg
from ..analysis import ProgramGeometry, check_dataflow
from ..lang import Program, parse_program, program_to_text
from ..presburger import Map, Set, opcache
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

__all__ = [
    "COMPILE_CACHE_SIZE",
    "CompiledProgram",
    "Verifier",
    "normalized_program_text",
    "ProgramLike",
]

ProgramLike = Union[Program, str, "CompiledProgram"]

#: The most compiled programs one session keeps (least recently used go first).
COMPILE_CACHE_SIZE = 512


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

    The constructor runs the frontend of Fig. 6 on the parsed
    :class:`~repro.lang.ast.Program`: the geometric analysis
    (:attr:`geometry`, a :class:`~repro.analysis.ProgramGeometry`, which first
    checks the program class), the def-use report (:attr:`dataflow_issues`)
    and the extracted ADDG (:attr:`addg`).  The def-use checks, extraction and
    traversal share the geometry's statement contexts, access maps and written
    sets.  Nothing is filled in later, so a compiled program can be shared
    across threads.
    """

    __slots__ = ("program", "geometry", "dataflow_issues", "addg")

    def __init__(self, program: Program):
        self.program = program
        self.geometry = ProgramGeometry(program)
        with TRACER.span("frontend.defuse", "frontend"):
            #: Def-use / single-assignment prerequisite violations (Fig. 6), if any.
            self.dataflow_issues = tuple(str(issue) for issue in check_dataflow(self.geometry))
        #: The extracted array data dependence graph.
        self.addg: ADDG = build_addg(self.geometry)

    @property
    def outputs(self) -> Tuple[str, ...]:
        """The output arrays of the program (via the extracted ADDG)."""
        return self.addg.outputs

    def __repr__(self) -> str:
        return f"CompiledProgram({self.program.name!r})"


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
    how many checks it participates in.  The cache is an LRU of
    :data:`COMPILE_CACHE_SIZE` programs under a lock, so threads may share a
    session and check through it at once (the server's worker threads do);
    registering observers while checks run is not thread-safe.
    """

    def __init__(
        self,
        options: Optional[CheckOptions] = None,
        observers: Sequence[CheckObserver] = (),
    ):
        self.options = options if options is not None else CheckOptions()
        self._observers: List[CheckObserver] = list(observers)
        self._cache: "OrderedDict[Tuple[str, object], CompiledProgram]" = OrderedDict()
        self._lock = threading.Lock()
        self.compile_hits = 0
        self.compile_misses = 0
        self.compile_evictions = 0

    # ------------------------------------------------------------------ #
    def add_observer(self, observer: CheckObserver) -> None:
        """Register *observer* for every subsequent check of this session."""
        self._observers.append(observer)

    def clear_cache(self) -> None:
        """Drop every cached :class:`CompiledProgram`."""
        with self._lock:
            self._cache.clear()

    def compile_stats(self) -> Dict[str, Any]:
        """Occupancy and lifetime counters of the compile cache."""
        with self._lock:
            return {
                "entries": len(self._cache),
                "hits": self.compile_hits,
                "misses": self.compile_misses,
                "evictions": self.compile_evictions,
            }

    # ------------------------------------------------------------------ #
    def compile(self, source: ProgramLike) -> CompiledProgram:
        """Run the frontend on *source*, reusing the session's cache.

        Accepts mini-C source text, a parsed :class:`~repro.lang.ast.Program`
        or an existing :class:`CompiledProgram` (returned as-is).  Source
        text is keyed by its exact text; ``Program`` values by identity.  A
        program outside the allowed class raises
        :class:`~repro.lang.errors.ProgramClassError` here.

        The frontend runs outside the cache lock: two threads racing on one
        new program both compile it, and the first to publish wins.
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
        cache = self._cache
        with self._lock:
            cached = cache.get(key)
            if cached is not None:
                cache.move_to_end(key)
                self.compile_hits += 1
                return cached
            self.compile_misses += 1
        program = parse_program(source) if isinstance(source, str) else source
        compiled = CompiledProgram(program)
        with self._lock:
            winner = cache.setdefault(key, compiled)
            cache.move_to_end(key)
            while len(cache) > COMPILE_CACHE_SIZE:
                cache.popitem(last=False)
                self.compile_evictions += 1
        return winner

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

        Before :meth:`~repro.verifier.events.CheckObserver.on_stats` is
        broadcast, the check fills the stats' opcache counters, and while
        :mod:`repro.telemetry` tracing is enabled ``phase_seconds``, from
        what this thread did in the call alone (its own collectors).
        """
        resolved = options if options is not None else self.options
        broadcast = self._broadcast(observer)
        try:
            with TRACER.collect() as spans, opcache.collect() as counts:
                with TRACER.span("verifier.check", "verifier") as check_span:
                    # Under a server request, tag the root span with the request
                    # id, so a merged cross-process trace joins the daemon's
                    # request log (repro.telemetry.live).
                    request = current_request()
                    if request is not None:
                        check_span.set(request=request)
                    result = self._check_impl(original, transformed, resolved, broadcast)
        finally:
            TRACER.ingest(spans)
        stats = result.stats
        stats.opcache_hits = counts.hits
        stats.opcache_misses = counts.misses
        stats.intern_hits = counts.intern_hits
        if spans:
            stats.phase_seconds = aggregate_phase_seconds(spans)
        broadcast.on_stats(stats)
        return result

    def _check_impl(
        self,
        original: ProgramLike,
        transformed: ProgramLike,
        resolved: CheckOptions,
        broadcast: _Broadcast,
    ) -> EquivalenceResult:
        """The check pipeline body; :meth:`check` fills the opcache counters and broadcasts."""
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

        # ``omega`` (the default) installs no backend and the Presburger
        # decisions run inline; any other backend answers them for the
        # traversal, and its per-kind query counts land in the stats.
        from ..solvers import use_backend

        with TRACER.span("engine.traverse", "engine"), use_backend(
            resolved.backend, resolved.smt_solver
        ) as backend:
            result = _traverse(original_addg, transformed_addg, resolved, broadcast)
        result.stats.backend = resolved.backend
        if backend is not None:
            result.stats.solver_queries = dict(backend.query_counts)
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
            original_addg=original_compiled.addg,
            transformed_addg=transformed_compiled.addg,
        )
        broadcast.on_failure_report(report)
        return report

    # ------------------------------------------------------------------ #
    def _broadcast(self, observer: Optional[CheckObserver]) -> _Broadcast:
        observers = list(self._observers)
        if observer is not None:
            observers.append(observer)
        return _Broadcast(observers)


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

    def discharge(name1: str, name2: str, whole: bool) -> Tuple[bool, Optional[Set]]:
        """Check array *name1* of the original against *name2* of the transformed program.

        The obligation covers the elements both programs write.  An output
        must be written alike (*whole*), or a DOMAIN_MISMATCH is reported
        first; a declared correspondence may be partial, e.g. when one
        program only materialises part of a temporary.  Returns whether the
        obligation held without a new diagnostic, and the checked domain:
        ``None`` when an array is never written, which only a declared
        correspondence can name, since outputs are written arrays, or when
        the two arrays differ in dimensionality (a KIND_MISMATCH).
        """
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
            return False, None
        if defined1.arity != defined2.arity:
            subject = (
                f"output array {name1!r} has"
                if whole
                else f"corresponding arrays {name1!r} and {name2!r} have"
            )
            engine.diagnostics.append(
                Diagnostic(
                    DiagnosticKind.KIND_MISMATCH,
                    f"{subject} different dimensionality: {defined1.arity} in the original "
                    f"program, {defined2.arity} in the transformed program",
                    output_array=name1 if whole else None,
                )
            )
            return False, None
        renamed2 = defined2.rename(defined1.names)
        common = defined1.intersect(renamed2)
        if whole and not defined1.is_equal(renamed2):
            engine.diagnostics.append(
                Diagnostic(
                    DiagnosticKind.DOMAIN_MISMATCH,
                    f"the two programs define different element sets of output array {name1!r}",
                    output_array=name1,
                    original_mapping=str(defined1),
                    transformed_mapping=str(defined2),
                    mismatch_domain=str(defined1.subtract(renamed2).union(renamed2.subtract(defined1))),
                )
            )
        identity = Map.identity(common.names, domain=common)
        engine.current_output = name1
        ok = engine.discharge(
            engine.output_term(0, name1, identity), engine.output_term(1, name2, identity)
        )
        engine.current_output = None
        return ok and len(engine.diagnostics) == diagnostics_before, common

    original_outputs = list(original.outputs)
    transformed_outputs = list(transformed.outputs)
    if options.outputs is not None:
        requested = list(options.outputs)
    else:
        requested = original_outputs + [n for n in transformed_outputs if n not in original_outputs]
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

    for name in requested:
        if name not in original_outputs or name not in transformed_outputs:
            continue
        with TRACER.span("engine.output", "engine", array=name):
            diagnostics_before = len(engine.diagnostics)
            output_ok, common = discharge(name, name, whole=True)
            overall = overall and output_ok
            failing_domain = None
            for diagnostic in engine.diagnostics[diagnostics_before:]:
                if diagnostic.mismatch_domain:
                    failing_domain = diagnostic.mismatch_domain
                    break
            report = OutputReport(
                array=name,
                equivalent=output_ok,
                checked_domain=None if common is None else str(common),
                failing_domain=failing_domain,
            )
            reports.append(report)
            observer.on_output_checked(report)
            flush_diagnostics()

    # Verify declared intermediate correspondences as separate obligations —
    # both the ones actually used as cut points during the traversal and the
    # ones the designer declared but the traversal never reached.
    obligations = set(engine.correspondence_obligations()) | set(engine.correspondences)
    with TRACER.span("engine.correspondences", "engine", count=len(obligations)):
        for name1, name2 in sorted(obligations):
            # While discharging the obligation for this pair, the pair itself must
            # not be usable as a cut point (that would be circular).
            engine.correspondences.discard((name1, name2))
            try:
                ok, _ = discharge(name1, name2, whole=False)
            finally:
                engine.correspondences.add((name1, name2))
            overall = overall and ok
            flush_diagnostics()

    engine.apply_suspect_heuristic()
    flush_diagnostics()
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
