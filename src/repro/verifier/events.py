"""The observer protocol of the verifier session API.

A check is a pipeline with observable milestones: each output array receives
a verdict, each mismatch produces a structured diagnostic, and the run ends
with work counters.  Consumers that used to re-parse the finished
:class:`~repro.checker.result.EquivalenceResult` (the CLI for progress lines,
the service for reporting) instead register a :class:`CheckObserver` and are
called *while the check runs*:

* :meth:`~CheckObserver.on_output_checked` — once per output array, with its
  :class:`~repro.checker.result.OutputReport` (including the non-equivalent
  reports emitted for outputs missing on one side);
* :meth:`~CheckObserver.on_diagnostic` — once per
  :class:`~repro.checker.result.Diagnostic`, as it is recorded.  Suspect
  annotations (Section 6.1) are applied to the *same* diagnostic objects
  after the traversal, so an observer that retains them sees the final form;
* :meth:`~CheckObserver.on_stats` — once at the end of the check, with the
  finalised :class:`~repro.checker.result.CheckStats` (frontend/engine time
  split included, and the per-phase wall-time breakdown
  ``phase_seconds`` while :mod:`repro.telemetry` tracing is enabled);
* :meth:`~CheckObserver.on_failure_report` — once per
  :meth:`~repro.verifier.session.Verifier.diagnose` call, with the
  :class:`~repro.diagnostics.report.FailureReport` after the diagnosis
  stages (witness synthesis, replay, bisection) completed.  Plain
  :meth:`~repro.verifier.session.Verifier.check` calls never emit it.

Observers are caller-owned code: exceptions they raise propagate out of the
check.  Keep callbacks cheap — they run on the checking thread.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from ..checker.result import CheckStats, Diagnostic, OutputReport

if TYPE_CHECKING:  # annotation-only: the verifier must not import the
    # higher-level diagnostics package at runtime (layering / cycle risk)
    from ..diagnostics.report import FailureReport

__all__ = ["CheckObserver", "CallbackObserver"]


class CheckObserver:
    """Base class of check observers; override any subset of the hooks."""

    def on_output_checked(self, report: OutputReport) -> None:
        """One output array received its verdict."""

    def on_diagnostic(self, diagnostic: Diagnostic) -> None:
        """One diagnostic was recorded."""

    def on_stats(self, stats: CheckStats) -> None:
        """The check finished; *stats* carries the finalised counters."""

    def on_failure_report(self, report: FailureReport) -> None:
        """A :meth:`Verifier.diagnose` run produced its failure report."""


class CallbackObserver(CheckObserver):
    """A :class:`CheckObserver` assembled from plain callables.

    Convenient for one-off consumers (tests, scripts) that do not want to
    subclass::

        observer = CallbackObserver(on_output_checked=reports.append)
    """

    def __init__(
        self,
        on_output_checked: Optional[Callable[[OutputReport], None]] = None,
        on_diagnostic: Optional[Callable[[Diagnostic], None]] = None,
        on_stats: Optional[Callable[[CheckStats], None]] = None,
        on_failure_report: Optional[Callable[[FailureReport], None]] = None,
    ):
        self._on_output_checked = on_output_checked
        self._on_diagnostic = on_diagnostic
        self._on_stats = on_stats
        self._on_failure_report = on_failure_report

    def on_output_checked(self, report: OutputReport) -> None:
        if self._on_output_checked is not None:
            self._on_output_checked(report)

    def on_diagnostic(self, diagnostic: Diagnostic) -> None:
        if self._on_diagnostic is not None:
            self._on_diagnostic(diagnostic)

    def on_stats(self, stats: CheckStats) -> None:
        if self._on_stats is not None:
            self._on_stats(stats)

    def on_failure_report(self, report: FailureReport) -> None:
        if self._on_failure_report is not None:
            self._on_failure_report(report)


class _Broadcast(CheckObserver):
    """Fan one event stream out to several observers (internal)."""

    def __init__(self, observers: Iterable[CheckObserver]):
        self._observers = tuple(observers)

    def on_output_checked(self, report: OutputReport) -> None:
        for observer in self._observers:
            observer.on_output_checked(report)

    def on_diagnostic(self, diagnostic: Diagnostic) -> None:
        for observer in self._observers:
            observer.on_diagnostic(diagnostic)

    def on_stats(self, stats: CheckStats) -> None:
        for observer in self._observers:
            observer.on_stats(stats)

    def on_failure_report(self, report: FailureReport) -> None:
        for observer in self._observers:
            observer.on_failure_report(report)
