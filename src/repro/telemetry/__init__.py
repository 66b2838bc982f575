"""Observability for the verification stack: span tracing and exporters.

The paper's method lives or dies on where the time goes — frontend ADDG
extraction versus Presburger traversal versus FM elimination — and this
package is the layer that answers the question.  It is **zero-dependency,
disabled by default, and pay-for-what-you-use**:

* :mod:`repro.telemetry.trace` — a hierarchical span tracer (context-manager
  and decorator API, thread-aware, process-aware via explicit serialization
  across the ``ProcessPoolExecutor`` boundary);
* :mod:`repro.telemetry.metrics` — the power-of-two latency histogram the
  server keeps (work counts live with their owners:
  :class:`~repro.presburger.opcache.OpCacheStats` for the Presburger layer,
  :class:`~repro.checker.result.CheckStats` per check);
* :mod:`repro.telemetry.export` — Chrome trace-event JSON (loadable in
  Perfetto), JSONL metrics dumps, and human-readable per-phase summaries;
* :mod:`repro.telemetry.live` — serving-side observability: the structured
  JSONL request log, the bounded slow-request ring and the request-scoped
  span-tagging context used by ``repro-eqcheck serve``;
* :mod:`repro.telemetry.prom` — Prometheus text exposition (format 0.0.4)
  over the server's deep ``stats`` payload.

Quickstart (the CLI flag ``--trace FILE`` does exactly this around a
check)::

    from repro import telemetry

    telemetry.enable()
    ...                                  # run checks / batches / fuzzing
    telemetry.write_chrome_trace("trace.json", telemetry.spans())
    telemetry.disable()

Instrumentation sites throughout the stack (frontend lexer/parser/def-use/
extraction, the checker traversal, the Presburger operation cache and omega
core, the batch executor and the scenario engine) bind the process-wide
:data:`TRACER` singleton at import time and guard on a single ``.enabled``
attribute load, so the whole layer costs <2% when off
(gated by ``benchmarks/bench_verifier.py`` and the telemetry unit tests).

See ``docs/observability.md`` for the full tour.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable, List, Optional

from .trace import TRACER, Span, SpanRecord, Tracer
from .metrics import Histogram
from .export import (
    aggregate_phase_seconds,
    chrome_trace,
    format_phase_summary,
    write_chrome_trace,
    write_metrics_jsonl,
)
from .live import (
    RequestLogger,
    SlowRequestRing,
    current_request,
    request_scope,
    set_current_request,
)
from .prom import render_server_snapshot

__all__ = [
    "TRACER",
    "Tracer",
    "Span",
    "SpanRecord",
    "Histogram",
    "RequestLogger",
    "SlowRequestRing",
    "enable",
    "disable",
    "is_tracing",
    "span",
    "event",
    "traced",
    "spans",
    "ingest_spans",
    "reset",
    "aggregate_phase_seconds",
    "chrome_trace",
    "current_request",
    "format_phase_summary",
    "render_server_snapshot",
    "request_scope",
    "set_current_request",
    "write_chrome_trace",
    "write_metrics_jsonl",
]


def enable() -> None:
    """Switch span recording on.

    Idempotent; previously recorded spans are kept, so pair with
    :func:`reset` for a cold start.
    """
    TRACER.enabled = True


def disable() -> None:
    """Switch span recording off (recorded spans are kept)."""
    TRACER.enabled = False


def is_tracing() -> bool:
    """Whether span recording is currently active."""
    return TRACER.enabled


def span(name: str, category: str = "", **args: Any):
    """A context manager timing the enclosed block on the global tracer.

    Returns a shared no-op object while tracing is disabled, so the call is
    safe (and cheap) to leave in warm paths unconditionally::

        with telemetry.span("frontend.parse", "frontend", chars=len(text)):
            program = parse_program(text)
    """
    return TRACER.span(name, category, **args)


def event(name: str, category: str = "", **args: Any) -> None:
    """Record an instant event on the global tracer (no-op when disabled)."""
    TRACER.event(name, category, **args)


def traced(name: Optional[str] = None, category: str = "") -> Callable:
    """Decorator form of :func:`span`: times every call of the function.

    The span is named after the function unless *name* is given; when
    tracing is disabled the only residual cost is one attribute check per
    call::

        @telemetry.traced(category="frontend")
        def build_addg(program): ...
    """

    def decorate(function: Callable) -> Callable:
        span_name = name or function.__qualname__

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any):
            if not TRACER.enabled:
                return function(*args, **kwargs)
            with TRACER.span(span_name, category):
                return function(*args, **kwargs)

        return wrapper

    return decorate


def spans() -> List[SpanRecord]:
    """Every finished span recorded so far (a snapshot)."""
    return TRACER.records()


def ingest_spans(records: Iterable[Any]) -> int:
    """Merge spans serialised by another process into the global tracer."""
    return TRACER.ingest(list(records))


def reset() -> None:
    """Drop all recorded spans (the enablement flag is kept)."""
    TRACER.clear()
