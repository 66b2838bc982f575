"""Observability for the verification stack: span tracing and exporters.

The paper's method lives or dies on where the time goes — frontend ADDG
extraction versus Presburger traversal versus FM elimination — and this
package is the layer that answers the question.  It is **zero-dependency,
disabled by default, and pay-for-what-you-use**:

* :mod:`repro.telemetry.trace` — a hierarchical span tracer (context-manager
  API, thread-aware, process-aware via explicit serialization across the
  ``ProcessPoolExecutor`` boundary);
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
:data:`TRACER` singleton at import time, call ``TRACER.span`` /
``TRACER.event`` directly and guard on a single ``.enabled`` attribute
load, so the whole layer costs <2% when off (gated by
``benchmarks/bench_verifier.py`` and the telemetry unit tests).

See ``docs/observability.md`` for the full tour.
"""

from __future__ import annotations

from typing import Any, Iterable, List

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


def spans() -> List[SpanRecord]:
    """Every finished span recorded so far (a snapshot)."""
    return TRACER.records()


def ingest_spans(records: Iterable[Any]) -> int:
    """Merge spans serialised by another process into the global tracer."""
    return TRACER.ingest(list(records))


def reset() -> None:
    """Drop all recorded spans (the enablement flag is kept)."""
    TRACER.clear()
