"""Exporters: Chrome trace-event JSON, metrics JSONL, per-phase summaries.

Three consumers, three formats:

* **Perfetto / chrome://tracing** — :func:`chrome_trace` renders finished
  spans as the Chrome trace-event JSON object format (``ph: "X"`` complete
  events plus ``ph: "M"`` process/thread name metadata), which Perfetto
  loads directly.  One track per ``(pid, tid)``, so spans merged home from
  ``ProcessPoolExecutor`` workers appear as their own process rows.
* **Machines** — :func:`write_metrics_jsonl` dumps metric rows as one JSON
  object per line (the CLI writes the Presburger work counters plus a
  trailing aggregate row of the operation-cache counters), append-friendly
  like the service reports.
* **Humans** — :func:`format_phase_summary` renders the per-phase wall-time
  breakdown that :func:`aggregate_phase_seconds` derives from the span tree:
  time is attributed to the *outermost* span of each category, so nested
  same-category spans (an FM elimination inside a memoized Presburger
  operation) are not double counted, and "presburger" time is reported on
  its own even though it nests inside the frontend/engine shares.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, TextIO, Union

from .trace import SpanRecord

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "write_metrics_jsonl",
    "aggregate_phase_seconds",
    "format_phase_summary",
]

#: The span categories that constitute pipeline *phases*; anything else is
#: detail inside one of these (or uncategorised scaffolding).
PHASE_CATEGORIES = ("frontend", "engine", "presburger", "service", "scenario", "diagnostics")


def chrome_trace(records: Sequence[SpanRecord], process_names: Optional[Dict[int, str]] = None) -> Dict[str, Any]:
    """Render finished spans as a Chrome trace-event JSON object.

    *process_names* optionally maps a pid to a display name; unnamed worker
    pids get ``worker-<pid>``.  Timestamps are normalised so the earliest
    span starts at 0 (Perfetto handles epoch stamps, but small numbers are
    kinder to humans reading the JSON).
    """
    process_names = dict(process_names or {})
    events: List[Dict[str, Any]] = []
    if not records:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(record.start_us for record in records)
    seen_pids: Dict[int, None] = {}
    for record in records:
        seen_pids.setdefault(record.pid, None)
        event: Dict[str, Any] = {
            "name": record.name,
            "cat": record.category or "misc",
            "ph": "X" if record.duration_us else "i",
            "ts": record.start_us - origin,
            "pid": record.pid,
            "tid": record.tid,
        }
        if record.duration_us:
            event["dur"] = record.duration_us
        else:
            event["s"] = "t"  # instant event, thread-scoped
        if record.args:
            event["args"] = dict(record.args)
        events.append(event)
    metadata = []
    for index, pid in enumerate(sorted(seen_pids)):
        name = process_names.get(pid) or ("repro-eqcheck" if index == 0 else f"worker-{pid}")
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    target: Union[str, TextIO],
    records: Sequence[SpanRecord],
    process_names: Optional[Dict[int, str]] = None,
) -> None:
    """Write :func:`chrome_trace` of *records* to a path or open text file."""
    payload = chrome_trace(records, process_names)
    if hasattr(target, "write"):
        json.dump(payload, target)
    else:
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def write_metrics_jsonl(
    target: Union[str, TextIO],
    snapshot: Sequence[Dict[str, Any]],
    extra_rows: Sequence[Dict[str, Any]] = (),
) -> None:
    """Write metric rows as JSONL: one metric object per line.

    *snapshot* holds ``{"type": "counter", "name": ..., "value": ...}``
    rows; *extra_rows* lets callers append aggregate rows after them — the
    CLI adds an ``{"type": "opcache", ...}`` row with the run's Presburger
    operation-cache counters so one file carries the full picture.
    """
    def _write(handle: TextIO) -> None:
        for row in list(snapshot) + list(extra_rows):
            handle.write(json.dumps(row, sort_keys=True) + "\n")

    if hasattr(target, "write"):
        _write(target)
    else:
        with open(target, "w", encoding="utf-8") as handle:
            _write(handle)


def aggregate_phase_seconds(records: Sequence[SpanRecord]) -> Dict[str, float]:
    """Per-phase wall time, attributing each category to its outermost spans.

    A span contributes to its category's bucket only when no ancestor span
    shares that category — so the per-output spans nested inside a traversal
    span do not double the "engine" time, and recursive FM eliminations
    count once.  Buckets are keyed by category and restricted to
    :data:`PHASE_CATEGORIES`.
    """
    by_key = {(record.pid, record.span_id): record for record in records}
    phases: Dict[str, float] = {}
    for record in records:
        category = record.category
        if category not in PHASE_CATEGORIES:
            continue
        ancestor = record.parent_id
        outermost = True
        # Walk the parent chain within this record set; spans whose parents
        # were recorded elsewhere (e.g. the job wrapper of a worker) are
        # treated as roots of their category.
        while ancestor is not None:
            parent = by_key.get((record.pid, ancestor))
            if parent is None:
                break
            if parent.category == category:
                outermost = False
                break
            ancestor = parent.parent_id
        if outermost:
            phases[category] = phases.get(category, 0.0) + record.duration_seconds
    return phases


def format_phase_summary(
    phase_seconds: Dict[str, float], span_count: int = 0, counters: Optional[Dict[str, int]] = None
) -> str:
    """A compact human-readable rendering of a per-phase breakdown."""
    lines = ["telemetry phase breakdown:"]
    total = sum(
        seconds for category, seconds in phase_seconds.items()
        if category in ("frontend", "engine", "service", "scenario", "diagnostics")
    )
    for category in PHASE_CATEGORIES:
        seconds = phase_seconds.get(category)
        if seconds is None:
            continue
        note = ""
        if category == "presburger":
            note = "  (nested inside frontend/engine time)"
        share = f"  {seconds / total:6.1%}" if total and not note else ""
        lines.append(f"  {category:<12}: {seconds:8.3f} s{share}{note}")
    if span_count:
        lines.append(f"  spans       : {span_count}")
    for name, value in sorted((counters or {}).items()):
        lines.append(f"  {name:<24}: {value}")
    return "\n".join(lines)
