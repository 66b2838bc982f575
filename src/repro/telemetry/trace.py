"""A zero-dependency hierarchical span tracer for the verification pipeline.

A *span* is a named, timed region of work — "parse this program", "traverse
this output", "run this FM elimination" — recorded with its start time, its
duration, the process and thread it ran on, and a link to the span that was
open when it started.  Nesting therefore falls out of execution order: the
frontend span of a check contains its lex/parse/extract spans, the traversal
span contains the Presburger operation spans, and a Perfetto-loaded Chrome
trace renders the whole verification stack as a flame graph
(:mod:`repro.telemetry.export` does the conversion).

Design constraints, in priority order:

1. **Disabled is (nearly) free.**  Tracing is off by default; every
   instrumentation site guards on :attr:`Tracer.enabled` (one attribute
   load) or calls :meth:`Tracer.span`, which returns a shared no-op context
   manager without allocating.  The budget — enforced by
   ``tests/unit/telemetry/test_overhead.py`` and the ``bench_verifier``
   gate — is <2% on an end-to-end check.
2. **Thread- and task-aware.**  The open span and the open span collector
   (:meth:`Tracer.collect`) live in :class:`contextvars.ContextVar` values,
   so concurrent checks on different threads, and concurrent requests on
   one event loop, each nest under their own parents and gather exactly
   their own spans; the shared buffer's lock is taken only when tracing is
   on.
3. **Process-aware by explicit serialization.**  There is no magic shared
   buffer across a ``ProcessPoolExecutor`` boundary: a worker collects each
   job's spans into plain dicts (:meth:`SpanRecord.to_dict`) that travel
   home inside the :class:`~repro.service.job.JobResult`, and the parent
   re-ingests them (:meth:`Tracer.ingest`) with their original
   ``pid``/``tid`` intact, so the exported trace shows one track per
   worker process.

Timestamps are wall-clock epoch microseconds (``time.time_ns``), which are
comparable across processes; durations are measured with
``time.perf_counter_ns`` so they are monotonic within a span.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Sequence

__all__ = ["SpanRecord", "Span", "Tracer", "TRACER"]

# The innermost open span and span collector of this thread or asyncio task.
_PARENT: ContextVar[Optional[int]] = ContextVar("repro_span_parent", default=None)
_COLLECTOR: ContextVar[Optional[List["SpanRecord"]]] = ContextVar("repro_span_collector", default=None)


class SpanRecord:
    """One finished span: plain, immutable-ish data, trivially serialisable."""

    __slots__ = ("name", "category", "start_us", "duration_us", "pid", "tid", "span_id", "parent_id", "args")

    def __init__(
        self,
        name: str,
        category: str,
        start_us: int,
        duration_us: int,
        pid: int,
        tid: int,
        span_id: int,
        parent_id: Optional[int],
        args: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.category = category
        self.start_us = start_us
        self.duration_us = duration_us
        self.pid = pid
        self.tid = tid
        self.span_id = span_id
        self.parent_id = parent_id
        self.args = args or {}

    @property
    def duration_seconds(self) -> float:
        return self.duration_us / 1e6

    def to_dict(self) -> Dict[str, Any]:
        """The serialised form shipped across process boundaries."""
        return {
            "name": self.name,
            "cat": self.category,
            "ts": self.start_us,
            "dur": self.duration_us,
            "pid": self.pid,
            "tid": self.tid,
            "id": self.span_id,
            "parent": self.parent_id,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanRecord":
        return cls(
            name=data["name"],
            category=data.get("cat", ""),
            start_us=data["ts"],
            duration_us=data.get("dur", 0),
            pid=data.get("pid", 0),
            tid=data.get("tid", 0),
            span_id=data.get("id", 0),
            parent_id=data.get("parent"),
            args=dict(data.get("args", {})),
        )

    def __repr__(self) -> str:
        return (
            f"SpanRecord({self.name!r}, cat={self.category!r}, "
            f"dur={self.duration_us}us, pid={self.pid})"
        )


class Span:
    """A live span: a context manager that records itself on exit."""

    __slots__ = ("_tracer", "name", "category", "args", "span_id", "parent_id", "_token", "_start_us", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, category: str, args: Optional[Dict[str, Any]]):
        self._tracer = tracer
        self.name = name
        self.category = category
        self.args = args
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self._token: Any = None
        self._start_us = 0
        self._start_ns = 0

    def set(self, **args: Any) -> "Span":
        """Attach (or overwrite) argument annotations on the live span."""
        if self.args is None:
            self.args = {}
        self.args.update(args)
        return self

    def __enter__(self) -> "Span":
        self.parent_id = _PARENT.get()
        self.span_id = self._tracer._next_id()
        self._token = _PARENT.set(self.span_id)
        self._start_us = time.time_ns() // 1000
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration_us = (time.perf_counter_ns() - self._start_ns) // 1000
        _PARENT.reset(self._token)
        tracer = self._tracer
        if exc_type is not None:
            self.set(error=exc_type.__name__)
        tracer._record(
            SpanRecord(
                name=self.name,
                category=self.category,
                start_us=self._start_us,
                duration_us=duration_us,
                pid=tracer.pid,
                tid=threading.get_ident(),
                span_id=self.span_id,
                parent_id=self.parent_id,
                args=self.args,
            )
        )


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def set(self, **args: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """The process-wide span recorder (one instance, see :data:`TRACER`).

    The tracer is mutated in place by :func:`repro.telemetry.enable` /
    :func:`~repro.telemetry.disable` rather than swapped, so modules may bind
    it once at import time (``_TR = TRACER``) and guard hot paths with a
    single ``_TR.enabled`` attribute load.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.pid = os.getpid()
        self._records: List[SpanRecord] = []
        self._lock = threading.Lock()
        self._id_lock = threading.Lock()
        self._id_counter = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def span(self, name: str, category: str = "", **args: Any):
        """A context manager timing the enclosed block (no-op when disabled)."""
        if not self.enabled:
            return _NOOP_SPAN
        return Span(self, name, category, args or None)

    def event(self, name: str, category: str = "", **args: Any) -> None:
        """Record an instant (zero-duration) event at the current position."""
        if not self.enabled:
            return
        self._record(
            SpanRecord(
                name=name,
                category=category,
                start_us=time.time_ns() // 1000,
                duration_us=0,
                pid=self.pid,
                tid=threading.get_ident(),
                span_id=self._next_id(),
                parent_id=_PARENT.get(),
                args=args or None,
            )
        )

    def _next_id(self) -> int:
        with self._id_lock:
            self._id_counter += 1
            return self._id_counter

    def _record(self, record: SpanRecord) -> None:
        collector = _COLLECTOR.get()
        if collector is not None:
            collector.append(record)
        else:
            with self._lock:
                self._records.append(record)

    # ------------------------------------------------------------------ #
    # Collection
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def collect(self) -> Iterator[List[SpanRecord]]:
        """Yield the list that takes the spans this thread or task finishes.

        Spans of other threads and tasks (even one started inside the block)
        are not gathered.  Nothing is passed on at exit: the owner hands the
        spans to :meth:`ingest`, ships them to another process, or drops them.
        """
        collected: List[SpanRecord] = []
        token = _COLLECTOR.set(collected)
        try:
            yield collected
        finally:
            _COLLECTOR.reset(token)

    def records(self) -> List[SpanRecord]:
        """A snapshot of the process buffer (spans held by no collector)."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        """Drop all recorded spans (e.g. in a freshly forked worker)."""
        with self._lock:
            self._records.clear()
        self.pid = os.getpid()

    def ingest(self, records: Sequence[Any]) -> int:
        """Keep *records* here: in the innermost open collector, else the buffer.

        Accepts :class:`SpanRecord` values or their :meth:`~SpanRecord.to_dict`
        forms (spans shipped by another process); the original
        ``pid``/``tid``/span identifiers are preserved so the exported trace
        keeps one track per worker.  Returns the number of spans ingested.
        """
        converted = [
            record if isinstance(record, SpanRecord) else SpanRecord.from_dict(record)
            for record in records
        ]
        collector = _COLLECTOR.get()
        if collector is not None:
            collector.extend(converted)
        else:
            with self._lock:
                self._records.extend(converted)
        return len(converted)


TRACER = Tracer()
