"""Outside-in layer spans for the traced benchmark run.

The program's own tracer stays off.  Instead, :func:`instrument` wraps the
public functions through which one layer calls the next (parse, def-use,
ADDG extraction, the checker's ``Engine``, every public ``Set``/``Map``
operation) with timing wrappers that live in this file, and restores the
originals on exit.  Each wrapper opens a span only when the caller is in a
different layer, so recursion inside a layer (``Engine.compare`` calling
itself, a ``Set`` operation calling another) stays inside the outermost
span of that layer.

A layer's self time is its spans' duration minus the part covered by spans
of other layers opened inside them; the self times of all layers add up to
the duration of the root spans, which :class:`SpanRecorder` tracks
separately so a caller can compute the time no span covers.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Dict, Iterator, List, Optional, Tuple

#: Public ``Set``/``Map`` operations billed to ``presburger.project_s``.
PROJECTION_OPS = ("domain", "range", "project_out")

#: Span events kept for the Chrome trace; self times stay exact past it.
EVENT_LIMIT = 200_000


class SpanRecorder:
    """Collects wrapper spans: per-layer self time, call counts, events."""

    def __init__(self) -> None:
        self._stack: List[list] = []  # open spans: [layer, start, covered_by_children]
        self.self_seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.kind_seconds: Dict[str, float] = {}
        self.root_seconds = 0.0
        self.events: List[Tuple[str, float, float, object]] = []
        self.dropped_events = 0
        self.tag: object = None  # attached to every event (the current check)

    def wrap(self, layer: str, func, kind: Optional[str] = None):
        """Return *func* wrapped in an outermost-per-layer span."""
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return func(*args, **kwargs)
            frame = [layer, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._close(layer, kind, frame[1], end, frame[2])

        return wrapper

    def _close(self, layer, kind, start, end, covered) -> None:
        duration = end - start
        self.self_seconds[layer] = self.self_seconds.get(layer, 0.0) + duration - covered
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if kind is not None:
            self.kind_seconds[kind] = self.kind_seconds.get(kind, 0.0) + duration
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_seconds += duration
        if len(self.events) < EVENT_LIMIT:
            self.events.append((layer, start, end, self.tag))
        else:
            self.dropped_events += 1

    def add_span(self, layer: str, start: float, end: float, tag: object = None) -> None:
        """Record a root span measured by the caller (a request or a process)."""
        self.tag = tag
        self._close(layer, None, start, end, 0.0)

    def chrome_events(self, origin: float) -> List[dict]:
        """The recorded spans as Chrome trace ``X`` events (microseconds)."""
        return [
            {
                "name": layer,
                "cat": layer.split(".")[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"check": tag},
            }
            for layer, start, end, tag in self.events
        ]


def write_chrome_trace(path, events: List[dict], metadata: dict) -> None:
    """Write *events* as a Chrome trace file (``chrome://tracing``, Perfetto)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}, handle)


def _patch(patches: list, owner, name: str, replacement) -> None:
    patches.append((owner, name, owner.__dict__[name]))
    setattr(owner, name, replacement)


def _wrap_class(patches: list, recorder: SpanRecorder, layer: str, cls, names=None) -> None:
    """Wrap the public methods (and static constructors) of *cls*."""
    for name, attribute in list(vars(cls).items()):
        if names is not None and name not in names:
            continue
        if names is None and name.startswith("_"):
            continue
        kind = "project" if layer == "presburger" and name in PROJECTION_OPS else None
        if isinstance(attribute, staticmethod):
            wrapped = staticmethod(recorder.wrap(layer, attribute.__func__, kind))
        elif callable(attribute) and not isinstance(attribute, (type, classmethod)):
            wrapped = recorder.wrap(layer, attribute, kind)
        else:
            continue  # properties and constants
        _patch(patches, cls, name, wrapped)


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap each layer's public entry points for the duration of the block."""
    from repro.checker.engine import Engine
    from repro.presburger import Map, Set
    from repro.verifier import session

    patches: list = []
    try:
        _patch(patches, session.Verifier, "check", recorder.wrap("verifier", session.Verifier.check))
        _patch(patches, session, "parse_program", recorder.wrap("lang.parse", session.parse_program))
        _patch(
            patches, session, "check_dataflow", recorder.wrap("analysis.defuse", session.check_dataflow)
        )
        _patch(patches, session, "build_addg", recorder.wrap("addg.build", session.build_addg))
        _wrap_class(
            patches,
            recorder,
            "checker",
            Engine,
            names=(
                "__init__",
                "output_term",
                "compare",
                "correspondence_obligations",
                "apply_suspect_heuristic",
                "record_opcache_stats",
            ),
        )
        _wrap_class(patches, recorder, "presburger", Set)
        _wrap_class(patches, recorder, "presburger", Map)
        yield recorder
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
