"""Live-serving observability primitives: request logs and slow-request capture.

The tracer and exporters in this package answer questions about one
process run; a long-lived verification daemon needs the complementary
*operational* views:

* :class:`RequestLogger` — a structured JSONL event log (one JSON object
  per line) for connection and request lifecycle events, with level
  filtering, size-based rotation and degrade-to-stderr on IO errors, so a
  failing disk never takes the serving path down;
* :class:`SlowRequestRing` — a bounded in-memory ring of self-contained
  slow-request records, exposed through the server's ``stats`` RPC and
  dumpable with ``repro-eqcheck stats --slow``;
* a request-scoped context (:func:`set_current_request` /
  :func:`current_request`) that lets deep instrumentation sites — e.g. the
  ``verifier.check`` root span in :mod:`repro.verifier.session` — tag their
  spans with the id of the server request they are running under, without
  threading an argument through every layer.

Everything here is stdlib-only and safe to call from multiple threads.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import sys
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional

__all__ = [
    "EVENT_KINDS",
    "LOG_LEVELS",
    "RequestLogger",
    "SlowRequestRing",
    "current_request",
    "request_scope",
    "set_current_request",
]

#: Event kinds emitted by the verification server's request log.
EVENT_KINDS = (
    "connect",
    "disconnect",
    "request_accepted",
    "request_rejected",
    "request_completed",
    "request_slow",
)

#: Severity ordering for :class:`RequestLogger` filtering.
LOG_LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: Default severity of each event kind (``emit`` may override per call).
#: The log is completion-based at its default info level — one
#: ``request_completed`` line per request, access-log style, carrying the
#: verdict and timings.  ``request_accepted`` is debug detail: it only earns
#: its write when chasing requests that never complete.
DEFAULT_EVENT_LEVELS = {
    "connect": "debug",
    "disconnect": "debug",
    "request_accepted": "debug",
    "request_rejected": "warning",
    "request_completed": "info",
    "request_slow": "warning",
}

#: Strings that can be embedded in a JSON document without escaping.  The
#: fast path below covers every string the server actually logs (peer
#: addresses, hex fingerprints, job names, verdicts); anything containing a
#: quote, backslash or control character falls back to :func:`json.dumps`.
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')


def _encode_record(record: Dict[str, Any]) -> str:
    """Serialise one flat log record ~3x faster than :func:`json.dumps`.

    The request log is on the daemon's event loop: every microsecond spent
    encoding is a microsecond of serving latency, and the generic encoder
    spends most of its time dispatching on types this log rarely uses.
    Output is ordinary JSON — nested values and awkward strings are handed
    back to :func:`json.dumps` rather than approximated.  ``None``-valued
    fields are dropped here, which is part of :meth:`RequestLogger.emit`'s
    contract.
    """
    parts = []
    for key, value in record.items():
        if value is None:
            continue
        kind = type(value)
        if kind is str:
            if _NEEDS_ESCAPE.search(value) is None:
                encoded = f'"{value}"'
            else:
                encoded = json.dumps(value)
        elif value is True:
            encoded = "true"
        elif value is False:
            encoded = "false"
        elif kind is int:
            encoded = str(value)
        elif kind is float:
            encoded = repr(value) if math.isfinite(value) else "null"
        else:
            encoded = json.dumps(value, separators=(",", ":"), default=str)
        parts.append(f'"{key}":{encoded}')
    return "{" + ",".join(parts) + "}"


class RequestLogger:
    """Append-only JSONL event log with rotation and stderr degradation.

    Each :meth:`emit` records one JSON object per line carrying ``ts``
    (epoch seconds), ``event`` (one of :data:`EVENT_KINDS`), ``level`` and
    the caller's fields.  Events below the configured *level* are dropped.

    Writes are synchronous and land on disk before :meth:`emit` returns —
    in a single interpreter a hand-off thread would pay context switches
    without shedding any CPU, so the path is instead kept cheap: compact
    separators, unsorted keys, one small record per line.  :meth:`flush`
    exists for API symmetry (and future buffering) and is always satisfied.

    When the file would exceed *max_bytes* the current file is renamed to
    ``<path>.1`` (replacing any previous backup) and a fresh file is opened,
    so the log's on-disk footprint is bounded by roughly ``2 * max_bytes``.

    Any :class:`OSError` while writing or rotating permanently degrades the
    logger to stderr: the failure is reported once, and every subsequent
    event goes to stderr instead — observability must never make the server
    fall over.
    """

    def __init__(
        self,
        path: str,
        level: str = "info",
        max_bytes: int = 32 * 1024 * 1024,
        clock=time.time,
    ):
        if level not in LOG_LEVELS:
            raise ValueError(f"unknown log level {level!r}; expected one of {sorted(LOG_LEVELS)}")
        self.path = path
        self.level = level
        self.max_bytes = max(1024, int(max_bytes))
        self.clock = clock
        self.degraded = False
        self.events_written = 0
        self.events_dropped = 0
        self._lock = threading.Lock()
        self._handle: Optional[io.TextIOBase] = None
        self._size = 0
        self._open()

    # ------------------------------------------------------------------ #
    def _open(self) -> None:
        try:
            self._handle = open(self.path, "a", encoding="utf-8")
            self._size = self._handle.tell()
        except OSError as exc:
            self._degrade(exc)

    def _degrade(self, exc: BaseException) -> None:
        if not self.degraded:
            self.degraded = True
            print(
                f"repro-eqcheck serve: request log {self.path!r} failed ({exc}); "
                "falling back to stderr",
                file=sys.stderr,
            )
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def _rotate(self) -> None:
        assert self._handle is not None
        self._handle.close()
        self._handle = None
        os.replace(self.path, self.path + ".1")
        self._handle = open(self.path, "a", encoding="utf-8")
        self._size = 0

    # ------------------------------------------------------------------ #
    def enabled_for(self, level: str) -> bool:
        return LOG_LEVELS.get(level, LOG_LEVELS["info"]) >= LOG_LEVELS[self.level]

    def emit(self, kind: str, level: Optional[str] = None, **fields: Any) -> None:
        """Write one event; drops fields whose value is ``None``."""
        resolved = level or DEFAULT_EVENT_LEVELS.get(kind, "info")
        if not self.enabled_for(resolved):
            self.events_dropped += 1
            return
        record: Dict[str, Any] = {"ts": self.clock(), "event": kind, "level": resolved, **fields}
        line = _encode_record(record) + "\n"
        with self._lock:
            if not self.degraded:
                try:
                    if self._handle is None:
                        raise ValueError("request log file is closed")
                    if self._size + len(line) > self.max_bytes and self._size > 0:
                        self._rotate()
                    self._handle.write(line)
                    self._handle.flush()
                    self._size += len(line)
                except (OSError, ValueError) as exc:
                    # ValueError covers a handle something closed under us
                    # ("I/O operation on closed file") — same degradation.
                    self._degrade(exc)
            if self.degraded:
                sys.stderr.write(line)
            self.events_written += 1

    def flush(self, timeout: float = 5.0) -> bool:
        """Every emitted event is already on disk; kept for API symmetry."""
        return True

    def stats(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "level": self.level,
            "degraded": self.degraded,
            "events_written": self.events_written,
            "events_dropped": self.events_dropped,
        }

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None


class SlowRequestRing:
    """A bounded ring of slow-request records (newest-last, thread-safe).

    Records are plain JSON-serialisable dicts, self-contained enough to
    triage without the daemon: fingerprint, options, phase breakdown,
    the check's opcache counts and backend query counts.  ``captured`` counts every
    record ever added, including the ones the bound has since evicted.
    """

    def __init__(self, capacity: int = 32):
        self.capacity = max(1, int(capacity))
        self.captured = 0
        self._lock = threading.Lock()
        self._records: Deque[Dict[str, Any]] = deque(maxlen=self.capacity)

    def add(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._records.append(record)
            self.captured += 1

    def snapshot(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


# --------------------------------------------------------------------------- #
# Request-scoped context: which server request is this thread working for?
# --------------------------------------------------------------------------- #
_REQUEST_CONTEXT = threading.local()


def set_current_request(request_id: Optional[Any]) -> None:
    """Bind *request_id* to the calling thread (``None`` clears it)."""
    _REQUEST_CONTEXT.request_id = request_id


def current_request() -> Optional[Any]:
    """The server request id bound to this thread, if any."""
    return getattr(_REQUEST_CONTEXT, "request_id", None)


class request_scope:
    """Context manager binding a request id for the duration of a block.

    Used by the server pool around each warm check so that spans opened
    anywhere underneath (``verifier.check`` and deeper) can tag themselves
    with the request they serve.  Restores the previous binding on exit, so
    scopes nest.
    """

    __slots__ = ("request_id", "_previous")

    def __init__(self, request_id: Optional[Any]):
        self.request_id = request_id
        self._previous: Optional[Any] = None

    def __enter__(self) -> "request_scope":
        self._previous = current_request()
        set_current_request(self.request_id)
        return self

    def __exit__(self, *exc_info) -> None:
        set_current_request(self._previous)


def iter_jsonl(path: str) -> Iterator[Dict[str, Any]]:
    """Parse a JSONL request log, skipping blank lines (strict otherwise)."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)
