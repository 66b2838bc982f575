"""The asyncio daemon: listeners, per-client budgets, graceful drain.

:class:`VerificationServer` owns one :class:`~repro.server.pool.WarmVerifierPool`
plus its :class:`~repro.server.pool.JobDispatcher` and serves the newline-
delimited JSON protocol of :mod:`repro.server.protocol` over TCP and/or a
unix domain socket.  The event loop only ever parses frames and books
futures; every check runs on the pool's worker threads, so a slow job never
stops the server from answering ``ping`` or accepting new connections.

Lifecycle
---------

``start()`` binds the listeners (a TCP port of ``0`` picks a free one; the
bound addresses are in :attr:`addresses`).  ``serve_forever()`` parks until
:meth:`initiate_shutdown` is called — by the ``shutdown`` RPC, by ``SIGTERM``
/ ``SIGINT`` (installed by :func:`run_server`), or by a test.  Shutdown is a
*drain*: listeners close immediately, requests already in flight run to
completion (bounded by ``config.drain_seconds``), every connection receives
its remaining responses, new requests are answered with a structured
``shutting_down`` error, and only then does the loop exit.

Per-client budgets
------------------

Each connection may have at most ``config.max_inflight_per_client`` checks
in flight; excess requests are rejected immediately with ``rate_limited``
(not queued — a client that wants backpressure gets it by bounding its own
pipeline).  Frames above ``config.max_frame_bytes`` terminate the connection
after a ``frame_too_large`` error, because a byte stream past an oversized
frame is no longer self-synchronising.

:class:`ServerThread` runs the whole daemon on a background thread — the
harness the in-process tests and the soak benchmark use.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..service.cache import ResultCache
from ..service.fingerprint import job_fingerprint
from ..service.job import VerificationJob
from ..service.report import SERVER_SNAPSHOT_VERSION
from ..telemetry import (
    METRICS,
    TRACER,
    Histogram,
    RequestLogger,
    SlowRequestRing,
    render_server_snapshot,
)
from ..telemetry.prom import CONTENT_TYPE as _PROM_CONTENT_TYPE
from . import protocol
from .pool import JobDispatcher, WarmVerifierPool

__all__ = ["ServerConfig", "VerificationServer", "ServerThread", "run_server"]


@dataclass
class ServerConfig:
    """Everything a daemon instance can be tuned with."""

    host: Optional[str] = "127.0.0.1"
    port: int = 8571
    unix_socket: Optional[str] = None
    workers: int = 1
    cache_dir: Optional[str] = None
    cache_memory_entries: int = 4096
    no_cache: bool = False
    compiled_entries: int = 512
    default_timeout: Optional[float] = None
    max_timeout: Optional[float] = None
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    max_inflight_per_client: int = 16
    drain_seconds: float = 30.0
    # Decision-backend default applied to requests that do not choose one
    # (see WarmVerifierPool.prepare_job); None honours each job's options.
    backend: Optional[str] = None
    smt_solver: Optional[str] = None
    # Directory of the persistent Presburger op-cache shared by the pool's
    # worker threads (None: in-memory warm state only).
    persist_dir: Optional[str] = None
    # Observability (docs/observability.md, "Operating the server"): the
    # structured JSONL request log and the bounded slow-request capture.
    log_path: Optional[str] = None
    log_level: str = "info"
    log_max_bytes: int = 32 * 1024 * 1024
    slow_threshold: Optional[float] = None
    slow_capacity: int = 32

    def build_cache(self) -> Optional[ResultCache]:
        """The verdict cache this config describes (memory-only by default)."""
        if self.no_cache:
            return None
        return ResultCache(self.cache_dir, memory_entries=self.cache_memory_entries)


class _ClientContext:
    """Per-connection budget accounting."""

    __slots__ = ("peer", "inflight", "write_lock")

    def __init__(self, peer: str):
        self.peer = peer
        self.inflight = 0
        self.write_lock = asyncio.Lock()


class VerificationServer:
    """One daemon instance: warm pool + dispatcher + listeners."""

    def __init__(self, config: Optional[ServerConfig] = None, pool: Optional[WarmVerifierPool] = None):
        self.config = config or ServerConfig()
        self.pool = pool or WarmVerifierPool(
            workers=self.config.workers,
            cache=self.config.build_cache(),
            compiled_entries=self.config.compiled_entries,
            default_timeout=self.config.default_timeout,
            backend=self.config.backend,
            smt_solver=self.config.smt_solver,
            persist_dir=self.config.persist_dir,
        )
        self.dispatcher = JobDispatcher(self.pool)
        self.addresses: List[str] = []
        self._servers: List[asyncio.AbstractServer] = []
        self._request_tasks: "set[asyncio.Task]" = set()
        self._connections = 0
        self._shutdown_event: Optional[asyncio.Event] = None
        self.draining = False
        self._started_monotonic = time.monotonic()
        self.request_log: Optional[RequestLogger] = (
            RequestLogger(
                self.config.log_path,
                level=self.config.log_level,
                max_bytes=self.config.log_max_bytes,
            )
            if self.config.log_path
            else None
        )
        self.slow_requests = SlowRequestRing(self.config.slow_capacity)
        # Always-on request/check latency histograms: unlike the opt-in
        # METRICS registry these must be observable through `stats` on any
        # daemon, telemetry flags or not.  Observed only from the event-loop
        # thread, so no lock is needed.
        self.request_latency = Histogram("request_seconds")
        self.check_latency = Histogram("check_seconds")
        # Per-request trace propagation: while >=1 traced check is in
        # flight the process-wide tracer is enabled; when we flipped it on
        # ourselves we also turn it off (and drop the buffer) once the last
        # traced request finishes, so untraced traffic never accumulates
        # spans unboundedly.
        self._traced_inflight = 0
        self._owns_tracer = False

    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the configured listeners; fills :attr:`addresses`."""
        self._shutdown_event = asyncio.Event()
        limit = self.config.max_frame_bytes + 2
        if self.config.host is not None:
            server = await asyncio.start_server(
                self._handle_client, host=self.config.host, port=self.config.port, limit=limit
            )
            self._servers.append(server)
            for sock in server.sockets or ():
                host, port = sock.getsockname()[:2]
                self.addresses.append(f"{host}:{port}")
        if self.config.unix_socket:
            server = await asyncio.start_unix_server(
                self._handle_client, path=self.config.unix_socket, limit=limit
            )
            self._servers.append(server)
            self.addresses.append(f"unix:{self.config.unix_socket}")
        if not self._servers:
            raise ValueError("server config binds neither a TCP host nor a unix socket")

    async def serve_forever(self) -> None:
        """Park until shutdown is initiated, then drain and close."""
        assert self._shutdown_event is not None, "call start() first"
        await self._shutdown_event.wait()
        await self._drain()

    def initiate_shutdown(self) -> None:
        """Begin graceful shutdown (idempotent, callable from the loop thread)."""
        self.draining = True
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def _drain(self) -> None:
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        # A client that sent a frame just before shutdown deserves an answer
        # (the drained verdict or a structured shutting_down error), but its
        # bytes may still sit in the socket buffer, not yet turned into a
        # request task.  Give open connections one short read-grace so those
        # frames surface before the task wait below concludes.
        if self._connections and self.config.drain_seconds > 0:
            await asyncio.sleep(min(0.25, self.config.drain_seconds))
        # Re-snapshot until quiet: a frame already buffered on an open
        # connection can spawn a request task *after* draining began (it is
        # answered with a shutting_down error) and must still be awaited.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_seconds
        while True:
            pending = {task for task in self._request_tasks if not task.done()}
            if not pending:
                break
            remaining = deadline - loop.time()
            if remaining <= 0:
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
                break
            await asyncio.wait(pending, timeout=remaining)
        self.pool.close()
        if self.request_log is not None:
            self.request_log.close()
        if self.config.unix_socket and os.path.exists(self.config.unix_socket):
            try:
                os.remove(self.config.unix_socket)
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    async def _handle_client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        peername = writer.get_extra_info("peername")
        ctx = _ClientContext(str(peername))
        self._connections += 1
        self._log_event("connect", peer=ctx.peer, connections=self._connections)
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError:
                    # Client went away mid-frame (or cleanly with no partial
                    # data); either way this connection is over — silently.
                    break
                except asyncio.LimitOverrunError:
                    # The stream cannot be re-synchronised past an oversized
                    # frame; answer once, then hang up this connection.
                    self.pool.stats.inc("rejected")
                    self._log_event(
                        "request_rejected",
                        peer=ctx.peer,
                        code=protocol.ERROR_FRAME_TOO_LARGE,
                    )
                    await self._send(
                        ctx,
                        writer,
                        protocol.error_response(
                            None,
                            protocol.ERROR_FRAME_TOO_LARGE,
                            f"frame exceeds the {self.config.max_frame_bytes} byte limit",
                        ),
                    )
                    break
                except (ConnectionResetError, BrokenPipeError, OSError):
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(self._serve_frame(ctx, writer, line))
                self._request_tasks.add(task)
                task.add_done_callback(self._request_tasks.discard)
        finally:
            self._connections -= 1
            self._log_event("disconnect", peer=ctx.peer, connections=self._connections)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            except asyncio.CancelledError:
                # Loop teardown cancelled us while flushing the close; the
                # transport dies with the loop either way.
                pass

    async def _send(self, ctx: _ClientContext, writer: asyncio.StreamWriter, frame: Dict[str, Any]) -> None:
        """Write one response frame; a vanished client is not an error."""
        async with ctx.write_lock:
            try:
                writer.write(protocol.encode_frame(frame))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_frame(self, ctx: _ClientContext, writer: asyncio.StreamWriter, line: bytes) -> None:
        """Decode, dispatch and answer one frame; never lets an error escape."""
        self.pool.stats.inc("requests")
        request_id: Any = None
        try:
            payload = protocol.decode_frame(line, self.config.max_frame_bytes)
            request_id = payload.get("id")
            request_id, method, params = protocol.validate_request(payload)
        except protocol.ProtocolError as error:
            self.pool.stats.inc("rejected")
            self._log_event(
                "request_rejected", request=request_id, peer=ctx.peer, code=error.code
            )
            await self._send(ctx, writer, protocol.error_response(request_id, error.code, error.message))
            return
        traced = method == "check" and bool(params.get("trace"))
        if traced:
            self._begin_request_trace()
        mark = TRACER.mark() if traced else 0
        started = time.perf_counter()
        error_code: Optional[str] = None
        with TRACER.span("server.request", "server", method=method, request=request_id):
            try:
                response = await self._dispatch(ctx, request_id, method, params)
            except protocol.ProtocolError as error:
                self.pool.stats.inc("rejected")
                error_code = error.code
                response = protocol.error_response(request_id, error.code, error.message)
            except asyncio.CancelledError:
                # Drain timeout hit while this request was still running:
                # tell the client rather than vanish.
                error_code = protocol.ERROR_SHUTTING_DOWN
                response = protocol.error_response(
                    request_id, protocol.ERROR_SHUTTING_DOWN, "server shut down before completion"
                )
            except Exception as error:  # the queue must never wedge
                self.pool.stats.inc("errors")
                error_code = protocol.ERROR_INTERNAL
                response = protocol.error_response(
                    request_id, protocol.ERROR_INTERNAL, f"{type(error).__name__}: {error}"
                )
        wall = time.perf_counter() - started
        self.request_latency.observe(wall)
        if traced:
            self._finish_request_trace(mark, request_id, response)
        if error_code is not None:
            self._log_event(
                "request_rejected",
                level="error" if error_code == protocol.ERROR_INTERNAL else None,
                request=request_id,
                peer=ctx.peer,
                method=method,
                code=error_code,
                wall_seconds=round(wall, 6),
            )
        elif method != "check":
            # check requests log their own richer completion event inside
            # _serve_check, where the outcome is in scope.
            self._log_event(
                "request_completed",
                level="debug",
                request=request_id,
                peer=ctx.peer,
                method=method,
                wall_seconds=round(wall, 6),
            )
        await self._send(ctx, writer, response)

    # ------------------------------------------------------------------ #
    def _log_event(self, kind: str, level: Optional[str] = None, **fields: Any) -> None:
        if self.request_log is not None:
            self.request_log.emit(kind, level=level, **fields)

    def _begin_request_trace(self) -> None:
        self._traced_inflight += 1
        if not TRACER.enabled:
            TRACER.enabled = True
            self._owns_tracer = True

    def _finish_request_trace(self, mark: int, request_id: Any, response: Dict[str, Any]) -> None:
        """Append this request's event-loop spans to the response and clean up.

        The pool already attached the worker thread's spans (filtered by
        thread id); here the root ``server.request`` span — identified by
        its ``request`` arg, since concurrent requests interleave on the
        loop thread — joins them, then the traced-inflight accounting winds
        down (possibly disabling and clearing the tracer we enabled).
        """
        try:
            own_tid = threading.get_ident()
            root_spans = [
                record.to_dict()
                for record in TRACER.records_since(mark)
                if record.tid == own_tid and record.args.get("request") == request_id
            ]
        finally:
            self._traced_inflight -= 1
            if self._traced_inflight == 0 and self._owns_tracer:
                TRACER.enabled = False
                self._owns_tracer = False
                TRACER.clear()
        result = response.get("result") if response.get("ok") else None
        if isinstance(result, dict):
            trace_block = result.setdefault("trace", {})
            trace_block.setdefault("spans", []).extend(root_spans)
            trace_block["pid"] = os.getpid()

    # ------------------------------------------------------------------ #
    async def _dispatch(self, ctx: _ClientContext, request_id: Any, method: str, params: Dict[str, Any]) -> Dict[str, Any]:
        if method == "ping":
            return protocol.ok_response(
                request_id,
                {
                    "pong": True,
                    "protocol_version": protocol.PROTOCOL_VERSION,
                    "uptime_seconds": time.monotonic() - self._started_monotonic,
                    "pid": os.getpid(),
                    "draining": self.draining,
                },
            )
        if method == "stats":
            payload = self.snapshot()
            if params.get("slow"):
                payload["slow"]["records"] = self.slow_requests.snapshot()
            fmt = params.get("format")
            if fmt == "prometheus":
                metric_rows = METRICS.snapshot() if METRICS.enabled else None
                return protocol.ok_response(
                    request_id,
                    {
                        "format": "prometheus",
                        "content_type": _PROM_CONTENT_TYPE,
                        "text": render_server_snapshot(payload, metric_rows=metric_rows),
                    },
                )
            if fmt not in (None, "json"):
                raise protocol.ProtocolError(
                    protocol.ERROR_INVALID_REQUEST,
                    f"unknown stats format {fmt!r}; expected 'json' or 'prometheus'",
                )
            return protocol.ok_response(request_id, payload)
        if method == "reset":
            self.pool.reset()
            return protocol.ok_response(request_id, {"reset": True})
        if method == "shutdown":
            self.initiate_shutdown()
            return protocol.ok_response(request_id, {"shutting_down": True})
        if method == "check":
            return await self._serve_check(ctx, request_id, params)
        raise protocol.ProtocolError(
            protocol.ERROR_UNKNOWN_METHOD, f"unknown method {method!r}"
        )

    async def _serve_check(self, ctx: _ClientContext, request_id: Any, params: Dict[str, Any]) -> Dict[str, Any]:
        if self.draining:
            raise protocol.ProtocolError(
                protocol.ERROR_SHUTTING_DOWN, "server is draining; not accepting new checks"
            )
        if ctx.inflight >= self.config.max_inflight_per_client:
            # Counted as `rejected` by the ProtocolError handler upstream.
            raise protocol.ProtocolError(
                protocol.ERROR_RATE_LIMITED,
                f"client budget exceeded: {ctx.inflight} checks already in flight "
                f"(limit {self.config.max_inflight_per_client})",
            )
        job_payload = params.get("job")
        if not isinstance(job_payload, dict):
            raise protocol.ProtocolError(
                protocol.ERROR_INVALID_REQUEST, "check params must carry a 'job' object"
            )
        try:
            job = VerificationJob.from_dict(job_payload)
        except (KeyError, TypeError, ValueError) as error:
            raise protocol.ProtocolError(
                protocol.ERROR_INVALID_REQUEST, f"malformed job: {type(error).__name__}: {error}"
            ) from None
        timeout = params.get("timeout")
        if timeout is not None and not isinstance(timeout, (int, float)):
            raise protocol.ProtocolError(
                protocol.ERROR_INVALID_REQUEST, "'timeout' must be a number of seconds"
            )
        if self.config.max_timeout is not None:
            timeout = min(timeout, self.config.max_timeout) if timeout else self.config.max_timeout
        trace_requested = bool(params.get("trace"))
        # Fingerprint once, on the event loop: the accepted log event, the
        # dispatcher's dedup key and the pool's cache front all reuse it
        # (hashing two whole programs costs ~1 ms — recomputing it per layer
        # was the bulk of the observability overhead).
        job = self.pool.prepare_job(job)
        fingerprint = job_fingerprint(job)
        if self.request_log is not None and self.request_log.enabled_for("debug"):
            self._log_event(
                "request_accepted",
                request=request_id,
                peer=ctx.peer,
                method="check",
                job=job.name,
                fingerprint=fingerprint,
                trace=trace_requested or None,
            )
        ctx.inflight += 1
        started = time.perf_counter()
        try:
            outcome = await self.dispatcher.run(
                job,
                timeout,
                collect_spans=trace_requested,
                request_id=request_id,
                fingerprint=fingerprint,
            )
        finally:
            ctx.inflight -= 1
        wall = time.perf_counter() - started
        if not outcome.cache_hit and not outcome.metadata.get("deduplicated"):
            self.check_latency.observe(wall)
        if self.request_log is not None and self.request_log.enabled_for("info"):
            # The per-phase breakdown is a debug-level detail: it nearly
            # doubles the serialised record, and slow-request captures carry
            # it regardless of log level.
            check_stats = None
            if self.request_log.enabled_for("debug") and outcome.result is not None:
                check_stats = outcome.result.stats
            self._log_event(
                "request_completed",
                request=request_id,
                peer=ctx.peer,
                method="check",
                job=outcome.name,
                fingerprint=outcome.fingerprint,
                status=outcome.status,
                verdict=outcome.equivalent,
                dedup="follower" if outcome.metadata.get("deduplicated") else "leader",
                cache="verdict" if outcome.cache_hit else "none",
                wall_seconds=round(wall, 6),
                elapsed_seconds=round(outcome.elapsed_seconds, 6),
                phase_seconds=dict(check_stats.phase_seconds) if check_stats is not None and check_stats.phase_seconds else None,
                error=outcome.error,
            )
        if self.config.slow_threshold is not None and wall >= self.config.slow_threshold:
            self._capture_slow(request_id, job, outcome, wall)
        result_payload = outcome.to_dict()
        if trace_requested and outcome.telemetry:
            # JobResult.to_dict deliberately drops the transient telemetry
            # field; the shipped spans travel as a sibling `trace` block that
            # _finish_request_trace tops up with the server root span.
            result_payload["trace"] = {"spans": list(outcome.telemetry.get("spans") or ())}
            outcome.telemetry = None
        return protocol.ok_response(request_id, result_payload)

    def _capture_slow(self, request_id: Any, job: VerificationJob, outcome, wall: float) -> None:
        """Persist a self-contained slow-request record into the bounded ring."""
        check_stats = outcome.result.stats if outcome.result is not None else None
        record: Dict[str, Any] = {
            "ts": time.time(),
            "request": request_id,
            "job": job.name,
            "fingerprint": outcome.fingerprint,
            "status": outcome.status,
            "verdict": outcome.equivalent,
            "wall_seconds": wall,
            "elapsed_seconds": outcome.elapsed_seconds,
            "dedup": bool(outcome.metadata.get("deduplicated")),
            "cache_hit": outcome.cache_hit,
            "options": job.options.to_dict() if job.options is not None else None,
            "error": outcome.error,
        }
        if check_stats is not None:
            record["phase_seconds"] = dict(check_stats.phase_seconds)
            record["frontend_seconds"] = check_stats.frontend_seconds
            record["engine_seconds"] = check_stats.engine_seconds
            record["opcache"] = {
                "hits": check_stats.opcache_hits,
                "misses": check_stats.opcache_misses,
            }
            record["solver_queries"] = dict(check_stats.solver_queries)
        self.slow_requests.add(record)
        self._log_event(
            "request_slow",
            request=request_id,
            job=job.name,
            fingerprint=outcome.fingerprint,
            wall_seconds=round(wall, 6),
            threshold_seconds=self.config.slow_threshold,
        )

    def snapshot(self) -> Dict[str, Any]:
        """The deep ``stats`` payload: one schema over every serving layer.

        Extends :meth:`WarmVerifierPool.snapshot` (counters, caches,
        opcache, solver queries) with the daemon's own view — identity
        fields for fleet tooling (``pid``/``protocol_version``/
        ``uptime_seconds``), live connection/in-flight gauges, the always-on
        latency histograms and the slow-request/request-log summaries.
        ``repro.telemetry.prom.render_server_snapshot`` renders exactly this
        payload, and :func:`repro.service.report.format_server_snapshot`
        pretty-prints it for ``repro-eqcheck stats``.
        """
        payload = self.pool.snapshot()
        payload["schema_version"] = SERVER_SNAPSHOT_VERSION
        payload["protocol_version"] = protocol.PROTOCOL_VERSION
        payload["pid"] = os.getpid()
        payload["uptime_seconds"] = time.monotonic() - self._started_monotonic
        payload["inflight"] = self.dispatcher.inflight
        payload["connections"] = self._connections
        payload["draining"] = self.draining
        payload["latency"] = {
            "request_seconds": self.request_latency.snapshot(),
            "check_seconds": self.check_latency.snapshot(),
        }
        payload["slow"] = {
            "threshold_seconds": self.config.slow_threshold,
            "capacity": self.slow_requests.capacity,
            "captured": self.slow_requests.captured,
            "held": len(self.slow_requests),
        }
        payload["request_log"] = self.request_log.stats() if self.request_log is not None else None
        return payload


async def _serve(config: ServerConfig, ready=None, install_signals: bool = True) -> None:
    server = VerificationServer(config)
    await server.start()
    loop = asyncio.get_running_loop()
    if install_signals:
        import signal as _signal

        for signum in (_signal.SIGTERM, _signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.initiate_shutdown)
            except (NotImplementedError, RuntimeError):
                pass
    if ready is not None:
        ready(server)
    await server.serve_forever()


def run_server(config: ServerConfig, ready=None, install_signals: bool = True) -> None:
    """Run a daemon to completion on a fresh event loop (the CLI entry).

    *ready* is called with the started :class:`VerificationServer` once the
    listeners are bound (used to print the live addresses).  ``SIGTERM`` and
    ``SIGINT`` trigger a graceful drain when *install_signals* is true.
    """
    asyncio.run(_serve(config, ready=ready, install_signals=install_signals))


class ServerThread:
    """A daemon running on a background thread, for tests and benchmarks.

    Usage::

        with ServerThread(ServerConfig(port=0)) as handle:
            client = ServerClient(handle.address)
            ...

    ``port=0`` binds an ephemeral port; :attr:`address` is the first bound
    address (``host:port`` or ``unix:PATH``).  Exiting the context initiates
    a graceful drain and joins the thread.
    """

    def __init__(self, config: Optional[ServerConfig] = None, start_timeout: float = 10.0):
        self.config = config or ServerConfig(port=0)
        self.server: Optional[VerificationServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, name="eqcheck-serverthread", daemon=True)
        self._thread.start()
        if not self._ready.wait(start_timeout):
            raise RuntimeError("server thread did not start in time")
        if self._error is not None:
            raise RuntimeError(f"server thread failed to start: {self._error!r}")

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            try:
                await _serve(self.config, ready=self._on_ready, install_signals=False)
            except BaseException as error:
                self._error = error
                self._ready.set()
                raise

        try:
            asyncio.run(main())
        except BaseException:
            if not self._ready.is_set():
                self._ready.set()

    def _on_ready(self, server: VerificationServer) -> None:
        self.server = server
        self._ready.set()

    @property
    def address(self) -> str:
        assert self.server is not None
        return self.server.addresses[0]

    def stop(self, join_timeout: float = 30.0) -> None:
        """Drain gracefully and join the server thread."""
        if self._loop is not None and self.server is not None and self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self.server.initiate_shutdown)
            except RuntimeError:
                pass
        self._thread.join(join_timeout)

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
