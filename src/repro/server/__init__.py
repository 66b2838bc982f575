"""Long-lived verification server: warm state behind a JSON-RPC socket.

Spawning one process per equivalence check pays the interpreter start-up,
imports, and a cold Presburger opcache every single time.  This package
keeps one process alive and shares everything that is expensive to build:

``protocol``
    The newline-delimited JSON frame format (requests, responses,
    structured error codes) spoken over TCP or a unix socket.
``pool``
    The warm core — :class:`~repro.server.pool.WarmVerifierPool` holds
    the worker threads, the one :class:`~repro.verifier.Verifier` session
    they all check through (its compile cache is keyed by source text),
    and the content-addressed verdict cache; the asyncio-side
    :class:`~repro.server.pool.JobDispatcher` coalesces concurrent
    identical requests onto one in-flight leader.
``daemon``
    The asyncio server: connection handling, per-client budgets,
    telemetry spans, and graceful ``SIGTERM`` draining.
    :class:`~repro.server.daemon.ServerThread` runs the whole daemon on a
    background thread for tests and benchmarks.
``client``
    A synchronous pipelined client used by ``repro-eqcheck check/batch
    --server`` and the test harness.

Start one with ``repro-eqcheck serve`` and point any number of clients at
it; see ``docs/server.md`` for the protocol schema and an ops runbook.
"""

from .client import ServerClient, ServerError, parse_address
from .daemon import ServerConfig, ServerThread, VerificationServer, run_server
from .pool import JobDispatcher, ServerStats, WarmVerifierPool
from .protocol import MAX_FRAME_BYTES, PROTOCOL_VERSION, ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "ServerClient",
    "ServerError",
    "parse_address",
    "ServerConfig",
    "ServerThread",
    "VerificationServer",
    "run_server",
    "JobDispatcher",
    "ServerStats",
    "WarmVerifierPool",
]
