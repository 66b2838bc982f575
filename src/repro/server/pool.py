"""The daemon's warm state: one checking session, verdict cache, dedup.

This module is why the server exists at all.  A cold ``repro-eqcheck check``
pays parse + def-use + ADDG extraction for both programs, an empty Presburger
operation cache and interpreter start-up on every invocation; the warm pool
amortises all of it across the daemon's lifetime:

* :class:`WarmVerifierPool` — a small ``ThreadPoolExecutor`` whose threads
  check every job through one shared
  :class:`~repro.verifier.session.Verifier`, whose compile cache (keyed by
  the raw source text) is the server's one compile cache: a program seen
  by *any* request is parsed and extracted once no matter which worker
  thread checks it.  All threads also share the interpreter-wide
  Presburger operation cache (:mod:`repro.presburger.opcache`) and the
  content-addressed verdict cache (:class:`~repro.service.cache.ResultCache`);
* :class:`JobDispatcher` — the asyncio front that coalesces concurrent
  identical requests: the first request for a ``(job fingerprint, budget)``
  key becomes the *leader* and actually executes; every duplicate that
  arrives while the leader is in flight awaits the same task and fans the
  verdict out at zero cost.  The key deliberately includes the budget (the
  same key :class:`~repro.service.executor.BatchExecutor` uses in-batch): a
  TIMEOUT outcome is budget-dependent, so a leader's timeout must never be
  fanned out to a duplicate running under a different budget.

The cache front, the budget rule, the verdict store and the follower result
are the batch executor's own (:mod:`repro.service.executor`).  Timeouts go
through :func:`repro.verifier.watchdog.call_with_timeout`, whose signal-free
watchdog works on the pool's worker threads as on any other thread.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from ..presburger import opcache
from ..service.cache import ResultCache
from ..service.executor import (
    cached_result,
    execute_job,
    follower_result,
    job_budget,
    store_verdict,
)
from ..service.fingerprint import job_fingerprint
from ..service.job import JobResult, JobStatus, VerificationJob
from ..telemetry import request_scope
from ..verifier import Verifier

__all__ = ["ServerStats", "WarmVerifierPool", "JobDispatcher"]


@dataclass
class ServerStats:
    """Authoritative lifetime counters of one daemon.

    Kept as plain integers, always on, so the ``stats`` RPC and the soak
    benchmark can observe the server whatever the telemetry flags.  They are
    the server's only request counters; the Presburger work counts live in
    the ``opcache`` block (:class:`~repro.presburger.opcache.OpCacheStats`).

    Counters are mutated from two places at once — the asyncio event loop
    (``requests``/``rejected``/``dedup_hits``/``errors``) and the pool's
    worker threads (``cache_hits``/``checks_executed``/``timeouts``/
    ``errors``) — so every update must go through :meth:`inc`, which holds
    one lock per increment.  Bare ``stats.field += 1`` read-modify-writes
    can drop increments under thread preemption.
    """

    requests: int = 0
    checks_executed: int = 0
    dedup_hits: int = 0
    cache_hits: int = 0
    errors: int = 0
    timeouts: int = 0
    rejected: int = 0
    resets: int = 0
    started_at: float = field(default_factory=time.time)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def inc(self, name: str, amount: int = 1) -> None:
        """Atomically add *amount* to the counter *name*."""
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.checks_executed
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "requests": self.requests,
                "checks_executed": self.checks_executed,
                "dedup_hits": self.dedup_hits,
                "cache_hits": self.cache_hits,
                "cache_hit_rate": self.cache_hit_rate,
                "errors": self.errors,
                "timeouts": self.timeouts,
                "rejected": self.rejected,
                "resets": self.resets,
                "uptime_seconds": time.time() - self.started_at,
            }


class WarmVerifierPool:
    """Worker threads over shared warm state.

    Parameters
    ----------
    workers:
        Worker threads.  Checks are pure-Python CPU work, so more threads
        buy queueing fairness and timeout isolation rather than parallel
        speedup; 1–4 is the useful range.
    cache:
        The content-addressed verdict cache consulted before (and filled
        after) every executed check; ``None`` disables verdict caching.
    default_timeout:
        Wall-clock budget applied to jobs that carry none of their own.

    All worker threads share the process-wide Presburger op-cache, including
    the persistent tier the daemon attaches, so one warm store serves every
    thread.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        default_timeout: Optional[float] = None,
        backend: Optional[str] = None,
        smt_solver: Optional[str] = None,
    ):
        self.workers = max(1, int(workers))
        self.cache = cache
        self.session = Verifier()
        self.default_timeout = default_timeout
        self.backend = backend
        self.smt_solver = smt_solver
        self.stats = ServerStats()
        self.solver_queries: Dict[str, int] = {}
        self._solver_lock = threading.Lock()
        self._threads = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="eqcheck-server"
        )
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def prepare_job(
        self,
        job: VerificationJob,
        timeout: Optional[float] = None,
        cap: Optional[float] = None,
    ) -> VerificationJob:
        """*job* with the options this daemon actually checks it under.

        * A ``serve --backend`` override rewrites jobs that carry the default
          (``omega``) backend; a request that explicitly selected another
          backend keeps it.
        * ``timeout`` becomes the budget the job runs under:
          :func:`~repro.service.executor.job_budget` over the request's
          *timeout* and the pool's default, capped by *cap*
          (``serve --max-timeout``).  The dedup key and the check then see
          the same, capped value.

        This MUST happen before any
        :func:`~repro.service.fingerprint.job_fingerprint` computation — the
        backend participates in the fingerprint, so rewriting later would
        alias cache entries and dedup keys across backends.  Idempotent, so
        both the dispatcher and :meth:`run_job` can call it.
        """
        changes: Dict[str, Any] = {"timeout": job_budget(job, timeout, self.default_timeout, cap=cap)}
        if self.backend is not None and job.options.backend == "omega":
            changes["backend"] = self.backend
            changes["smt_solver"] = job.options.smt_solver or self.smt_solver
        options = job.options.replace(**changes)
        return job if options == job.options else replace(job, options=options)

    def run_job(
        self,
        job: VerificationJob,
        timeout: Optional[float] = None,
        ship: bool = False,
        request_id: Optional[Any] = None,
        fingerprint: Optional[str] = None,
    ) -> JobResult:
        """Execute one job warm, synchronously, in the calling thread.

        Cache front first; a miss checks the job through the shared
        session, with the job's budget (see :meth:`prepare_job`) enforced
        by the signal-free timeout path.  Designed to be
        called from the pool's worker threads (via :meth:`submit`) but safe
        from any thread, including the main one.

        *request_id* (the JSON-RPC id of the server request this job serves)
        is bound as the thread's request scope, so the ``verifier.check``
        root span — and any other request-aware instrumentation — tags
        itself with it.  With *ship* the spans this thread finished during
        the check travel on the transient ``outcome.telemetry`` field (see
        :func:`~repro.service.executor.execute_job`), for the daemon to ship
        back to the client; concurrent requests on other workers collect
        their own.
        """
        job = self.prepare_job(job, timeout)
        if fingerprint is None:
            # Hashing a job is ~1 ms (two whole programs through SHA-256);
            # callers that already fingerprinted — the dispatcher does, for
            # its dedup key — pass it down instead of paying again.
            fingerprint = job_fingerprint(job)
        hit = cached_result(self.cache, job, fingerprint)
        if hit is not None:
            self.stats.inc("cache_hits")
            return hit

        def warm_run():
            with request_scope(request_id):
                return self.session.check(
                    job.original_source, job.transformed_source, options=job.options
                )

        outcome = execute_job(job, None, fingerprint, ship, run=warm_run)
        self.stats.inc("checks_executed")
        if outcome.status == JobStatus.TIMEOUT:
            self.stats.inc("timeouts")
        elif outcome.status == JobStatus.ERROR:
            self.stats.inc("errors")
        store_verdict(self.cache, outcome)
        if outcome.result is not None and outcome.result.stats.solver_queries:
            with self._solver_lock:
                for kind, count in outcome.result.stats.solver_queries.items():
                    self.solver_queries[kind] = self.solver_queries.get(kind, 0) + count
        return outcome

    def submit(
        self,
        job: VerificationJob,
        timeout: Optional[float] = None,
        ship: bool = False,
        request_id: Optional[Any] = None,
        fingerprint: Optional[str] = None,
    ):
        """Queue *job* on the worker threads; returns a concurrent future."""
        return self._threads.submit(self.run_job, job, timeout, ship, request_id, fingerprint)

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Drop the verdict cache and the compiled artifacts.

        A check running concurrently with the reset keeps the artifacts it
        already fetched for that one job, which is safe: the session only
        caches frontend results.
        """
        with self._lock:
            self.session.clear_cache()
            if self.cache is not None:
                self.cache.clear()
            self.stats.inc("resets")

    def snapshot(self) -> Dict[str, Any]:
        """The warm-state half of the ``stats`` RPC payload.

        Counters plus pool/compile-cache occupancy, verdict-cache
        hit rates, the process-wide Presburger opcache (memory + disk tier)
        and the accumulated per-kind solver-backend query counts.  The
        daemon layers its own serving-side fields on top — see
        :meth:`repro.server.daemon.VerificationServer.snapshot`.
        """
        payload = self.stats.as_dict()
        compiled = self.session.compile_stats()
        payload["compiled_store"] = compiled
        # Top-level aliases of the compile cache's counters, kept for existing readers.
        payload["compile_hits"] = compiled["hits"]
        payload["compile_misses"] = compiled["misses"]
        payload["verdict_cache"] = self.cache.stats.as_dict() if self.cache is not None else None
        payload["workers"] = self.workers
        payload["opcache"] = opcache.stats().as_dict()
        store = opcache.persistent_store()
        payload["persist"] = {
            "attached": store is not None,
            "path": getattr(store, "path", None),
            "disabled": bool(getattr(store, "disabled", False)) if store is not None else None,
        }
        with self._solver_lock:
            payload["solver_queries"] = dict(self.solver_queries)
        return payload

    def close(self) -> None:
        self._threads.shutdown(wait=True)


class JobDispatcher:
    """Cross-request dedup front over the pool (confined to one event loop).

    All bookkeeping happens on the server's event-loop thread, so the
    in-flight table needs no lock: the leader registers its task before the
    first ``await``, and every duplicate arriving until the task completes
    attaches to it.  Followers observe the leader's :class:`JobResult` and
    re-label it with their own job name / expectation / metadata.
    """

    def __init__(self, pool: WarmVerifierPool):
        self.pool = pool
        self._inflight: Dict[Tuple[str, Optional[float]], "asyncio.Task"] = {}

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    async def run(
        self,
        job: VerificationJob,
        timeout: Optional[float] = None,
        ship: bool = False,
        request_id: Optional[Any] = None,
        fingerprint: Optional[str] = None,
    ) -> JobResult:
        loop = asyncio.get_running_loop()
        job = self.pool.prepare_job(job, timeout)
        if fingerprint is None:
            fingerprint = job_fingerprint(job)
        key = (fingerprint, job.options.timeout)
        leader = self._inflight.get(key)
        if leader is not None:
            self.pool.stats.inc("dedup_hits")
            # shield(): a follower whose client vanished must not cancel the
            # leader out from under every other waiter.
            outcome = await asyncio.shield(leader)
            return follower_result(job, outcome)

        async def lead() -> JobResult:
            return await asyncio.wrap_future(
                self.pool.submit(job, timeout, ship, request_id, fingerprint)
            )

        task = loop.create_task(lead())
        self._inflight[key] = task
        task.add_done_callback(lambda _t: self._inflight.pop(key, None))
        return await asyncio.shield(task)
