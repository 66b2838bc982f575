"""Batch execution of verification jobs: cache front, process pool, timeouts.

This module is also the job-running core the verification server shares:
:func:`job_budget` (the one budget rule), :func:`cached_result` (the cache
front), :func:`store_verdict` (the failure-tolerant cache fill) and
:func:`follower_result` (the dedup fan-out) each exist once, and both
:class:`BatchExecutor` and :mod:`repro.server.pool` call them.

The executor runs a sequence of :class:`~repro.service.job.VerificationJob`
values and returns one :class:`~repro.service.job.JobResult` per job, in the
input order.  Before any work is dispatched, every job is looked up in the
result cache; only misses are executed — serially for ``workers <= 1`` (no
pickling, easiest to debug) or on a ``ProcessPoolExecutor`` otherwise.

Timeouts are enforced *inside* the executing process (the checker is pure
Python, so there is no portable way to interrupt it from the outside without
killing the worker).  The one mechanism is a signal-free watchdog: a timer
thread that raises :class:`JobTimeoutError` into the executing thread at the
next bytecode boundary, so any thread — the main thread, a server worker
thread — can carry its own independent budget (see
:func:`repro.verifier.watchdog.call_with_timeout`, re-exported here).  A job
that exceeds its budget yields a ``timeout`` result instead of poisoning the
pool.  Any exception a job raises is captured into an ``error`` result
with its traceback — one bad program never aborts the batch.  Two alarms
deliberately pierce that capture as ``BaseException``: the timeout itself,
and :class:`~repro.solvers.BackendDisagreement` from a cross-checked run,
which is recorded as an ``error`` result carrying the serialized query.

Each worker process keeps its own Presburger operation cache
(:mod:`repro.presburger.opcache`) warm across the jobs it executes; every
job ships its share of that activity (and, while tracing, its spans) home
through :func:`execute_job`, and the parent merges it, so a pooled batch
counts the same Presburger work as a serial one.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, Iterable, List, Optional, Sequence

from ..presburger import opcache
from ..solvers.base import BackendDisagreement
from ..telemetry import TRACER as _TRACER
from ..verifier.watchdog import JobTimeoutError, call_with_timeout
from .cache import ResultCache
from .fingerprint import job_fingerprint
from .job import JobResult, JobStatus, VerificationJob

__all__ = [
    "BatchExecutor",
    "JobTimeoutError",
    "cached_result",
    "call_with_timeout",
    "execute_job",
    "follower_result",
    "job_budget",
    "store_verdict",
]


def job_budget(
    job: VerificationJob, *fallbacks: Optional[float], cap: Optional[float] = None
) -> Optional[float]:
    """The wall-clock budget *job* runs under.

    The job's own ``options.timeout`` wins; otherwise the first of
    *fallbacks* that is not ``None`` (the server passes the request's budget
    and then its default, the batch executor its ``--timeout``).  *cap*
    (``serve --max-timeout``) then bounds whichever budget won, and stands
    in for "no budget" (``None`` or a non-positive value).
    """
    budget = next(
        (value for value in (job.options.timeout, *fallbacks) if value is not None), None
    )
    if cap is not None and (budget is None or budget <= 0 or budget > cap):
        budget = cap
    return budget


def cached_result(
    cache: Optional[ResultCache], job: VerificationJob, fingerprint: str
) -> Optional[JobResult]:
    """The cache-hit result for *job*, or ``None`` on a miss (or no cache)."""
    cached = cache.get(fingerprint) if cache is not None else None
    if cached is None:
        return None
    return JobResult(
        name=job.name,
        status=JobStatus.OK,
        equivalent=cached.equivalent,
        expected_equivalent=job.expected_equivalent,
        elapsed_seconds=0.0,
        cache_hit=True,
        fingerprint=fingerprint,
        result=cached,
        metadata=dict(job.metadata),
    )


def store_verdict(cache: Optional[ResultCache], outcome: JobResult) -> None:
    """File a freshly computed verdict in *cache*.

    Caching is an optimization: a full disk or read-only cache directory
    must not discard a computed verdict, so a failed write only counts in
    ``cache.stats.store_errors``.
    """
    if cache is None or outcome.cache_hit or outcome.result is None:
        return
    try:
        cache.put(outcome.fingerprint, outcome.result)
    except OSError:
        with cache._lock:
            cache.stats.store_errors += 1


def follower_result(job: VerificationJob, outcome: JobResult) -> JobResult:
    """*job*'s share of a duplicate leader's *outcome*.

    The verdict (or failure) is inherited at zero cost.  It is not marked
    ``cache_hit``: dedup reuse works with caching disabled and must not
    inflate the reported hit rate.
    """
    return JobResult(
        name=job.name,
        status=outcome.status,
        equivalent=outcome.equivalent,
        expected_equivalent=job.expected_equivalent,
        elapsed_seconds=0.0,
        cache_hit=False,
        fingerprint=outcome.fingerprint,
        result=outcome.result,
        error=outcome.error,
        metadata={**job.metadata, "deduplicated": True},
    )


def _worker_init(trace: bool, persist_path: Optional[str]) -> None:
    """Pool-worker initializer: start every worker from a clean tracer.

    With the ``fork`` start method a worker inherits the parent's record
    buffer (and its ``pid`` stamp); shipping those inherited spans home again
    would duplicate them, so the buffers are cleared — and re-stamped with
    the worker's own pid — before the first job runs.  The worker traces
    exactly when the parent does (*trace*).

    The worker also (re-)attaches the persistent op-cache the parent has
    attached at *persist_path* (``None``: none): with ``fork`` the inherited
    sqlite connection must not be reused, and with ``spawn`` the store is
    not inherited at all.  Every worker then shares the batch's warm on-disk
    state through its own connection (WAL keeps concurrent workers safe).
    """
    _TRACER.clear()
    _TRACER.enabled = trace
    if persist_path and opcache.persistent_store() is None:
        opcache.attach_persistent(persist_path)
    else:
        opcache.reattach_persistent()


def execute_job(
    job: VerificationJob,
    timeout: Optional[float] = None,
    fingerprint: str = "",
    ship: bool = False,
    run: Optional[Callable[[], Any]] = None,
) -> JobResult:
    """Execute one job in the current thread, capturing failure and timeout.

    *timeout* is the fallback budget; a job whose
    :class:`~repro.verifier.options.CheckOptions` carry their own ``timeout``
    overrides it (:func:`job_budget`).  *run* replaces ``job.run`` as the
    zero-argument check body — the verification server passes a
    warm-session closure here so the status/timeout/error capture stays
    identical between the cold and the warm paths.

    While tracing, the job runs under a ``service.job`` span.  The job
    collects the spans this thread finishes and the Presburger counts it
    makes.  With *ship* the spans and a
    copy of the counts go into ``JobResult.telemetry`` for another process.
    This is the one place that packs them: batch pool workers always ship,
    and the server ships for a traced request and forwards only the spans
    (its own totals hold the counts, and the result's stats the check's).
    """
    timeout = job_budget(job, timeout)
    with _TRACER.collect() as spans, opcache.collect() as counts:
        outcome = _execute_job_body(job, timeout, fingerprint, run)
    if ship:
        outcome.telemetry = {
            "spans": [record.to_dict() for record in spans],
            "opcache": counts.as_dict(),
        }
    else:
        _TRACER.ingest(spans)
    return outcome


def _execute_job_body(
    job: VerificationJob,
    timeout: Optional[float],
    fingerprint: str,
    run: Optional[Callable[[], Any]] = None,
) -> JobResult:
    started = time.perf_counter()

    def finish(status: str, **fields: Any) -> JobResult:
        fields.setdefault("metadata", dict(job.metadata))
        return JobResult(
            name=job.name,
            status=status,
            expected_equivalent=job.expected_equivalent,
            elapsed_seconds=time.perf_counter() - started,
            fingerprint=fingerprint,
            **fields,
        )

    with _TRACER.span("service.job", "service", job=job.name) as span:
        try:
            result = call_with_timeout(run if run is not None else job.run, timeout)
        except JobTimeoutError:
            outcome = finish(JobStatus.TIMEOUT, error=f"job exceeded the {timeout:g} s budget")
        except BackendDisagreement as error:
            # A cross-check divergence is a BaseException so the checker's broad
            # recovery paths cannot swallow it; it surfaces here as a hard ERROR
            # with the serialized query attached for offline replay
            # (repro.solvers.replay_query).
            outcome = finish(
                JobStatus.ERROR,
                error=f"BackendDisagreement: {error}",
                metadata={**job.metadata, "backend_disagreement": error.to_dict()},
            )
        except Exception as error:
            outcome = finish(
                JobStatus.ERROR, error=f"{type(error).__name__}: {error}\n{traceback.format_exc()}"
            )
        else:
            outcome = finish(JobStatus.OK, equivalent=result.equivalent, result=result)
        span.set(status=outcome.status)
    return outcome


class BatchExecutor:
    """Runs batches of jobs against an optional result cache.

    Parameters
    ----------
    cache:
        The verdict cache to consult and fill; ``None`` disables caching.
    workers:
        ``<= 1`` runs jobs serially in this process; larger values dispatch
        cache misses to a ``ProcessPoolExecutor`` of that many workers.
    timeout:
        Wall-clock budget in seconds of every job that carries none of its
        own (``None``: unlimited); see :func:`job_budget`.

    Pool workers share the persistent Presburger op-cache this process has
    attached (if any), so the whole batch reads and fills one warm store.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        workers: int = 1,
        timeout: Optional[float] = None,
    ):
        self.cache = cache
        self.workers = max(1, int(workers))
        self.timeout = timeout
        # index of an executing job -> indices of its in-batch duplicates
        # (same fingerprint); rebuilt by every run() call.
        self._followers: dict = {}

    # ------------------------------------------------------------------ #
    def run(
        self,
        jobs: Iterable[VerificationJob],
        progress: Optional[Callable[[JobResult], None]] = None,
    ) -> List[JobResult]:
        """Run *jobs*, returning one result per job in the input order."""
        jobs = list(jobs)
        results: List[Optional[JobResult]] = [None] * len(jobs)
        pending: List[int] = []
        fingerprints: dict = {}

        for index, job in enumerate(jobs):
            fingerprint = fingerprints[index] = job_fingerprint(job)
            outcome = cached_result(self.cache, job, fingerprint)
            if outcome is not None:
                results[index] = outcome
                if progress is not None:
                    progress(outcome)
            else:
                pending.append(index)

        # Deduplicate identical jobs within the batch: only the first index
        # per key is executed; the rest are fanned out from its result, so
        # duplicate pairs cost one check instead of many.  The key includes
        # the per-job timeout on top of the fingerprint (which excludes it):
        # a TIMEOUT outcome is budget-dependent, so it must never fan out to
        # a duplicate running under a different budget.
        leader_of: dict = {}
        self._followers = {}
        leaders: List[int] = []
        for index in pending:
            key = (fingerprints[index], job_budget(jobs[index], self.timeout))
            if key in leader_of:
                self._followers.setdefault(leader_of[key], []).append(index)
            else:
                leader_of[key] = index
                leaders.append(index)

        if leaders:
            if self.workers <= 1 or len(leaders) == 1:
                for index in leaders:
                    outcome = execute_job(jobs[index], self.timeout, fingerprints[index])
                    self._record(index, outcome, jobs, results, progress)
            else:
                self._run_pool(jobs, leaders, fingerprints, results, progress)

        return [outcome for outcome in results if outcome is not None]

    # ------------------------------------------------------------------ #
    def _record(
        self,
        index: int,
        outcome: JobResult,
        jobs: Sequence[VerificationJob],
        results: List[Optional[JobResult]],
        progress: Optional[Callable[[JobResult], None]],
    ) -> None:
        results[index] = outcome
        if outcome.telemetry is not None:
            _TRACER.ingest(outcome.telemetry.get("spans", ()))
            opcache.ingest(outcome.telemetry.get("opcache", {}))
            outcome.telemetry = None
        store_verdict(self.cache, outcome)
        if progress is not None:
            progress(outcome)
        # Fan the leader's outcome out to its in-batch duplicates.
        for follower_index in self._followers.pop(index, ()):
            derived = follower_result(jobs[follower_index], outcome)
            results[follower_index] = derived
            if progress is not None:
                progress(derived)

    def _run_pool(
        self,
        jobs: Sequence[VerificationJob],
        pending: Sequence[int],
        fingerprints: dict,
        results: List[Optional[JobResult]],
        progress: Optional[Callable[[JobResult], None]],
    ) -> None:
        store = opcache.persistent_store()
        with ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_worker_init,
            initargs=(_TRACER.enabled, store.path if store is not None else None),
        ) as pool:
            future_index = {
                pool.submit(
                    execute_job, jobs[index], self.timeout, fingerprints[index], True
                ): index
                for index in pending
            }
            not_done = set(future_index)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    index = future_index[future]
                    try:
                        outcome = future.result()
                    except Exception as error:  # e.g. BrokenProcessPool
                        job = jobs[index]
                        outcome = JobResult(
                            name=job.name,
                            status=JobStatus.ERROR,
                            expected_equivalent=job.expected_equivalent,
                            fingerprint=fingerprints[index],
                            error=f"{type(error).__name__}: {error}",
                            metadata=dict(job.metadata),
                        )
                    self._record(index, outcome, jobs, results, progress)
