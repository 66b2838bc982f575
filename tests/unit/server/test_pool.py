"""Unit tests: the warm pool, the compiled store, and cross-request dedup.

The dedup tests pin down the server's coalescing contract (the same rule
the batch executor applies in-batch): two concurrent requests fuse onto one
in-flight leader *iff* they agree on both the job fingerprint and the
effective timeout budget — a leader's TIMEOUT verdict is budget-dependent
and must never be fanned out to a differently-budgeted duplicate.
"""

import asyncio
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.server.pool import CompiledStore, JobDispatcher, WarmVerifierPool
from repro.service import JobStatus, ResultCache, VerificationJob, job_fingerprint
from repro.service.executor import job_budget
from repro.service.job import JobResult
from repro.verifier import CheckOptions, Verifier

ORIGINAL = """
#define N 8
f(int A[], int B[])
{
    int k;
    for (k = 0; k < N; k++)
s1:     B[k] = A[k] + A[k+1];
}
"""

TRANSFORMED_EQ = """
#define N 8
f(int A[], int B[])
{
    int k;
    for (k = N-1; k >= 0; k--)
t1:     B[k] = A[k+1] + A[k];
}
"""


def make_job(name="j", timeout=None, expected=None):
    return VerificationJob(
        name=name,
        original_source=ORIGINAL,
        transformed_source=TRANSFORMED_EQ,
        options=CheckOptions(timeout=timeout),
        expected_equivalent=expected,
    )


# --------------------------------------------------------------------------- #
# CompiledStore
# --------------------------------------------------------------------------- #
class TestCompiledStore:
    def test_hit_after_miss(self):
        store = CompiledStore(max_entries=4)
        first = store.get_or_compile(ORIGINAL)
        second = store.get_or_compile(ORIGINAL)
        assert first is second
        assert store.hits == 1 and store.misses == 1

    def test_lru_eviction_drops_oldest(self):
        store = CompiledStore(max_entries=2)
        store.get_or_compile(ORIGINAL)
        store.get_or_compile(TRANSFORMED_EQ)
        store.get_or_compile(ORIGINAL)  # refresh ORIGINAL
        third = "\n#define N 4\nf(int A[], int B[])\n{\n    int k;\n    for (k = 0; k < N; k++)\ns1:     B[k] = A[k];\n}\n"
        store.get_or_compile(third)  # evicts TRANSFORMED_EQ (least recent)
        assert store.evictions == 1
        hits_before = store.hits
        store.get_or_compile(ORIGINAL)
        assert store.hits == hits_before + 1  # survived the eviction

    def test_key_is_raw_text(self):
        assert CompiledStore.key(ORIGINAL) != CompiledStore.key(ORIGINAL + " ")


# --------------------------------------------------------------------------- #
# WarmVerifierPool
# --------------------------------------------------------------------------- #
class TestWarmVerifierPool:
    def test_warm_verdict_matches_direct_check(self):
        pool = WarmVerifierPool(workers=1)
        try:
            outcome = pool.run_job(make_job())
            direct = Verifier().check(ORIGINAL, TRANSFORMED_EQ)
            assert outcome.status == JobStatus.OK
            assert outcome.equivalent is True
            assert outcome.equivalent == direct.equivalent
            assert pool.stats.checks_executed == 1
        finally:
            pool.close()

    def test_second_run_hits_verdict_cache(self):
        pool = WarmVerifierPool(workers=1, cache=ResultCache())
        try:
            cold = pool.run_job(make_job())
            warm = pool.run_job(make_job(name="same-check-different-name"))
            assert not cold.cache_hit and warm.cache_hit
            assert warm.equivalent == cold.equivalent
            assert warm.fingerprint == cold.fingerprint
            assert pool.stats.cache_hits == 1
            assert pool.stats.checks_executed == 1
        finally:
            pool.close()

    def test_reset_drops_warm_state(self):
        pool = WarmVerifierPool(workers=1, cache=ResultCache())
        try:
            first = pool.run_job(make_job())
            pool.reset()
            assert len(pool.compiled) == 0
            again = pool.run_job(make_job())
            assert not again.cache_hit  # verdict cache was dropped too
            assert again.equivalent == first.equivalent
            assert pool.stats.checks_executed == 2
            assert pool.stats.resets == 1
        finally:
            pool.close()

    def test_compiled_store_shared_across_jobs(self):
        pool = WarmVerifierPool(workers=1)
        try:
            pool.run_job(make_job(name="a"))
            pool.run_job(make_job(name="b"))
            # Two jobs, two sources each, but each text parsed exactly once.
            assert pool.compiled.misses == 2
            assert pool.compiled.hits == 2
        finally:
            pool.close()

    def test_error_job_is_structured(self):
        pool = WarmVerifierPool(workers=1)
        try:
            job = VerificationJob(
                name="broken", original_source="not a program", transformed_source=ORIGINAL
            )
            outcome = pool.run_job(job)
            assert outcome.status == JobStatus.ERROR
            assert outcome.error
            assert pool.stats.errors == 1
        finally:
            pool.close()

    def test_effective_timeout_precedence(self):
        pool = WarmVerifierPool(workers=1, default_timeout=30.0)
        try:
            assert pool.prepare_job(make_job(timeout=5.0), 10.0).options.timeout == 5.0
            assert pool.prepare_job(make_job(), 10.0).options.timeout == 10.0
            assert pool.prepare_job(make_job(), None).options.timeout == 30.0
            # --max-timeout caps whichever budget wins, the job's own included.
            assert pool.prepare_job(make_job(timeout=3600.0), None, cap=1.0).options.timeout == 1.0
            assert pool.prepare_job(make_job(), 3600.0, cap=1.0).options.timeout == 1.0
            assert pool.prepare_job(make_job(), None, cap=60.0).options.timeout == 30.0
        finally:
            pool.close()

    def test_snapshot_carries_warm_state_blocks(self):
        pool = WarmVerifierPool(workers=2, cache=ResultCache())
        try:
            pool.run_job(make_job())
            snapshot = pool.snapshot()
            assert snapshot["checks_executed"] == 1
            assert snapshot["workers"] == 2
            assert snapshot["compiled_store"]["entries"] == 2
            assert snapshot["verdict_cache"] is not None
            assert 0.0 <= snapshot["cache_hit_rate"] <= 1.0
        finally:
            pool.close()


# --------------------------------------------------------------------------- #
# JobDispatcher: dedup by (fingerprint, effective timeout)
# --------------------------------------------------------------------------- #
def run_pair_through_dispatcher(job_a, request_a, job_b, request_b, outcome_for=None):
    """Drive two concurrent requests through a dispatcher over a fake pool.

    ``run_job`` is replaced with a gated fake so both requests are provably
    concurrent: the gate opens only after both have reached the dispatcher.
    Returns ``(executions, results)`` where *executions* records each
    ``(job name, request timeout)`` pair that actually ran.
    """
    pool = WarmVerifierPool(workers=2)
    executions = []
    gate = threading.Event()

    def fake_run_job(job, timeout=None, ship=False, request_id=None, fingerprint=None):
        executions.append((job.name, timeout))
        assert gate.wait(10), "gate never opened"
        if outcome_for is not None:
            return outcome_for(job, timeout)
        return JobResult(
            name=job.name,
            status=JobStatus.OK,
            equivalent=True,
            fingerprint=job_fingerprint(job),
        )

    pool.run_job = fake_run_job
    dispatcher = JobDispatcher(pool)

    async def scenario():
        task_a = asyncio.create_task(dispatcher.run(job_a, request_a))
        await asyncio.sleep(0)  # leader registers before the first await
        task_b = asyncio.create_task(dispatcher.run(job_b, request_b))
        await asyncio.sleep(0)  # duplicate attaches (or becomes its own leader)
        gate.set()
        return await asyncio.gather(task_a, task_b)

    try:
        results = asyncio.run(scenario())
    finally:
        gate.set()
        pool.close()
    return executions, results


class TestDispatcherDedup:
    def test_identical_requests_coalesce_onto_one_leader(self):
        executions, (lead, follow) = run_pair_through_dispatcher(
            make_job(name="leader"), 5.0, make_job(name="follower", expected=True), 5.0
        )
        assert len(executions) == 1
        assert executions[0][0] == "leader"
        assert follow.name == "follower"
        assert follow.equivalent == lead.equivalent
        assert follow.metadata.get("deduplicated") is True
        assert follow.expected_equivalent is True
        assert not follow.cache_hit  # dedup reuse must not inflate the hit rate
        assert "deduplicated" not in lead.metadata

    def test_different_budgets_never_coalesce(self):
        executions, _ = run_pair_through_dispatcher(
            make_job(name="a"), 5.0, make_job(name="b"), 6.0
        )
        assert len(executions) == 2

    def test_job_level_timeout_enters_the_key(self):
        executions, _ = run_pair_through_dispatcher(
            make_job(name="a", timeout=1.0), None, make_job(name="b", timeout=2.0), None
        )
        assert len(executions) == 2

    def test_leader_timeout_not_fanned_to_other_budget(self):
        """A leader that times out under a short budget must not poison the
        concurrent duplicate running under a longer one."""

        def outcome_for(job, timeout):
            if timeout is not None and timeout <= 0.5:
                return JobResult(name=job.name, status=JobStatus.TIMEOUT, error="timed out")
            return JobResult(name=job.name, status=JobStatus.OK, equivalent=True)

        executions, (short, long) = run_pair_through_dispatcher(
            make_job(name="short"),
            0.5,
            make_job(name="long"),
            30.0,
            outcome_for=outcome_for,
        )
        assert len(executions) == 2
        assert short.status == JobStatus.TIMEOUT
        assert long.status == JobStatus.OK and long.equivalent is True

    def test_follower_inherits_leader_failure_within_same_budget(self):
        def outcome_for(job, timeout):
            return JobResult(name=job.name, status=JobStatus.ERROR, error="boom")

        executions, (lead, follow) = run_pair_through_dispatcher(
            make_job(name="a"), 5.0, make_job(name="b"), 5.0, outcome_for=outcome_for
        )
        assert len(executions) == 1
        assert lead.status == JobStatus.ERROR
        assert follow.status == JobStatus.ERROR
        assert follow.error == "boom"

    def test_inflight_table_empties_after_completion(self):
        pool = WarmVerifierPool(workers=1)
        pool.run_job = lambda job, timeout=None, *a, **k: JobResult(name=job.name, status=JobStatus.OK)
        dispatcher = JobDispatcher(pool)
        try:
            asyncio.run(dispatcher.run(make_job()))
            assert dispatcher.inflight == 0
        finally:
            pool.close()


BUDGETS = st.sampled_from([None, 0.25, 1.0, 5.0])


class TestDedupKeyProperty:
    """Property (satellite of the dedup rule): for identical jobs, requests
    coalesce exactly when their *effective* budgets agree — whatever mix of
    job-level, request-level and server-default timeouts produced them."""

    @settings(max_examples=25, deadline=None)
    @given(job_a=BUDGETS, job_b=BUDGETS, request_a=BUDGETS, request_b=BUDGETS)
    def test_coalesce_iff_effective_budgets_agree(self, job_a, job_b, request_a, request_b):
        a = make_job(name="a", timeout=job_a)
        b = make_job(name="b", timeout=job_b)
        executions, results = run_pair_through_dispatcher(a, request_a, b, request_b)
        should_coalesce = job_budget(a, request_a) == job_budget(b, request_b)
        assert len(executions) == (1 if should_coalesce else 2)
        assert all(outcome.status == JobStatus.OK for outcome in results)

    @settings(max_examples=25, deadline=None)
    @given(job_timeout=BUDGETS, request_timeout=BUDGETS, default=BUDGETS)
    def test_effective_timeout_precedence_property(self, job_timeout, request_timeout, default):
        pool = WarmVerifierPool(workers=1, default_timeout=default)
        try:
            prepared = pool.prepare_job(make_job(timeout=job_timeout), request_timeout)
            effective = prepared.options.timeout
        finally:
            pool.close()
        if job_timeout is not None:
            assert effective == job_timeout
        elif request_timeout is not None:
            assert effective == request_timeout
        else:
            assert effective == default
