"""Regression tests: per-job timeouts must fire on any thread.

The verification server runs its checks on worker threads, so a budget
that only a POSIX main thread can enforce would be silently ignored there.
:func:`repro.service.call_with_timeout` uses one signal-free watchdog
(``PyThreadState_SetAsyncExc``) on every thread; these tests drive it from
non-main threads and from the main thread.

The watchdog delivers between Python bytecodes, so the stand-in workloads
are pure-Python busy loops — a blocking C call like ``time.sleep`` is not
interruptible on this path and is exactly what the real checker never does.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import (
    BatchExecutor,
    CheckOptions,
    JobStatus,
    JobTimeoutError,
    VerificationJob,
    call_with_timeout,
    execute_job,
)

ORIGINAL = """
#define N 8
f(int A[], int B[])
{
    int k;
    for (k = 0; k < N; k++)
s1:     B[k] = A[k] + A[k+1];
}
"""


def busy_loop(seconds: float = 30.0):
    """Pure-Python CPU spin: interruptible at every bytecode boundary."""
    deadline = time.monotonic() + seconds
    total = 0
    while time.monotonic() < deadline:
        total += 1
    return total


def in_thread(fn):
    """Run *fn* on a fresh non-main thread; re-raise whatever it raised."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=30)


def make_job(timeout=None):
    return VerificationJob(
        name="t",
        original_source=ORIGINAL,
        transformed_source=ORIGINAL,
        options=CheckOptions(timeout=timeout),
    )


class TestCallWithTimeout:
    def test_no_budget_is_a_plain_call(self):
        assert call_with_timeout(lambda: 42, None) == 42
        assert call_with_timeout(lambda: 42, 0) == 42

    @pytest.mark.parametrize(
        "timeout", [-1, float("nan"), float("inf"), 1e12], ids=["negative", "nan", "inf", "1e12"]
    )
    def test_budget_outside_the_rule_is_refused(self, timeout):
        # Beyond threading.TIMEOUT_MAX the timer thread dies with an
        # OverflowError and fn() would silently run with no budget.
        calls = []
        with pytest.raises(ValueError):
            call_with_timeout(lambda: calls.append(1), timeout)
        assert calls == []

    def test_largest_timer_budget_is_a_budget(self):
        assert call_with_timeout(lambda: 42, threading.TIMEOUT_MAX) == 42

    def test_fires_from_non_main_thread(self):
        def scenario():
            assert threading.current_thread() is not threading.main_thread()
            started = time.monotonic()
            with pytest.raises(JobTimeoutError):
                call_with_timeout(busy_loop, 0.2)
            return time.monotonic() - started

        elapsed = in_thread(scenario)
        assert elapsed < 10  # fired from the watchdog, not the 30 s loop

    def test_fast_function_returns_value_off_main_thread(self):
        assert in_thread(lambda: call_with_timeout(lambda: "done", 5.0)) == "done"

    def test_no_pending_exception_leaks_after_completion(self):
        """A budget that expires just as (or after) the call completes must
        not leave an async exception pending in the worker thread.

        On a loaded host a 1 ms budget can legitimately run out inside the
        call itself, so a timeout raised *by* the call is an allowed outcome.
        A timeout raised after a call has returned — in the code that
        follows it, or in the final call with a generous budget — is a leak
        and fails the test.
        """

        def scenario():
            for _ in range(20):
                try:
                    value = call_with_timeout(lambda: "v", 0.001)
                except JobTimeoutError:
                    continue  # the budget expired inside the call
                assert value == "v"
            time.sleep(0.05)  # let any stale timer fire
            return call_with_timeout(lambda: "still alive", 5.0)

        assert in_thread(scenario) == "still alive"

    def test_budgets_are_independent_across_threads(self):
        """Two threads with different budgets: the short one times out, the
        long one completes — no cross-talk between the two budgets."""
        outcomes = {}
        barrier = threading.Barrier(2)

        def short():
            barrier.wait(5)
            try:
                call_with_timeout(busy_loop, 0.2)
                outcomes["short"] = "completed"
            except JobTimeoutError:
                outcomes["short"] = "timeout"

        def long():
            barrier.wait(5)
            outcomes["long"] = call_with_timeout(lambda: busy_loop(0.05), 10.0)

        threads = [threading.Thread(target=short), threading.Thread(target=long)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert outcomes["short"] == "timeout"
        assert isinstance(outcomes["long"], int)

    def test_main_thread_path_still_enforces(self):
        with pytest.raises(JobTimeoutError):
            call_with_timeout(busy_loop, 0.2)


class TestExecuteJobOffMainThread:
    def test_timeout_status_from_worker_thread(self, monkeypatch):
        monkeypatch.setattr(VerificationJob, "run", lambda self: busy_loop())
        outcome = in_thread(lambda: execute_job(make_job(), timeout=0.2))
        assert outcome.status == JobStatus.TIMEOUT
        assert "budget" in (outcome.error or "")

    def test_run_override_is_subject_to_the_budget(self):
        outcome = in_thread(
            lambda: execute_job(make_job(), timeout=0.2, run=lambda: busy_loop())
        )
        assert outcome.status == JobStatus.TIMEOUT

    def test_job_level_timeout_wins_off_main_thread(self, monkeypatch):
        monkeypatch.setattr(VerificationJob, "run", lambda self: busy_loop())
        outcome = in_thread(lambda: execute_job(make_job(timeout=0.2), timeout=60.0))
        assert outcome.status == JobStatus.TIMEOUT


class TestBatchExecutorOffMainThread:
    def test_serial_batch_enforces_timeout_in_worker_thread(self, monkeypatch):
        """The serial executor path (workers=1) used to silently skip budget
        enforcement when hosted anywhere but the POSIX main thread."""
        monkeypatch.setattr(VerificationJob, "run", lambda self: busy_loop())
        executor = BatchExecutor(workers=1, timeout=0.2)
        results = in_thread(lambda: executor.run([make_job()]))
        assert [outcome.status for outcome in results] == [JobStatus.TIMEOUT]
