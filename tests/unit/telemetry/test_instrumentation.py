"""Integration-level unit tests: the instrumented stack under active tracing.

Covers the tentpole wiring end to end at unit-test scale: frontend and
engine spans during a ``Verifier.check``, ``CheckStats.phase_seconds`` as
the ``on_stats`` observer sees it, and the cross-process merge of spans and
Presburger work counts from ``BatchExecutor`` pool workers.
"""

import os
import threading
import time

from repro import telemetry
from repro.presburger import opcache
from repro.verifier import CallbackObserver, Verifier
from repro.service import BatchExecutor, VerificationJob

ORIGINAL = """
#define N 8
f(int A[], int B[])
{
    int k;
    for (k = 0; k < N; k++)
s1:     B[k] = A[k] + A[k+1];
}
"""

TRANSFORMED = """
#define N 8
f(int A[], int B[])
{
    int k;
    for (k = 0; k < N; k++)
s1:     B[k] = A[k+1] + A[k];
}
"""


class TestVerifierTelemetry:
    def test_check_emits_nested_frontend_and_engine_spans(self):
        telemetry.enable()
        result = Verifier().check(ORIGINAL, TRANSFORMED)
        assert result.equivalent
        names = {record.name for record in telemetry.spans()}
        assert "verifier.check" in names
        assert "frontend.parse_program" in names
        assert "frontend.lex" in names
        assert "frontend.defuse" in names
        assert "frontend.extract" in names
        assert "engine.traverse" in names
        assert "engine.output" in names
        by_name = {record.name: record for record in telemetry.spans()}
        check_id = by_name["verifier.check"].span_id
        assert by_name["engine.traverse"].parent_id == check_id

    def test_phase_seconds_filled_under_tracing(self):
        telemetry.enable()
        result = Verifier().check(ORIGINAL, TRANSFORMED)
        assert set(result.stats.phase_seconds) >= {"frontend", "engine"}
        assert all(value >= 0 for value in result.stats.phase_seconds.values())

    def test_phase_seconds_empty_when_disabled(self):
        result = Verifier().check(ORIGINAL, TRANSFORMED)
        assert result.stats.phase_seconds == {}

    def test_on_stats_sees_phase_seconds_under_tracing(self):
        telemetry.enable()
        seen = []
        observer = CallbackObserver(on_stats=lambda stats: seen.append(dict(stats.phase_seconds)))
        Verifier().check(ORIGINAL, TRANSFORMED, observer=observer)
        (phase_seconds,) = seen
        assert "engine" in phase_seconds

    def test_on_stats_sees_no_phase_seconds_when_disabled(self):
        seen = []
        observer = CallbackObserver(on_stats=lambda stats: seen.append(dict(stats.phase_seconds)))
        Verifier().check(ORIGINAL, TRANSFORMED, observer=observer)
        assert seen == [{}]

    def test_check_of_prepaid_compiled_programs_traces_only_the_traversal(self):
        compiler = Verifier()
        original = compiler.compile(ORIGINAL)
        transformed = compiler.compile(TRANSFORMED)
        for compiled in (original, transformed):
            assert compiled.addg is not None
            assert compiled.dataflow_issues == ()
        telemetry.enable()
        telemetry.reset()  # keep only the check's spans
        result = Verifier().check(original, transformed)
        assert result.equivalent
        by_name = {record.name: record for record in telemetry.spans()}
        assert by_name["engine.traverse"].parent_id == by_name["verifier.check"].span_id
        assert not any(name.startswith("frontend.") for name in by_name)
        assert "engine" in result.stats.phase_seconds
        assert "frontend" not in result.stats.phase_seconds

    def test_phase_seconds_bill_no_other_thread(self):
        # A second thread holds a >= 0.3 s engine span open across the start
        # of the check; the check's output hook lets it finish and joins it.
        # That span lands in the process buffer, not in the check's phases.
        telemetry.enable()
        release = threading.Event()

        def foreign_work():
            with telemetry.TRACER.span("foreign.work", "engine"):
                release.wait(10)

        def finish_foreign_work(report):
            release.set()
            thread.join(10)

        thread = threading.Thread(target=foreign_work)
        thread.start()
        time.sleep(0.3)
        observer = CallbackObserver(on_output_checked=finish_foreign_work)
        result = Verifier().check(ORIGINAL, TRANSFORMED, observer=observer)
        assert result.equivalent
        assert not thread.is_alive()
        assert result.stats.phase_seconds["engine"] < 0.3
        (foreign,) = [r for r in telemetry.spans() if r.name == "foreign.work"]
        assert foreign.duration_seconds >= 0.3


def _jobs(count):
    return [
        VerificationJob(
            name=f"pair-{index}",
            original_source=ORIGINAL,
            transformed_source=TRANSFORMED.replace("#define N 8", f"#define N {8 + index}"),
            expected_equivalent=True,
        )
        for index in range(count)
    ]


class TestCrossProcessMerge:
    def test_pool_workers_ship_spans_home(self):
        telemetry.enable()
        with opcache.collect() as counts:
            results = BatchExecutor(cache=None, workers=2).run(_jobs(3))
        assert all(outcome.status == "ok" for outcome in results)
        spans = telemetry.spans()
        job_spans = [record for record in spans if record.name == "service.job"]
        assert len(job_spans) == 3
        worker_pids = {record.pid for record in job_spans}
        assert os.getpid() not in worker_pids  # the jobs ran in workers
        # The shipped telemetry must be consumed, not serialised onward.
        assert all(outcome.telemetry is None for outcome in results)
        # The workers' Presburger work counts merged into the parent's.
        assert counts.fm_eliminations > 0

    def test_worker_spans_keep_their_own_track(self):
        telemetry.enable()
        BatchExecutor(cache=None, workers=2).run(_jobs(2))
        payload = telemetry.chrome_trace(telemetry.spans())
        pids = {event["pid"] for event in payload["traceEvents"]}
        assert len(pids) >= 2  # at least one worker track beside the parent

    def test_serial_executor_records_in_process(self):
        telemetry.enable()
        results = BatchExecutor(cache=None, workers=1).run(_jobs(2))
        assert all(outcome.status == "ok" for outcome in results)
        job_spans = [r for r in telemetry.spans() if r.name == "service.job"]
        assert len(job_spans) == 2
        assert {record.pid for record in job_spans} == {os.getpid()}

    def test_execute_job_ships_its_opcache_delta(self):
        from repro.service.executor import execute_job

        opcache.reset()
        outcome = execute_job(_jobs(1)[0], ship=True)
        assert outcome.status == "ok"
        shipped = outcome.telemetry["opcache"]
        assert shipped["fm_eliminations"] > 0
        assert shipped["feasibility_checks"] > 0
        assert shipped["per_op"]
        merged = opcache.OpCacheStats()
        merged.merge(shipped)
        assert merged.as_dict() == shipped

    def test_untraced_batch_ships_no_telemetry(self):
        with opcache.collect() as counts:
            results = BatchExecutor(cache=None, workers=2).run(_jobs(2))
        assert all(outcome.status == "ok" for outcome in results)
        assert telemetry.spans() == []
        # Untraced workers still ship their Presburger work counts home.
        assert counts.fm_eliminations > 0
