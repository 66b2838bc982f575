"""Integration tests: per-unit Presburger counters under concurrency.

Each unit of work (a ``Verifier.check``, a service job, a CLI run) reads its
operation-cache counters from its own collector
(:func:`repro.presburger.opcache.collect`), so the numbers it reports do not
depend on what other threads do meanwhile, and the process totals add up
exactly whether or not the writers ran inside collectors.  The batch parity
test pins the other half: serial, pooled and served batches agree on every
report row once timing and opcache fields are dropped (opcache counts depend
on what a cache already holds, so they differ by design).
"""

import json
import sys
import threading

import pytest

from repro.cli import main
from repro.presburger import opcache
from repro.server import ServerConfig, ServerThread, WarmVerifierPool
from repro.service import CorpusSpec, JobStatus, build_corpus, execute_job
from repro.verifier import Verifier
from repro.workloads import kernel_pair

RECORDS_PER_THREAD = 200_000


@pytest.fixture(autouse=True)
def fresh_cache():
    opcache.reset()
    yield
    opcache.reset()


@pytest.fixture
def fast_switching():
    """Preempt threads as often as the interpreter allows, to expose races."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


def _lookups(pair) -> int:
    stats = Verifier().check(pair.original, pair.transformed).stats
    return stats.opcache_hits + stats.opcache_misses


class TestPerCheckCounters:
    def test_a_check_counts_only_its_own_lookups_beside_a_busy_thread(self):
        fir, matvec = kernel_pair("fir"), kernel_pair("matvec")
        for pair in (fir, matvec):
            _lookups(pair)  # warm: every later check is served the same way
        solo = _lookups(fir)
        assert _lookups(fir) == solo

        stop = threading.Event()
        background_checks = []

        def loop_matvec():
            while not stop.is_set():
                background_checks.append(_lookups(matvec))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        thread = threading.Thread(target=loop_matvec)
        thread.start()
        try:
            while not background_checks:
                stop.wait(0.001)  # the other thread is mid-loop from here on
            concurrent = [_lookups(fir) for _ in range(5)]
            checks_beside = len(background_checks)
        finally:
            stop.set()
            thread.join()
            sys.setswitchinterval(previous)
        assert checks_beside > 1  # matvec really ran while fir was checked
        assert concurrent == [solo] * 5
        assert set(background_checks) == {background_checks[0]}

    def test_the_totals_hold_every_check_of_every_thread(self):
        fir, matvec = kernel_pair("fir"), kernel_pair("matvec")
        per_thread = {}

        def check(name, pair):
            per_thread[name] = Verifier().check(pair.original, pair.transformed).stats

        threads = [
            threading.Thread(target=check, args=(name, pair))
            for name, pair in (("fir", fir), ("matvec", matvec))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        totals = opcache.stats()
        assert totals.hits == sum(stats.opcache_hits for stats in per_thread.values())
        assert totals.misses == sum(stats.opcache_misses for stats in per_thread.values())
        assert totals.intern_hits == sum(stats.intern_hits for stats in per_thread.values())


class TestExactTotals:
    @pytest.mark.parametrize("collected", [True, False], ids=["in-collectors", "no-collector"])
    def test_two_threads_recording_hits_sum_exactly(self, fast_switching, collected):
        collected_counts = []

        def record_hits():
            for _ in range(RECORDS_PER_THREAD):
                opcache.record("compose", hit=True)

        def worker():
            if collected:
                with opcache.collect() as counts:
                    record_hits()
                collected_counts.append(counts.hits)
            else:
                record_hits()

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        totals = opcache.stats()
        assert totals.hits == 2 * RECORDS_PER_THREAD
        assert totals.per_op == {"compose": (2 * RECORDS_PER_THREAD, 0)}
        if collected:
            assert collected_counts == [RECORDS_PER_THREAD] * 2


def _fir_job():
    (job,) = build_corpus(CorpusSpec(kernels=("fir",)))
    return job


class TestJobCollector:
    def test_a_shipped_job_carries_its_checks_counts_and_its_compiles(self):
        """The server's job collector covers the check, whose own collector covers its compiles."""
        job = _fir_job()
        pool = WarmVerifierPool(workers=1)
        try:
            outcome = pool.run_job(job, ship=True)
        finally:
            pool.close()
        assert outcome.status == JobStatus.OK
        check = outcome.result.stats
        shipped = outcome.telemetry["opcache"]
        # The compiles run inside Verifier.check, so the check reports them too.
        assert (shipped["hits"], shipped["misses"], shipped["intern_hits"]) == (
            check.opcache_hits,
            check.opcache_misses,
            check.intern_hits,
        )
        # Shipping is a copy: the counts also reached this process's totals.
        assert opcache.stats().as_dict() == shipped

    def test_a_served_check_reports_what_a_local_check_of_the_pair_does(self):
        job = _fir_job()
        pool = WarmVerifierPool(workers=1)
        try:
            served = pool.run_job(job).result.stats
        finally:
            pool.close()
        opcache.reset()
        local = Verifier().check(job.original_source, job.transformed_source).stats
        assert (served.opcache_hits, served.opcache_misses, served.intern_hits) == (
            local.opcache_hits,
            local.opcache_misses,
            local.intern_hits,
        )
        assert served.frontend_seconds > 0 and local.frontend_seconds > 0

    def test_a_job_around_a_check_ships_exactly_the_checks_counts(self):
        job = _fir_job()
        frontend = Verifier()
        original = frontend.compile(job.original_source)
        transformed = frontend.compile(job.transformed_source)
        outcome = execute_job(job, ship=True, run=lambda: Verifier().check(original, transformed))
        check = outcome.result.stats
        shipped = outcome.telemetry["opcache"]
        assert (shipped["hits"], shipped["misses"], shipped["intern_hits"]) == (
            check.opcache_hits,
            check.opcache_misses,
            check.intern_hits,
        )


#: Report fields that depend on wall time or on what a cache already held.
_TIMING = {"elapsed_seconds", "frontend_seconds", "engine_seconds", "phase_seconds"}
_OPCACHE = {"opcache_hits", "opcache_misses", "intern_hits"}


def _rows(path):
    rows = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            if row.pop("type") != "result":
                continue
            row.pop("elapsed_seconds")
            if row["result"] is not None:
                stats = row["result"]["stats"]
                for name in _TIMING | _OPCACHE:
                    stats.pop(name)
            rows[row["name"]] = row
    return rows


class TestBatchParity:
    def test_serial_pooled_and_served_batches_report_the_same_rows(self, tmp_path, capsys):
        batch = ["batch", "--kernel", "all", "--no-cache", "--quiet"]
        serial, pooled, served = (tmp_path / f"{name}.jsonl" for name in ("serial", "pooled", "served"))
        assert main(batch + ["--report", str(serial)]) == 0
        assert main(batch + ["--workers", "2", "--report", str(pooled)]) == 0
        with ServerThread(ServerConfig(port=0, workers=2)) as server:
            assert main(batch + ["--server", server.address, "--report", str(served)]) == 0
        capsys.readouterr()
        rows = _rows(serial)
        assert len(rows) == 7
        assert _rows(pooled) == rows
        assert _rows(served) == rows
