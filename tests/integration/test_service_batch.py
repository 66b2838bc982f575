"""Integration tests: a small corpus through the batch executor and the CLI.

The batch verdicts must agree with direct per-job ``check_equivalence``
calls, both on the serial path and on the 2-worker process pool, and a warm
(second) run must be served from the cache.
"""

import pytest

from repro.checker import check_equivalence
from repro.cli import main
from repro.presburger import opcache
from repro.service import (
    BatchExecutor,
    CorpusSpec,
    JobStatus,
    ResultCache,
    VerificationJob,
    aggregate_results,
    build_corpus,
    read_report,
)


@pytest.fixture(scope="module")
def corpus():
    # Small sizes keep each check fast while covering both expected verdicts.
    return build_corpus(CorpusSpec(generated=4, buggy=2, size=16, transform_steps=2, seed=1))


@pytest.fixture(scope="module")
def direct_verdicts(corpus):
    return {
        job.name: check_equivalence(
            job.original_source, job.transformed_source, method=job.options.method
        ).equivalent
        for job in corpus
    }


class TestBatchExecutor:
    def test_serial_matches_direct_checks(self, corpus, direct_verdicts):
        results = BatchExecutor(workers=1).run(corpus)
        assert [r.name for r in results] == [job.name for job in corpus]
        assert all(r.status == JobStatus.OK for r in results)
        for outcome in results:
            assert outcome.equivalent == direct_verdicts[outcome.name]
            assert outcome.matches_expectation is True

    def test_two_workers_match_direct_checks(self, corpus, direct_verdicts):
        results = BatchExecutor(workers=2).run(corpus)
        assert [r.name for r in results] == [job.name for job in corpus]
        for outcome in results:
            assert outcome.status == JobStatus.OK
            assert outcome.equivalent == direct_verdicts[outcome.name]

    def test_pool_workers_share_the_parents_persistent_store(self, tmp_path, corpus):
        """Workers write to the store the parent attached; a second run with
        cold memory tiers is served from disk, with identical verdicts."""
        from repro.presburger import opcache
        from repro.presburger.persist import PersistentStore

        path = str(tmp_path / "persist")

        def pool_run():
            # Workers fork from this process: drop its memory tier first so
            # every hit below comes from the disk tier.
            opcache.reset()
            results = BatchExecutor(workers=2).run(corpus)
            misses = sum(r.result.stats.opcache_misses for r in results)
            return [(r.name, r.status, r.equivalent) for r in results], misses

        opcache.attach_persistent(path)
        try:
            cold, cold_misses = pool_run()
            written = PersistentStore(path)
            entries = written.entry_count()
            written.close()
            warm, warm_misses = pool_run()
        finally:
            opcache.detach_persistent()
            opcache.reset()
        assert entries > 0
        assert warm == cold
        assert all(status == JobStatus.OK for _, status, _ in cold)
        # Memory tiers start cold in both runs: the warm run's hits are disk hits.
        assert warm_misses * 10 < cold_misses

    def test_warm_run_hits_cache(self, tmp_path, corpus, direct_verdicts):
        cache = ResultCache(str(tmp_path / "cache"))
        executor = BatchExecutor(cache=cache, workers=1)
        cold = executor.run(corpus)
        assert not any(r.cache_hit for r in cold)
        warm = executor.run(corpus)
        assert all(r.cache_hit for r in warm)
        for outcome in warm:
            assert outcome.equivalent == direct_verdicts[outcome.name]
        summary = aggregate_results(warm, cache.stats)
        assert summary["cache_hit_rate"] == 1.0

    def test_cold_cache_survives_new_executor(self, tmp_path, corpus):
        directory = str(tmp_path / "cache")
        BatchExecutor(cache=ResultCache(directory)).run(corpus)
        fresh = BatchExecutor(cache=ResultCache(directory)).run(corpus)
        assert all(r.cache_hit for r in fresh)

    def test_cache_write_failure_does_not_abort_the_batch(self, tmp_path, corpus):
        cache = ResultCache(str(tmp_path / "cache"))

        def failing_put(fingerprint, result):
            raise OSError("disk full")

        cache.put = failing_put
        results = BatchExecutor(cache=cache).run(corpus)
        assert all(r.status == JobStatus.OK for r in results)
        assert cache.stats.store_errors == len(corpus)

    def test_duplicate_jobs_in_one_batch_run_once(self, tmp_path, corpus):
        cache = ResultCache(str(tmp_path / "cache"))
        duplicated = list(corpus) + list(corpus)
        results = BatchExecutor(cache=cache).run(duplicated)
        assert len(results) == len(duplicated)
        # one execution per unique pair; duplicates fan out from the leader
        assert cache.stats.stores == len(corpus)
        followers = [r for r in results if r.metadata.get("deduplicated")]
        assert len(followers) == len(corpus)
        assert not any(r.cache_hit for r in results)  # dedup is not a cache hit
        first, second = results[: len(corpus)], results[len(corpus):]
        assert [r.equivalent for r in first] == [r.equivalent for r in second]

    def test_duplicate_pairs_with_different_timeouts_do_not_dedup(self, corpus):
        # The fingerprint excludes the timeout (a budget cannot change a
        # computed verdict), but in-batch dedup must still keep
        # differently-budgeted duplicates apart: a leader's TIMEOUT outcome
        # is budget-dependent and must not fan out to a job with a larger
        # budget.
        job = corpus[0]
        tight = VerificationJob(
            name="tight",
            original_source=job.original_source,
            transformed_source=job.transformed_source,
            options=job.options.replace(timeout=0.001),
        )
        loose = VerificationJob(
            name="loose",
            original_source=job.original_source,
            transformed_source=job.transformed_source,
            options=job.options,
        )
        # Uncached, the check reliably outlasts the 1 ms budget; against a
        # warm opcache it can finish before the watchdog thread gets to run.
        with opcache.disabled():
            results = BatchExecutor(workers=1).run([tight, loose])
        by_name = {r.name: r for r in results}
        assert by_name["tight"].status == JobStatus.TIMEOUT
        assert by_name["loose"].status == JobStatus.OK
        assert not by_name["loose"].metadata.get("deduplicated")

    def test_progress_callback_sees_every_job(self, corpus):
        seen = []
        BatchExecutor(workers=1).run(corpus, progress=lambda r: seen.append(r.name))
        assert sorted(seen) == sorted(job.name for job in corpus)


class TestBatchCli:
    def test_batch_writes_report_and_exits_zero(self, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        status = main([
            "batch",
            "--generated", "3", "--buggy", "1",
            "--size", "16", "--transform-steps", "2",
            "--report", str(report),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "jobs        : 4" in out
        results, summary = read_report(str(report))
        assert len(results) == 4
        assert summary["by_status"]["ok"] == 4
        assert summary["expectation_mismatches"] == []

    def test_batch_warm_run_reports_cache_hits(self, tmp_path, capsys):
        args = [
            "batch", "--generated", "2", "--size", "16", "--transform-steps", "2",
            "--report", "-", "--cache-dir", str(tmp_path / "cache"), "--quiet",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "100.0% hit rate" in capsys.readouterr().out

    def test_batch_with_job_file(self, tmp_path, capsys):
        import json

        jobs = [job.to_dict() for job in build_corpus(
            CorpusSpec(generated=1, size=16, transform_steps=2, seed=9)
        )]
        job_file = tmp_path / "jobs.json"
        job_file.write_text(json.dumps(jobs))
        status = main([
            "batch", "--jobs", str(job_file), "--no-cache", "--report", "-", "--quiet",
        ])
        assert status == 0
        assert "jobs        : 1" in capsys.readouterr().out

    def test_batch_without_jobs_is_an_error(self, capsys):
        assert main(["batch", "--report", "-"]) == 2
        assert "no jobs selected" in capsys.readouterr().err
