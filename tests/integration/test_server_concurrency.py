"""Integration tests: the verification server under concurrent clients.

Satellite of the server PR: N clients fire overlapping (and duplicate)
requests at one in-process daemon; verdicts must be identical to direct
in-process checks, duplicate in-flight jobs must coalesce onto exactly one
leader (dedup accounting), and a warm-state reset must leave no cross-
request leakage — the re-executed verdicts are byte-identical.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.server import ServerClient, ServerConfig, ServerThread
from repro.service import JobStatus, VerificationJob
from repro.verifier import Verifier

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

TRANSFORMED_BAD = """
#define N 8
f(int A[], int B[])
{
    int k;
    for (k = 0; k < N; k++)
t1:     B[k] = A[k] + A[k+2];
}
"""

ORIGINAL_SUM = """
#define N 12
f(int A[], int S[])
{
    int k;
    for (k = 0; k < N; k++)
s1:     S[k] = A[k] + A[k] + 1;
}
"""

TRANSFORMED_SUM = """
#define N 12
f(int A[], int S[])
{
    int k;
    for (k = N-1; k >= 0; k--)
t1:     S[k] = 1 + A[k] + A[k];
}
"""

PAIRS = {
    "eq": (ORIGINAL, TRANSFORMED_EQ, True),
    "bad": (ORIGINAL, TRANSFORMED_BAD, False),
    "sum": (ORIGINAL_SUM, TRANSFORMED_SUM, True),
}


def make_job(pair: str, name=None, expected=None):
    original, transformed, _ = PAIRS[pair]
    return VerificationJob(
        name=name or pair,
        original_source=original,
        transformed_source=transformed,
        expected_equivalent=expected,
    )


@pytest.fixture(scope="module")
def direct_verdicts():
    session = Verifier()
    return {
        name: session.check(original, transformed).equivalent
        for name, (original, transformed, _) in PAIRS.items()
    }


@pytest.fixture()
def server():
    with ServerThread(ServerConfig(port=0, workers=1)) as handle:
        yield handle


class TestConcurrentClients:
    N_CLIENTS = 6

    def test_duplicate_jobs_coalesce_onto_one_leader(self, server, direct_verdicts):
        """All clients fire the same fresh job at once: exactly one check
        executes; every duplicate is served by dedup or the verdict cache."""
        barrier = threading.Barrier(self.N_CLIENTS)

        def one_client(index: int):
            with ServerClient(server.address) as client:
                barrier.wait(timeout=30)
                return client.check_job(make_job("eq", name=f"client-{index}"), timeout=60.0)

        with ThreadPoolExecutor(max_workers=self.N_CLIENTS) as pool:
            results = [
                future.result(timeout=120)
                for future in [pool.submit(one_client, i) for i in range(self.N_CLIENTS)]
            ]

        assert all(outcome.status == JobStatus.OK for outcome in results)
        assert {outcome.equivalent for outcome in results} == {direct_verdicts["eq"]}
        assert len({outcome.fingerprint for outcome in results}) == 1

        stats = server.server.pool.snapshot()
        # Exactly one leader ran the check; every other request was served
        # warm — by attaching to the in-flight leader or by the verdict cache.
        assert stats["checks_executed"] == 1
        assert stats["dedup_hits"] + stats["cache_hits"] == self.N_CLIENTS - 1
        assert stats["requests"] == self.N_CLIENTS

    def test_mixed_batches_match_direct_verdicts(self, server, direct_verdicts):
        """Several clients pipeline overlapping mixed batches; every verdict
        must equal the direct in-process one, in the client's input order."""
        jobs = [make_job(pair, name=f"{pair}-{copy}") for pair in PAIRS for copy in range(2)]

        def one_client(_index: int):
            with ServerClient(server.address) as client:
                return client.run_jobs(jobs, timeout=60.0)

        with ThreadPoolExecutor(max_workers=3) as pool:
            all_results = [
                future.result(timeout=120)
                for future in [pool.submit(one_client, i) for i in range(3)]
            ]

        for results in all_results:
            assert [outcome.name for outcome in results] == [job.name for job in jobs]
            for outcome in results:
                pair = outcome.name.split("-")[0]
                assert outcome.status == JobStatus.OK
                assert outcome.equivalent == direct_verdicts[pair]

        stats = server.server.pool.snapshot()
        # 3 clients x 6 jobs, but only 3 distinct checks exist.
        assert stats["checks_executed"] == len(PAIRS)
        assert stats["dedup_hits"] + stats["cache_hits"] == 3 * len(jobs) - len(PAIRS)

    def test_verdict_identity_with_single_shot_cli(self, server, tmp_path, capsys):
        """`check --server` and plain `check` print the same verdict."""
        from repro.cli import main

        original = tmp_path / "orig.c"
        transformed = tmp_path / "trans.c"
        original.write_text(ORIGINAL)
        transformed.write_text(TRANSFORMED_EQ)

        local_code = main(["check", str(original), str(transformed), "--quiet"])
        local_out = capsys.readouterr().out
        remote_code = main(
            ["check", str(original), str(transformed), "--quiet", "--server", server.address]
        )
        remote_out = capsys.readouterr().out
        assert remote_code == local_code == 0
        assert remote_out == local_out == "Equivalent\n"

    def test_persist_dir_is_ignored_with_a_warning(self, server, tmp_path, capsys):
        """With --server the daemon's own opcache store applies: a client's
        --persist-dir is neither attached nor dropped without a word."""
        from repro.cli import main
        from repro.presburger import opcache

        original = tmp_path / "orig.c"
        transformed = tmp_path / "trans.c"
        original.write_text(ORIGINAL)
        transformed.write_text(TRANSFORMED_EQ)
        persist = tmp_path / "persist"
        before = opcache.persistent_store()
        flags = ["--persist-dir", str(persist), "--server", server.address]

        assert main(["check", str(original), str(transformed), "--quiet"] + flags) == 0
        err = capsys.readouterr().err
        assert "warning: --persist-dir ignored with --server" in err
        assert main(["batch", "--kernel", "fir", "--report", "-", "--quiet"] + flags) == 0
        err = capsys.readouterr().err
        assert "warning: --persist-dir ignored with --server" in err
        assert opcache.persistent_store() is before
        assert not persist.exists()

    def test_reset_leaves_no_cross_request_state(self, server, direct_verdicts):
        """After a warm run and a reset, re-running must actually re-execute
        (nothing warm survives) and reproduce the identical verdict."""
        with ServerClient(server.address) as client:
            first = client.check_job(make_job("bad"), timeout=60.0)
            warm = client.check_job(make_job("bad"), timeout=60.0)
            assert warm.cache_hit and warm.equivalent == first.equivalent

            client.reset()
            stats = client.stats()
            assert stats["resets"] == 1
            assert stats["compiled_store"]["entries"] == 0

            again = client.check_job(make_job("bad"), timeout=60.0)
            assert not again.cache_hit  # really re-executed
            assert again.status == first.status == JobStatus.OK
            assert again.equivalent == first.equivalent == direct_verdicts["bad"]
            assert again.fingerprint == first.fingerprint
            assert client.stats()["checks_executed"] == 2

    def test_expectations_travel_per_request(self, server):
        """Two duplicate requests with different expectations: the verdict is
        shared but each response carries its own expectation comparison."""
        with ServerClient(server.address) as client:
            hit = client.check_job(make_job("bad", name="a", expected=False), timeout=60.0)
            miss = client.check_job(make_job("bad", name="b", expected=True), timeout=60.0)
        assert hit.equivalent is False and miss.equivalent is False
        assert hit.matches_expectation is True
        assert miss.matches_expectation is False
