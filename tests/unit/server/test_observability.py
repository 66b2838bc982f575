"""The server's observability surface, end to end against an in-process daemon.

Covers the tentpole contracts: the structured JSONL request log (accepted and
completed events share the job fingerprint, the completed event carries the
verdict and dedup/cache attribution), the deep ``stats`` snapshot and its
Prometheus rendering (validated by the same ``tools/prom_lint.py`` gate CI
uses), slow-request capture with a zero threshold, and cross-process trace
propagation (``check`` with ``trace: true`` ships back server-side spans
whose root is tagged with the request id).
"""

import importlib.util
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import telemetry
from repro.server import daemon
from repro.server import ServerClient, ServerConfig, ServerThread
from repro.server.pool import ServerStats
from repro.service import JobStatus, VerificationJob
from repro.service.report import SERVER_SNAPSHOT_VERSION, format_server_snapshot

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))

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
    for (k = N-1; k >= 0; k--)
t1:     B[k] = A[k+1] + A[k];
}
"""


def _load_lint():
    spec = importlib.util.spec_from_file_location(
        "prom_lint", os.path.join(REPO_ROOT, "tools", "prom_lint.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_job(name="pair"):
    return VerificationJob(
        name=name, original_source=ORIGINAL, transformed_source=TRANSFORMED
    )


@pytest.fixture
def observed_server(tmp_path, monkeypatch):
    monkeypatch.setattr(daemon, "SLOW_CAPACITY", 4)
    log_path = str(tmp_path / "requests.jsonl")
    config = ServerConfig(
        port=0,
        log_path=log_path,
        log_level="debug",
        slow_threshold=0.0,
    )
    with ServerThread(config) as handle:
        yield handle, log_path


def read_log(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestRequestLog:
    def test_check_lifecycle_events_share_the_fingerprint(self, observed_server):
        handle, log_path = observed_server
        with ServerClient(handle.address) as client:
            outcome = client.check_job(make_job())
        assert outcome.status == JobStatus.OK
        events = read_log(log_path)
        kinds = [event["event"] for event in events]
        assert "connect" in kinds
        accepted = next(e for e in events if e["event"] == "request_accepted")
        completed = next(e for e in events if e["event"] == "request_completed")
        assert accepted["fingerprint"] == completed["fingerprint"] == outcome.fingerprint
        assert accepted["request"] == completed["request"]
        assert completed["verdict"] is True
        assert completed["status"] == "ok"
        assert completed["dedup"] == "leader"
        assert completed["cache"] == "none"
        assert completed["wall_seconds"] > 0

    def test_cache_hit_attribution(self, observed_server):
        handle, log_path = observed_server
        with ServerClient(handle.address) as client:
            client.check_job(make_job())
            client.check_job(make_job(name="same-but-renamed"))
        events = read_log(log_path)
        completed = [e for e in events if e["event"] == "request_completed"]
        assert [e["cache"] for e in completed] == ["none", "verdict"]

    def test_disconnect_logged_at_debug(self, observed_server):
        import time

        handle, log_path = observed_server
        with ServerClient(handle.address) as client:
            client.ping()
        # the disconnect is logged by the server's reader task after the
        # client socket closes — poll briefly for it
        deadline = time.time() + 5.0
        while time.time() < deadline:
            events = read_log(log_path)
            if any(event["event"] == "disconnect" for event in events):
                break
            time.sleep(0.05)
        kinds = {event["event"] for event in events}
        assert "disconnect" in kinds
        # non-check requests appear at debug level
        ping_rows = [e for e in events if e.get("method") == "ping"]
        assert ping_rows and all(e["level"] == "debug" for e in ping_rows)


class TestPingAndStats:
    def test_ping_identifies_the_process(self, observed_server):
        handle, _ = observed_server
        with ServerClient(handle.address) as client:
            pong = client.ping()
        assert pong["pid"] == os.getpid()
        assert pong["protocol_version"] == 1
        assert pong["uptime_seconds"] >= 0
        assert pong["draining"] is False

    def test_deep_snapshot_fields(self, observed_server):
        handle, _ = observed_server
        with ServerClient(handle.address) as client:
            client.check_job(make_job())
            snapshot = client.stats()
        assert snapshot["schema_version"] == SERVER_SNAPSHOT_VERSION
        assert snapshot["pid"] == os.getpid()
        assert snapshot["protocol_version"] == 1
        assert snapshot["uptime_seconds"] > 0
        assert snapshot["checks_executed"] == 1
        assert snapshot["latency"]["request_seconds"]["count"] >= 1
        assert snapshot["latency"]["check_seconds"]["count"] == 1
        assert snapshot["opcache"]["misses"] >= 0
        assert snapshot["persist"]["attached"] is False
        assert snapshot["request_log"]["events_written"] > 0
        assert snapshot["slow"]["threshold_seconds"] == 0.0
        # the human rendering accepts the same snapshot
        text = format_server_snapshot(snapshot)
        assert "requests" in text and "latency" in text

    def test_slow_ring_captures_everything_at_zero_threshold(self, observed_server):
        handle, _ = observed_server
        with ServerClient(handle.address) as client:
            client.check_job(make_job())
            snapshot = client.stats(slow=True)
        slow = snapshot["slow"]
        assert slow["captured"] == 1
        (record,) = slow["records"]
        assert record["fingerprint"]
        assert record["wall_seconds"] >= 0
        assert record["status"] == "ok"
        assert "phase_seconds" in record
        assert "opcache" in record

    def test_slow_ring_is_bounded(self, observed_server):
        handle, _ = observed_server
        with ServerClient(handle.address) as client:
            for index in range(6):  # capacity is 4
                client.check_job(make_job(name=f"job-{index}"))
            snapshot = client.stats(slow=True)
        slow = snapshot["slow"]
        assert slow["captured"] == 6
        assert len(slow["records"]) == 4

    def test_prometheus_rendering_passes_the_lint_gate(self, observed_server):
        handle, _ = observed_server
        lint = _load_lint()
        with ServerClient(handle.address) as client:
            client.check_job(make_job())
            envelope = client.stats(format="prometheus")
        assert envelope["format"] == "prometheus"
        assert "0.0.4" in envelope["content_type"]
        problems = lint.validate(envelope["text"])
        assert not problems, "\n".join(problems)
        # acceptance criterion: non-zero request-latency buckets
        buckets = [
            line
            for line in envelope["text"].splitlines()
            if line.startswith("repro_server_latency_request_seconds_bucket")
        ]
        assert buckets
        assert any(int(line.rsplit(" ", 1)[1]) > 0 for line in buckets)

    def test_prometheus_renders_presburger_work_counters(self):
        # The omega core's work counts live in the always-on opcache block,
        # so any daemon exposes them, telemetry flags or not.
        lint = _load_lint()
        with ServerThread(ServerConfig(port=0)) as handle:
            with ServerClient(handle.address) as client:
                client.check_job(make_job())
                text = client.stats(format="prometheus")["text"]
        assert lint.validate(text) == []
        for name in ("fm_eliminations", "dark_shadow_splinters", "feasibility_checks"):
            assert f"# TYPE repro_server_opcache_{name} counter" in text

    def test_unknown_stats_format_rejected(self, observed_server):
        handle, _ = observed_server
        from repro.server import ServerError

        with ServerClient(handle.address) as client:
            with pytest.raises(ServerError) as excinfo:
                client.stats(format="xml")
        assert excinfo.value.code == "invalid_request"


class TestTracePropagation:
    def test_traced_check_ships_request_tagged_spans(self, observed_server):
        handle, _ = observed_server
        with ServerClient(handle.address) as client:
            outcome = client.check_job(make_job(), trace=True)
        assert outcome.status == JobStatus.OK
        trace = outcome.telemetry
        assert trace is not None
        assert trace["pid"] == os.getpid()
        spans = trace["spans"]
        names = {span["name"] for span in spans}
        assert "server.request" in names
        assert "service.job" in names
        assert "verifier.check" in names
        root = next(span for span in spans if span["name"] == "server.request")
        assert root["args"]["request"] == 1
        # the worker-side spans carry the same request tag end to end
        check_span = next(span for span in spans if span["name"] == "verifier.check")
        assert check_span["args"]["request"] == 1

    def test_untraced_check_ships_no_spans(self, observed_server):
        handle, _ = observed_server
        with ServerClient(handle.address) as client:
            outcome = client.check_job(make_job())
        assert getattr(outcome, "telemetry", None) is None

    def test_tracer_is_quiesced_after_the_traced_request(self, observed_server):
        handle, _ = observed_server
        with ServerClient(handle.address) as client:
            client.check_job(make_job(), trace=True)
            client.check_job(make_job(name="untraced"), trace=False)
        assert telemetry.TRACER.enabled is False
        assert telemetry.spans() == []

    def test_spans_ingest_into_a_client_tracer(self, observed_server):
        handle, _ = observed_server
        with ServerClient(handle.address) as client:
            outcome = client.check_job(make_job(), trace=True)
        telemetry.reset()
        ingested = telemetry.ingest_spans(outcome.telemetry["spans"])
        assert ingested == len(outcome.telemetry["spans"]) > 0
        telemetry.reset()

    def test_run_jobs_trace_covers_each_job(self, observed_server):
        handle, _ = observed_server
        jobs = [make_job(name=f"batch-{index}") for index in range(3)]
        with ServerClient(handle.address) as client:
            results = client.run_jobs(jobs, trace=True)
        assert len(results) == 3
        for outcome in results:
            trace = outcome.telemetry
            assert trace and trace["spans"]
            root = [s for s in trace["spans"] if s["name"] == "server.request"]
            assert len(root) == 1

    def test_concurrent_traced_requests_ship_only_their_own_spans(self):
        # Two connections whose ids run in step (round r is request r + 1 on
        # both): only per-request collection, not the id, keeps them apart.
        rounds = 3
        barrier = threading.Barrier(2, timeout=30)

        def one_client(index):
            outcomes = []
            with ServerClient(handle.address) as client:
                for round_ in range(rounds):
                    size = 8 + 2 * (round_ * 2 + index)  # a fresh job per request
                    job = VerificationJob(
                        name=f"client{index}-round{round_}",
                        original_source=ORIGINAL.replace("#define N 8", f"#define N {size}"),
                        transformed_source=TRANSFORMED.replace("#define N 8", f"#define N {size}"),
                    )
                    barrier.wait()
                    outcomes.append((job.name, client.check_job(job, trace=True)))
            return outcomes

        with ServerThread(ServerConfig(port=0, workers=2)) as handle:
            with ThreadPoolExecutor(max_workers=2) as clients:
                per_client = list(clients.map(one_client, range(2)))
        for round_ in range(rounds):
            shipped = []
            for outcomes in per_client:
                name, outcome = outcomes[round_]
                assert outcome.status == JobStatus.OK
                spans = outcome.telemetry["spans"]
                (root,) = [span for span in spans if span["name"] == "server.request"]
                (check,) = [span for span in spans if span["name"] == "verifier.check"]
                (job_span,) = [span for span in spans if span["name"] == "service.job"]
                assert root["parent"] is None
                assert root["args"]["request"] == check["args"]["request"] == round_ + 1
                assert job_span["args"]["job"] == name
                ids = {(span["pid"], span["id"]) for span in spans}
                # every span hangs off a span of this same response
                assert all(
                    span["parent"] is None or (span["pid"], span["parent"]) in ids
                    for span in spans
                )
                shipped.append(ids)
            assert not shipped[0] & shipped[1]


class TestFingerprintOffTheLoop:
    """The check fingerprint parses both programs; it must not block the loop."""

    def test_a_slow_fingerprint_does_not_stall_other_connections(self, monkeypatch):
        fingerprint = daemon.job_fingerprint
        sleeping = threading.Event()
        slept_from = []

        def slow_fingerprint(job):
            slept_from.append(time.perf_counter())
            sleeping.set()
            time.sleep(0.3)
            return fingerprint(job)

        monkeypatch.setattr(daemon, "job_fingerprint", slow_fingerprint)

        def check():
            with ServerClient(handle.address) as client:
                return client.check_job(make_job())

        with ServerThread(ServerConfig(port=0)) as handle:
            with ThreadPoolExecutor(max_workers=1) as pending:
                outcome = pending.submit(check)
                assert sleeping.wait(timeout=30)
                with ServerClient(handle.address) as client:
                    client.stats()
                answered = time.perf_counter()
                assert outcome.result(timeout=30).status == JobStatus.OK
        # Measured from the moment the fingerprint started sleeping: a loop
        # blocked by it could not answer before the sleep ended.
        assert answered - slept_from[0] < 0.3

    def test_traced_request_still_collects_the_fingerprint_parse(self):
        with ServerThread(ServerConfig(port=0)) as handle:
            with ServerClient(handle.address) as client:
                outcome = client.check_job(make_job(), trace=True)
        spans = outcome.telemetry["spans"]
        (root,) = [span for span in spans if span["name"] == "server.request"]
        fingerprint_parses = [
            span
            for span in spans
            if span["name"] == "frontend.parse_program" and span["parent"] == root["id"]
        ]
        assert len(fingerprint_parses) == 2  # the original and the transformed program
        assert all(span["tid"] != root["tid"] for span in fingerprint_parses)


class TestServerStatsThreadSafety:
    def test_concurrent_inc_is_exact(self):
        stats = ServerStats()
        threads = 8
        per_thread = 2500
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                stats.inc("checks_executed")

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert stats.checks_executed == threads * per_thread
        assert stats.as_dict()["checks_executed"] == threads * per_thread
