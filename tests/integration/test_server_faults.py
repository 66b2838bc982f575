"""Integration tests: fault injection against the verification server.

Satellite of the server PR: misbehaving clients — malformed or oversized
frames, disconnects mid-request, jobs blowing their budget — must each get
a structured error (or a structured ``timeout`` verdict) while the daemon
stays up and keeps serving everyone else; ``SIGTERM`` must drain in-flight
work and exit cleanly.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.server import ServerClient, ServerConfig, ServerError, ServerThread, daemon, protocol
from repro.service import CheckOptions, JobStatus, VerificationJob
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

# Jobs whose original source carries this marker are made slow *inside* the
# budgeted window by the slow_compiles fixture — racing a real check against
# a millisecond budget is flaky once the process-wide opcache is warm.
SLOW_MARKER = "/* deliberately-slow */"


def busy_loop(seconds: float = 30.0) -> int:
    """Pure-Python CPU spin, interruptible at every bytecode boundary."""
    deadline = time.monotonic() + seconds
    total = 0
    while time.monotonic() < deadline:
        total += 1
    return total


def make_job(name="j", original=ORIGINAL, transformed=TRANSFORMED_EQ):
    return VerificationJob(name=name, original_source=original, transformed_source=transformed)


@pytest.fixture()
def server():
    with ServerThread(ServerConfig(port=0, workers=1)) as handle:
        yield handle


def raw_connection(address: str) -> socket.socket:
    host, port = address.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=30)
    return sock


def read_frame(sock: socket.socket) -> dict:
    reader = sock.makefile("rb")
    line = reader.readline()
    assert line.endswith(b"\n"), f"truncated or missing response: {line!r}"
    return json.loads(line)


class TestMalformedFrames:
    def test_malformed_json_gets_parse_error_and_connection_survives(self, server):
        with raw_connection(server.address) as sock:
            sock.sendall(b"{this is not json]\n")
            response = read_frame(sock)
            assert response["ok"] is False
            assert response["id"] is None
            assert response["error"]["code"] == protocol.ERROR_PARSE
            # Same connection still serves valid requests.
            sock.sendall(protocol.encode_frame(protocol.request_frame("ping", id=2)))
            assert read_frame(sock)["result"]["pong"] is True

    def test_non_object_frame_is_invalid_request(self, server):
        with raw_connection(server.address) as sock:
            sock.sendall(b"[1, 2, 3]\n")
            response = read_frame(sock)
            assert response["error"]["code"] == protocol.ERROR_INVALID_REQUEST

    def test_missing_method_is_invalid_request_with_id_echoed(self, server):
        with raw_connection(server.address) as sock:
            sock.sendall(b'{"id": 41}\n')
            response = read_frame(sock)
            assert response["id"] == 41
            assert response["error"]["code"] == protocol.ERROR_INVALID_REQUEST

    def test_unknown_method(self, server):
        with raw_connection(server.address) as sock:
            sock.sendall(protocol.encode_frame(protocol.request_frame("frobnicate", id=1)))
            response = read_frame(sock)
            assert response["error"]["code"] == protocol.ERROR_UNKNOWN_METHOD

    def test_malformed_job_payload(self, server):
        with raw_connection(server.address) as sock:
            sock.sendall(
                protocol.encode_frame(
                    protocol.request_frame("check", {"job": {"name": "incomplete"}}, id=5)
                )
            )
            response = read_frame(sock)
            assert response["id"] == 5
            assert response["error"]["code"] == protocol.ERROR_INVALID_REQUEST
            assert "malformed job" in response["error"]["message"]

    @pytest.mark.parametrize(
        "entry", [{"options": "basic"}, {"timeout": "soon"}], ids=["options-str", "timeout-str"]
    )
    def test_wrong_typed_job_entry_is_rejected_not_an_error(self, server, entry):
        payload = {**make_job().to_dict(), **entry}
        if "timeout" in entry:
            payload.pop("options", None)  # a legacy flat-key job
        with raw_connection(server.address) as sock:
            sock.sendall(
                protocol.encode_frame(protocol.request_frame("check", {"job": payload}, id=7))
            )
            response = read_frame(sock)
            assert response["error"]["code"] == protocol.ERROR_INVALID_REQUEST
            assert "malformed job" in response["error"]["message"]
        with ServerClient(server.address) as client:
            stats = client.stats()
        assert stats["rejected"] == 1
        assert stats["errors"] == 0

    def test_removed_z3_backend_is_invalid_request(self, server):
        payload = make_job().to_dict()
        payload["options"] = {**payload["options"], "backend": "z3"}
        with raw_connection(server.address) as sock:
            sock.sendall(
                protocol.encode_frame(protocol.request_frame("check", {"job": payload}, id=9))
            )
            response = read_frame(sock)
            assert response["id"] == 9
            assert response["error"]["code"] == protocol.ERROR_INVALID_REQUEST
            assert "unknown backend 'z3'" in response["error"]["message"]
            sock.sendall(protocol.encode_frame(protocol.request_frame("ping", id=10)))
            assert read_frame(sock)["result"]["pong"] is True

    @pytest.mark.parametrize(
        "timeout", ["soon", -1, float("inf"), 1e12], ids=["str", "negative", "inf", "1e12"]
    )
    def test_malformed_timeout(self, server, timeout):
        # ``Infinity`` is what Python's json writes (and reads) for inf.
        with raw_connection(server.address) as sock:
            frame = protocol.request_frame(
                "check", {"job": make_job().to_dict(), "timeout": timeout}, id=6
            )
            sock.sendall(protocol.encode_frame(frame))
            response = read_frame(sock)
            assert response["error"]["code"] == protocol.ERROR_INVALID_REQUEST


class TestOversizedFrames:
    @pytest.fixture()
    def small_frame_server(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
        with ServerThread(ServerConfig(port=0, workers=1)) as handle:
            yield handle

    def test_oversized_frame_errors_and_closes_this_connection(self, small_frame_server):
        with raw_connection(small_frame_server.address) as sock:
            sock.sendall(b"x" * 20000 + b"\n")
            response = read_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == protocol.ERROR_FRAME_TOO_LARGE
            # The stream is not self-synchronising past the limit: EOF next.
            assert sock.makefile("rb").readline() == b""
        # The listener survives; fresh connections work.
        with ServerClient(small_frame_server.address) as client:
            assert client.ping()["pong"] is True

    def test_oversized_job_rejected_structurally(self, small_frame_server):
        big_job = make_job(original="/* " + "x" * 20000 + " */" + ORIGINAL)
        with pytest.raises(ServerError) as excinfo:
            with ServerClient(small_frame_server.address) as client:
                client.check_job(big_job)
        assert excinfo.value.code in (protocol.ERROR_FRAME_TOO_LARGE, "disconnected")


class TestClientDisconnects:
    def test_disconnect_mid_frame_leaves_server_up(self, server):
        with raw_connection(server.address) as sock:
            sock.sendall(b'{"id": 1, "method": "chec')  # no newline, then vanish
        with ServerClient(server.address) as client:
            assert client.ping()["pong"] is True

    def test_disconnect_mid_request_leaves_server_up(self, server):
        """The client sends a full check request and hangs up before the
        response; the server must absorb the dropped write and keep going."""
        with raw_connection(server.address) as sock:
            frame = protocol.request_frame("check", {"job": make_job().to_dict()}, id=1)
            sock.sendall(protocol.encode_frame(frame))
        # No sleep needed for correctness: the next client's requests are
        # served by the same loop that is (or was) running the orphaned job.
        with ServerClient(server.address) as client:
            outcome = client.check_job(make_job(name="after-disconnect"), timeout=60.0)
            assert outcome.status == JobStatus.OK
            assert client.ping()["pong"] is True

    def test_many_abrupt_disconnects_do_not_wedge_the_queue(self, server):
        for _ in range(10):
            with raw_connection(server.address) as sock:
                frame = protocol.request_frame("check", {"job": make_job().to_dict()}, id=1)
                sock.sendall(protocol.encode_frame(frame))
        with ServerClient(server.address) as client:
            outcome = client.check_job(make_job(name="survivor"), timeout=60.0)
            assert outcome.status == JobStatus.OK


class TestBudgets:
    @pytest.fixture()
    def slow_compiles(self, monkeypatch):
        """Make marked sources spin for 30 s inside the compile step, which
        runs within the budgeted window, so any small budget expires
        deterministically; unmarked sources compile for real."""
        real = Verifier.compile

        def slow(self, source):
            if isinstance(source, str) and SLOW_MARKER in source:
                busy_loop()
            return real(self, source)

        monkeypatch.setattr(Verifier, "compile", slow)

    def test_job_exceeding_budget_times_out_structurally(self, server, slow_compiles):
        with ServerClient(server.address) as client:
            outcome = client.check_job(
                make_job("slow", original=SLOW_MARKER + ORIGINAL), timeout=0.05
            )
            assert outcome.status == JobStatus.TIMEOUT
            assert "budget" in (outcome.error or "")
            # The worker thread survives the interrupt: the next job is fine.
            follow_up = client.check_job(make_job(name="after-timeout"), timeout=60.0)
            assert follow_up.status == JobStatus.OK
            assert client.stats()["timeouts"] == 1

    def test_max_timeout_clamps_request_budgets(self, slow_compiles):
        config = ServerConfig(port=0, workers=1, max_timeout=0.05)
        with ServerThread(config) as handle:
            with ServerClient(handle.address) as client:
                outcome = client.check_job(
                    make_job("slow", original=SLOW_MARKER + ORIGINAL), timeout=3600.0
                )
                assert outcome.status == JobStatus.TIMEOUT

    def test_max_timeout_caps_a_jobs_own_budget(self, slow_compiles):
        config = ServerConfig(port=0, workers=1, max_timeout=0.05)
        job = VerificationJob(
            name="slow",
            original_source=SLOW_MARKER + ORIGINAL,
            transformed_source=TRANSFORMED_EQ,
            options=CheckOptions(timeout=3600.0),
        )
        with ServerThread(config) as handle:
            with ServerClient(handle.address) as client:
                outcome = client.check_job(job)
                assert outcome.status == JobStatus.TIMEOUT

    def test_request_cannot_repoint_the_persistent_opcache(self, server, tmp_path):
        from repro.presburger import opcache

        before = opcache.persistent_store()
        target = tmp_path / "hijack"
        payload = {**make_job().to_dict(), "options": {"persist_dir": str(target)}}
        try:
            with ServerClient(server.address) as client:
                outcome = client.request("check", {"job": payload})
                persist = client.stats()["persist"]
            assert outcome["status"] == JobStatus.OK
            assert opcache.persistent_store() is before
            assert persist["path"] != str(target)
            assert not (target / "opcache.sqlite").exists()
        finally:
            if opcache.persistent_store() is not before:
                opcache.detach_persistent()

    def test_per_client_inflight_budget_rejects_excess(self, monkeypatch):
        monkeypatch.setattr(daemon, "MAX_INFLIGHT_PER_CLIENT", 0)
        with ServerThread(ServerConfig(port=0, workers=1)) as handle:
            with pytest.raises(ServerError) as excinfo:
                with ServerClient(handle.address) as client:
                    client.check_job(make_job())
            assert excinfo.value.code == protocol.ERROR_RATE_LIMITED
            # Rejection is per-request, not per-connection: pings still work.
            with ServerClient(handle.address) as client:
                assert client.ping()["pong"] is True


class TestGracefulShutdown:
    @staticmethod
    def spawn_daemon(tmp_path):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=str(tmp_path),
            text=True,
        )
        banner = process.stdout.readline()
        assert banner.startswith("listening on "), f"unexpected banner: {banner!r}"
        return process, banner.split("listening on ", 1)[1].strip()

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        process, address = self.spawn_daemon(tmp_path)
        try:
            with ServerClient(address) as client:
                outcome = client.check_job(make_job(), timeout=60.0)
                assert outcome.status == JobStatus.OK
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

    def test_sigterm_with_request_in_flight_still_answers(self, tmp_path):
        """On an accepted connection, a request racing SIGTERM gets *some*
        frame back — the drained verdict or a structured shutting_down error,
        never silence.  (A connection still in the kernel accept backlog at
        SIGTERM is outside the drain guarantee, like any TCP server's; the
        ping round-trip below pins this connection as accepted first.)"""
        process, address = self.spawn_daemon(tmp_path)
        try:
            sock = raw_connection(address)
            sock.sendall(protocol.encode_frame(protocol.request_frame("ping", id=1)))
            assert read_frame(sock)["result"]["pong"] is True
            frame = protocol.request_frame(
                "check", {"job": make_job().to_dict(), "timeout": 60.0}, id=9
            )
            sock.sendall(protocol.encode_frame(frame))
            process.send_signal(signal.SIGTERM)
            response = read_frame(sock)
            assert response["id"] == 9  # not the ping: ids correlate
            if response["ok"]:
                assert response["result"]["status"] in (JobStatus.OK, JobStatus.TIMEOUT)
            else:
                assert response["error"]["code"] == protocol.ERROR_SHUTTING_DOWN
            sock.close()
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

    def test_shutdown_rpc_drains_like_sigterm(self, tmp_path):
        process, address = self.spawn_daemon(tmp_path)
        try:
            with ServerClient(address) as client:
                assert client.shutdown()["shutting_down"] is True
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
