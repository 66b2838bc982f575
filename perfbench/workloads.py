"""The four workloads: set-up, one timed round, one counted pass.

Every workload is a closed loop.  A *round* is the workload's fixed, seeded
list of checks; the timed run repeats it a fixed number of times, so each
input is timed once per round, spread across the run.  A *pass* is the
shorter fixed list the traced run measures twice, once plain and once under
the layer wrappers of :mod:`layers`, and whose verdicts and work counters
must repeat exactly.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import select
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from inputs import Pair, SetupError, chain_pairs, fig1_pairs, kernel_pairs, scenario_pairs
from layers import SpanRecorder

#: Fresh program start-ups per run whose median is ``setup_s``.
SETUP_REPEATS = 7

#: Work counters of ``CheckStats`` that must repeat exactly for one seed.
CHECK_COUNTERS = (
    "compare_calls",
    "matching_operations",
    "leaf_comparisons",
    "flatten_operations",
    "table_hits",
    "opcache_hits",
    "opcache_misses",
    "intern_hits",
)


@dataclass
class Sample:
    """One check of the timed loop."""

    key: int  # the input (or request position) it times; repeats share a key
    seconds: float
    ok: bool


@dataclass
class PassResult:
    """One counted pass: wall time, verdicts and deterministic counters."""

    wall: float
    verdicts: List[Optional[bool]]
    counts: Counter = field(default_factory=Counter)
    failed: int = 0
    extra: Dict[str, float] = field(default_factory=dict)


class Reference:
    """A fixed pure-Python loop, timed between checks to track machine speed.

    On a shared machine other tenants slow every process down for seconds
    at a time.  The loop's best time since :meth:`restart` measures how fast
    the machine was over that stretch; :meth:`factor` rescales durations
    measured in the same stretch to a nominal machine on which the loop's
    best is :attr:`NOMINAL_SECONDS`.
    """

    #: The loop's best time on the 2-core x86 container the bounds were set on.
    NOMINAL_SECONDS = 0.006

    def __init__(self) -> None:
        self.restart()

    def restart(self) -> None:
        self.best = math.inf
        self.samples = 0

    @staticmethod
    def work() -> int:
        table: Dict[Tuple[int, int], int] = {}
        total = 0
        for number in range(20_000):
            key = (number % 97, number % 13)
            table[key] = table.get(key, 0) + number
            total += len(str(number)) * (number & 7)
        return total + len(table)

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            started = time.perf_counter()
            self.work()
            self.best = min(self.best, time.perf_counter() - started)
            self.samples += 1


    def factor(self) -> float:
        """Multiply a duration measured since :meth:`restart` by this."""
        self.sample(3)
        return self.NOMINAL_SECONDS / self.best


class Context:
    """Paths, the child environment and the run's machine-speed reference."""

    def __init__(self, out: str, env: Dict[str, str]):
        self.out = out
        self.env = env
        self.python = sys.executable
        self.reference = Reference()


def run_child(ctx: Context, argv: List[str], cwd=None, timeout: float = 120.0) -> Tuple[float, int, int]:
    """Run one child to completion: ``(wall seconds, exit code, peak RSS in KiB)``."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=ctx.env,
        cwd=cwd or ctx.out,
    )
    return _reap(proc, timeout, started)


def _reap(proc: subprocess.Popen, timeout: float, started: float) -> Tuple[float, int, int]:
    """Wait for *proc* (killing it after *timeout*) and read its resource usage."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss


class Workload:
    """What ``run.py`` needs from a workload."""

    name = ""
    round_size = 0
    nominal_round_seconds = 1.0  # on a 2-core x86 container; sets the round count
    tail_over_inputs = False  # True: the tail's sample count is the inputs, not all checks
    setup_code = "from repro.verifier import Verifier; Verifier()"

    def __init__(self, ctx: Context, seed: int):
        self.ctx = ctx
        self.seed = seed
        self.rss_kib = 0
        self.setups: List[float] = []  # start-ups measured during the rounds

    def rounds(self, seconds: float) -> int:
        """Rounds per timed run: fixed by ``--seconds``, never by machine speed."""
        return max(2, round(seconds / self.nominal_round_seconds))

    def setup_samples(self) -> List[float]:
        """Fresh interpreters, each timed until the program can take input."""
        samples = []
        for _ in range(SETUP_REPEATS):
            self.ctx.reference.sample()
            samples.append(run_child(self.ctx, [self.ctx.python, "-c", self.setup_code])[0])
        return samples

    def cleanup(self) -> None:
        pass


# --------------------------------------------------------------------------- #
# In-process workloads: kernels-cold, chain-match
# --------------------------------------------------------------------------- #
def cold_check(pair: Pair, collect: bool = True):
    """Check *pair* in a fresh ``Verifier`` after ``opcache.reset()``.

    Returns ``(seconds of the Verifier.check call, result or None, verifier)``.
    """
    from repro.presburger import opcache
    from repro.verifier import Verifier

    if collect:
        gc.collect()
    opcache.reset()
    verifier = Verifier()
    started = time.perf_counter()
    try:
        result = verifier.check(pair.original, pair.transformed)
    except Exception as error:  # a crash is a failed check, not a benchmark error
        print(f"check {pair.name} raised {type(error).__name__}: {error}", file=sys.stderr)
        result = None
    return time.perf_counter() - started, result, verifier


def inprocess_pass(pairs: List[Pair], recorder: Optional[SpanRecorder] = None) -> PassResult:
    """Check *pairs* cold, once each; the wall sums each check's window.

    A window runs from just before ``opcache.reset()`` to the verdict, so
    the garbage collection between checks is outside it.
    """
    outcome = PassResult(0.0, [])
    for pair in pairs:
        if recorder is not None:
            recorder.tag = pair.name
        started = time.perf_counter()
        _, result, verifier = cold_check(pair, collect=False)
        outcome.wall += time.perf_counter() - started
        _count_result(outcome, pair, result)
        outcome.counts["compile_hits"] += verifier.compile_hits
        outcome.counts["compile_misses"] += verifier.compile_misses
        gc.collect()
    return outcome


def _count_result(outcome: PassResult, pair: Pair, result) -> None:
    """Fold one check's verdict and ``CheckStats`` counters into *outcome*."""
    outcome.verdicts.append(None if result is None else result.equivalent)
    if result is None or result.equivalent != pair.equivalent:
        outcome.failed += 1
    if result is None:
        return
    stats = result.stats
    for name in CHECK_COUNTERS:
        outcome.counts[name] += getattr(stats, name)
    outcome.counts["addg_nodes"] += stats.original_addg_size + stats.transformed_addg_size
    outcome.extra["frontend_s"] = outcome.extra.get("frontend_s", 0.0) + stats.frontend_seconds


class InProcessWorkload(Workload):
    """Cold checks through ``Verifier.check`` in the benchmark process."""

    def prepare(self) -> None:
        self.order = random.Random(f"{self.seed}:{self.name}").sample(range(len(self.pairs)), len(self.pairs))
        cold_check(self.pairs[0])  # lazy imports inside the checker finish here

    def run_round(self) -> Tuple[List[Sample], float]:
        samples = []
        for index in self.order:
            pair = self.pairs[index]
            self.ctx.reference.sample()
            seconds, result, _ = cold_check(pair)
            ok = result is not None and result.equivalent == pair.equivalent
            samples.append(Sample(index, seconds, ok))
        return samples, sum(sample.seconds for sample in samples)

    def peak_rss_kib(self) -> int:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def counted_pass(self, recorder: Optional[SpanRecorder] = None) -> PassResult:
        return inprocess_pass(self.pass_pairs, recorder)


class KernelsCold(InProcessWorkload):
    """The 7 registry kernels at registry size, round-robin in a seeded order."""

    name = "kernels-cold"
    round_size = 7
    nominal_round_seconds = 0.8

    def prepare(self) -> None:
        self.pairs = kernel_pairs(self.seed)
        super().prepare()
        self.pass_pairs = [self.pairs[index] for index in self.order]


class ChainMatch(InProcessWorkload):
    """Seeded associative chains against a permutation or reassociation."""

    name = "chain-match"
    # Few chains, many rounds: an input's best time steadies with the number
    # of times it is timed in a run.
    round_size = 8
    nominal_round_seconds = 1.67

    def prepare(self) -> None:
        self.pairs = chain_pairs(self.seed, self.round_size)
        super().prepare()
        self.pass_pairs = self.pairs[::2] + self.pairs[1::4]  # both shapes, all lengths' range


# --------------------------------------------------------------------------- #
# server-mix
# --------------------------------------------------------------------------- #
class Daemon:
    """A ``repro-eqcheck serve --workers 2`` subprocess and one connection to it."""

    def __init__(self, ctx: Context, ready_timeout: float = 60.0):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [ctx.python, "-m", "repro.cli", "serve", "--port", "0", "--workers", "2"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=ctx.env,
            cwd=ctx.out,
        )
        self.sock: Optional[socket.socket] = None
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], ready_timeout)
            banner = self.proc.stdout.readline().decode() if ready else ""
            if not banner.startswith("listening on "):
                raise SetupError(f"daemon did not start (banner {banner!r})")
            host, _, port = banner.split()[-1].rpartition(":")
            self.sock = socket.create_connection((host, int(port)), timeout=ready_timeout)
            self.reader = self.sock.makefile("rb")
            self.request("ping")
        except BaseException:
            self.close()
            raise
        self.setup_seconds = time.perf_counter() - started

    def send(self, request_id: int, method: str, params: Optional[dict] = None) -> None:
        frame = {"id": request_id, "method": method}
        if params is not None:
            frame["params"] = params
        self.sock.sendall(json.dumps(frame).encode() + b"\n")

    def receive(self) -> dict:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def request(self, method: str, params: Optional[dict] = None):
        self.send(0, method, params)
        frame = self.receive()
        if not frame.get("ok"):
            raise ConnectionError(f"{method} failed: {frame.get('error')}")
        return frame["result"]

    def close(self) -> int:
        """Stop the daemon (SIGTERM drains it) and return its peak RSS in KiB."""
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = None
        self.proc.stdout.close()
        if self.proc.returncode is not None:
            return 0
        self.proc.send_signal(signal.SIGTERM)
        return _reap(self.proc, 30.0, time.perf_counter())[2]


class ServerMix(Workload):
    """A fixed scenario corpus sent to a fresh daemon, one request at a time.

    The corpus, the order of its jobs and the repeated jobs are the same
    for every seed; the seed draws where each repeat is sent.  A job's
    round trip depends on what earlier jobs left in the shared caches (one
    job took 25 ms after one order and 110 ms after another), so a seeded
    order would make seeds measure different work.
    """

    name = "server-mix"
    round_size = 80
    nominal_round_seconds = 2.6
    # The 80 requests are each timed by their best of 8 rounds; a p98 over
    # those copies would rest on two requests.
    tail_over_inputs = True
    distinct = 60
    corpus_seed = 11

    def prepare(self) -> None:
        from repro.service.job import VerificationJob

        # The client, the calibration loop and the daemon (which inherits
        # this) share one CPU: the loop then measures the CPU the daemon runs
        # on, and no request waits for another CPU to wake up.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        scenarios = 50
        pairs = scenario_pairs(self.corpus_seed, scenarios)
        while len(pairs) < self.distinct:
            scenarios += 20
            pairs = scenario_pairs(self.corpus_seed, scenarios)
        self.pairs = pairs[: self.distinct]
        programs = {text for pair in self.pairs for text in (pair.original, pair.transformed)}
        # More programs than a session compile cache holds, fewer than the compiled store.
        if not 64 < len(programs) < 512:
            raise SetupError(f"server-mix corpus has {len(programs)} distinct programs")
        self.jobs = [
            VerificationJob(
                name=pair.name,
                original_source=pair.original,
                transformed_source=pair.transformed,
                expected_equivalent=pair.equivalent,
            ).to_dict()
            for pair in self.pairs
        ]
        # Every third job is repeated once, at a seeded later position.
        rng = random.Random(f"{self.seed}:{self.name}")
        repeats_after: Dict[int, List[int]] = {job: [] for job in range(self.distinct)}
        for job in range(0, self.distinct, self.distinct // (self.round_size - self.distinct)):
            repeats_after[rng.randrange(job, self.distinct)].append(job)
        self.sequence: List[int] = []
        for job in range(self.distinct):
            self.sequence.append(job)
            rng.shuffle(repeats_after[job])
            self.sequence += repeats_after[job]

    def setup_samples(self) -> List[float]:
        samples = []
        for _ in range(3):
            self.ctx.reference.sample(5)
            daemon = Daemon(self.ctx)
            samples.append(daemon.setup_seconds)
            self.rss_kib = max(self.rss_kib, daemon.close())
        return samples

    def run_round(self, recorder: Optional[SpanRecorder] = None) -> Tuple[List[Sample], float]:
        """One round on a fresh daemon; the busy time excludes its start-up."""
        self.ctx.reference.sample(20)  # while no daemon runs
        daemon = Daemon(self.ctx)
        try:
            self.setups.append(daemon.setup_seconds)
            samples, results, busy = self._drive(daemon, recorder)
            self.last_round = {"stats": daemon.request("stats"), "results": results}
        finally:
            self.rss_kib = max(self.rss_kib, daemon.close())
        return samples, busy

    def _drive(self, daemon: Daemon, recorder: Optional[SpanRecorder]):
        """Send each request and wait for its answer (closed loop).

        Two requests in flight would share the daemon's interpreter lock,
        and each one's round trip would depend on how the two threads took
        turns.  Before a repeat the client runs the calibration loop for a
        few milliseconds: a worker thread goes on freeing a finished check's
        objects after its answer has gone out, and a cache hit served then
        waits up to a GIL switch interval (5 ms) for the interpreter lock.
        The pause lets the daemon fall idle, so the repeat measures the
        cache path.  The busy time is the round's wall time without the pauses.
        """
        samples: List[Sample] = []
        results: List[Optional[dict]] = []
        started, paused = time.perf_counter(), 0.0
        for slot, job in enumerate(self.sequence):
            if job in self.sequence[:slot]:
                pause = time.perf_counter()
                self.ctx.reference.sample(3)
                paused += time.perf_counter() - pause
            sent = time.perf_counter()
            daemon.send(slot + 1, "check", {"job": self.jobs[job]})
            frame = daemon.receive()
            received = time.perf_counter()
            if frame.get("id") != slot + 1:
                raise ConnectionError(f"unexpected frame {frame!r}")
            result = frame.get("result") if frame.get("ok") else None
            ok = (
                result is not None
                and result.get("status") == "ok"
                and result.get("equivalent") == self.pairs[job].equivalent
            )
            samples.append(Sample(slot, received - sent, ok))
            results.append(result)
            if recorder is not None:
                recorder.add_span("server.request", sent, received, tag=slot)
        return samples, results, time.perf_counter() - started - paused

    def peak_rss_kib(self) -> int:
        return self.rss_kib

    def counted_pass(self, recorder: Optional[SpanRecorder] = None) -> PassResult:
        """One full round on a fresh daemon, with the daemon's counters.

        With one request in flight the daemon's opcache counts repeat
        exactly, so they are compared with the checker's.
        """
        samples, busy = self.run_round(recorder)
        stats = self.last_round["stats"]
        outcome = PassResult(busy, [])
        for slot, result in enumerate(self.last_round["results"]):
            outcome.verdicts.append(result.get("equivalent") if result is not None else None)
            outcome.failed += not samples[slot].ok
            if result is None or result.get("cache_hit") or not result.get("result"):
                continue
            check_stats = result["result"]["stats"]
            for name in CHECK_COUNTERS[:5]:
                outcome.counts[name] += check_stats[name]
            outcome.counts["addg_nodes"] += (
                check_stats["original_addg_size"] + check_stats["transformed_addg_size"]
            )
            outcome.extra["frontend_s"] = outcome.extra.get("frontend_s", 0.0) + check_stats["frontend_seconds"]
        outcome.counts["checks_executed"] = stats["checks_executed"]
        outcome.counts["verdict_cache_hits"] = stats["verdict_cache"]["hits"]
        outcome.counts["dedup_hits"] = stats["dedup_hits"]
        outcome.counts["opcache_hits"] = stats["opcache"]["hits"]
        outcome.counts["opcache_misses"] = stats["opcache"]["misses"]
        outcome.counts["intern_hits"] = stats["opcache"]["intern_hits"]
        return outcome


# --------------------------------------------------------------------------- #
# cli-oneshot
# --------------------------------------------------------------------------- #
class CliOneshot(Workload):
    """``python -m repro.cli check orig.c trans.c``, one process per check."""

    name = "cli-oneshot"
    round_size = 9
    nominal_round_seconds = 4.0
    setup_code = "import repro.cli"

    def prepare(self) -> None:
        self.pairs = kernel_pairs(self.seed, small=True) + fig1_pairs(self.seed)
        self.workdir = os.path.join(self.ctx.out, f"cli-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.files = []
        for number, pair in enumerate(self.pairs):
            paths = []
            for side, text in (("orig", pair.original), ("trans", pair.transformed)):
                path = os.path.join(self.workdir, f"{number}-{side}.c")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                paths.append(path)
            self.files.append(paths)
        self.order = random.Random(f"{self.seed}:{self.name}").sample(range(len(self.pairs)), len(self.pairs))
        self.pass_pairs = [self.pairs[index] for index in self.order]
        self.one_check(0)  # bytecode caches and the page cache warm up here

    def probe(self, code: str) -> float:
        return run_child(self.ctx, [self.ctx.python, "-c", code])[0]

    def one_check(self, index: int) -> Tuple[float, bool, int]:
        original, transformed = self.files[index]
        seconds, code, rss = run_child(
            self.ctx,
            [self.ctx.python, "-m", "repro.cli", "check", original, transformed],
            cwd=self.workdir,
        )
        self.rss_kib = max(self.rss_kib, rss)
        expected = 0 if self.pairs[index].equivalent else 1
        return seconds, code == expected, code

    def run_round(self) -> Tuple[List[Sample], float]:
        samples = []
        for index in self.order:
            self.ctx.reference.sample()
            seconds, ok, _ = self.one_check(index)
            samples.append(Sample(index, seconds, ok))
        return samples, sum(sample.seconds for sample in samples)

    def peak_rss_kib(self) -> int:
        return self.rss_kib

    def counted_pass(self, recorder: Optional[SpanRecorder] = None) -> PassResult:
        """Each pair once, one process each; exit codes are the verdicts."""
        outcome = PassResult(0.0, [])
        started = time.perf_counter()
        for index in self.order:
            process_started = time.perf_counter()
            seconds, ok, code = self.one_check(index)
            if recorder is not None:
                recorder.add_span("cli.process", process_started, process_started + seconds, tag=index)
            outcome.verdicts.append({0: True, 1: False}.get(code))
            outcome.failed += not ok
            outcome.extra["process_s"] = outcome.extra.get("process_s", 0.0) + seconds
        outcome.wall = time.perf_counter() - started
        return outcome

    def cleanup(self) -> None:
        if hasattr(self, "workdir"):
            shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {workload.name: workload for workload in (KernelsCold, ChainMatch, ServerMix, CliOneshot)}
