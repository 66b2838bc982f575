"""Substrate micro-benchmarks: the integer set / relation operations (OMEGA substitute).

Section 6.2 argues the cost of the integer tuple operations "can be safely
assumed to be bound by a small constant as the lengths of the formulae ...
are usually small".  These micro-benchmarks measure the operations the
checker performs most often — composition, equality, subtraction with
divisibility constraints, feasibility — at the formula sizes that actually
occur, backing that claim for this reimplementation.

Two ablations double as CI smoke gates::

    PYTHONPATH=src python benchmarks/bench_presburger.py --smoke

* the operation cache of :mod:`repro.presburger.opcache` (interned
  conjuncts + memoized relation algebra) against the uncached baseline —
  the cached run must be at least 1.5x faster;
* the persistent cache (``--warm-start``) — a second process sharing the
  same ``--persist-dir`` must finish the workload at least 2x faster than
  the first, cold one.

``--smoke`` runs both and exits non-zero when either ratio regresses.
"""

import os
import subprocess
import sys
import tempfile
import time

import pytest

from repro.presburger import opcache, parse_map, parse_set

from conftest import run_once

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def maps():
    return {
        "affine": parse_map("{ [k] -> [2k - 2] : 1 <= k <= 1024 }"),
        "identity": parse_map("{ [k] -> [k] : 0 <= k < 1024 }"),
        "strided": parse_map("{ [k] -> [k] : exists j : k = 2j and 0 <= k < 1024 }"),
        "piecewise": parse_map("{ [k] -> [2k] : 0 <= k < 512 ; [k] -> [2k] : 512 <= k < 1024 }"),
    }


def bench_composition(benchmark, maps):
    result = run_once(benchmark, maps["identity"].compose, maps["affine"], rounds=5)
    assert not result.is_empty()


def bench_equality_of_piecewise_maps(benchmark, maps):
    whole = parse_map("{ [k] -> [2k] : 0 <= k < 1024 }")
    equal = run_once(benchmark, maps["piecewise"].is_equal, whole, rounds=5)
    assert equal


def bench_subtraction_with_divisibility(benchmark, maps):
    def subtract():
        return maps["identity"].subtract(maps["strided"])

    difference = run_once(benchmark, subtract, rounds=5)
    assert not difference.is_empty()
    assert difference.domain().contains([1])
    assert not difference.domain().contains([2])


def bench_domain_and_range(benchmark, maps):
    def both():
        return maps["affine"].domain(), maps["affine"].range()

    domain, range_ = run_once(benchmark, both, rounds=5)
    assert domain.contains([1]) and range_.contains([0])


def bench_feasibility_of_parity_conflict(benchmark):
    even = parse_set("{ [k] : exists i : k = 2i and 0 <= k < 4096 }")
    odd = parse_set("{ [k] : exists i : k = 2i + 1 and 0 <= k < 4096 }")
    empty = run_once(benchmark, even.intersect(odd).is_empty, rounds=5)
    assert empty


# --------------------------------------------------------------------------- #
# Operation-cache ablation: repeated composition with the cache on vs off
# --------------------------------------------------------------------------- #
# The scenario mirrors what the checker engine does along every traversal
# path: compose the same dependency relations over and over, invert them, and
# test relations for equality.  With the operation cache enabled only the
# first round pays; the rest are LRU hits on interned operands.
_CHAIN_SOURCES = (
    "{ [k] -> [k + 1] : 0 <= k < 2048 }",
    "{ [k] -> [2k] : 0 <= k < 1024 }",
    "{ [k] -> [k - 4] : 4 <= k < 2048 }",
    "{ [k] -> [k] : exists j : k = 2j and 0 <= k < 2048 }",
)

SPEEDUP_THRESHOLD = 1.5


def _repeated_composition_round(chain, piecewise, whole):
    current = chain[0]
    for relation in chain[1:]:
        current = current.compose(relation)
    current.inverse()
    assert piecewise.is_equal(whole)
    return current


def _run_repeated_composition(iterations: int):
    chain = [parse_map(source) for source in _CHAIN_SOURCES]
    piecewise = parse_map("{ [k] -> [2k] : 0 <= k < 512 ; [k] -> [2k] : 512 <= k < 1024 }")
    whole = parse_map("{ [k] -> [2k] : 0 <= k < 1024 }")
    result = None
    for _ in range(iterations):
        result = _repeated_composition_round(chain, piecewise, whole)
    return result


def time_repeated_composition(iterations: int = 20):
    """Wall-clock the scenario with the cache disabled, then enabled (cold).

    Returns ``(disabled_seconds, enabled_seconds)``.  Used both by the
    pytest-benchmark entry below and by ``--smoke`` mode.
    """
    with opcache.disabled():
        started = time.perf_counter()
        _run_repeated_composition(iterations)
        disabled_seconds = time.perf_counter() - started
    opcache.reset()  # cold start: the cached run includes its own warmup
    started = time.perf_counter()
    _run_repeated_composition(iterations)
    enabled_seconds = time.perf_counter() - started
    return disabled_seconds, enabled_seconds


def bench_repeated_composition_cached(benchmark):
    opcache.reset()
    result = run_once(benchmark, _run_repeated_composition, 20, rounds=3)
    assert not result.is_empty()
    benchmark.extra_info["opcache_hits"] = opcache.stats().hits


def bench_repeated_composition_uncached(benchmark):
    def run():
        with opcache.disabled():
            return _run_repeated_composition(20)

    result = run_once(benchmark, run, rounds=3)
    assert not result.is_empty()


def bench_cache_ablation_speedup():
    """Non-timing assertion: the cache must keep its >= 1.5x win on this scenario."""
    disabled_seconds, enabled_seconds = time_repeated_composition()
    speedup = disabled_seconds / enabled_seconds if enabled_seconds else float("inf")
    assert speedup >= SPEEDUP_THRESHOLD, (
        f"operation cache speedup degraded to {speedup:.2f}x "
        f"(uncached {disabled_seconds:.3f} s vs cached {enabled_seconds:.3f} s)"
    )


# --------------------------------------------------------------------------- #
# Warm start: a second process reusing the persistent operation cache
# --------------------------------------------------------------------------- #
WARM_START_THRESHOLD = 2.0

#: Distinct composition powers, projections and strided subtractions, all
#: persistable ops, sized so the cold leg is compute-dominated and the warm
#: leg is sqlite-read-dominated.
_WARM_WORKLOAD_STEPS = 12

#: Composition powers of each step map (the checker composes dependency
#: relations along every traversal path).
_WARM_WORKLOAD_POWER = 4


def _run_warm_workload() -> None:
    identity = parse_map("{ [k] -> [k] : 0 <= k < 2048 }")
    for i in range(1, _WARM_WORKLOAD_STEPS + 1):
        step = parse_map(
            "{ [i, j] -> [i + %d, j - 1] : 0 <= i < 64 and 1 <= j < 16 }" % i
        )
        power = step
        for _ in range(_WARM_WORKLOAD_POWER - 1):
            power = power.compose(step)
        assert not power.is_empty()
        assert power.domain().is_subset(step.inverse().range())
        strided = parse_map(
            "{ [k] -> [k] : exists j : k = %dj and 0 <= k < 2048 }" % (i + 1)
        )
        assert not identity.subtract(strided).is_empty()


def _warm_child(persist_dir: str) -> int:
    """Child-process entry: run the workload against *persist_dir*, print seconds."""
    opcache.attach_persistent(persist_dir)
    started = time.perf_counter()
    _run_warm_workload()
    print(f"{time.perf_counter() - started:.6f}")
    return 0


def time_warm_start(persist_dir: str | None = None):
    """Run the warm workload in two fresh processes sharing one persist dir.

    Returns ``(cold_seconds, warm_seconds)``.  Fresh interpreters ensure the
    second run can only be warm through the disk tier, never through
    inherited in-memory state.
    """
    if persist_dir is None:
        persist_dir = tempfile.mkdtemp(prefix="repro-warmstart-")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))

    def run_child() -> float:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--warm-child", persist_dir],
            env=env,
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"warm-start child failed:\n{proc.stderr}")
        return float(proc.stdout.strip().splitlines()[-1])

    return run_child(), run_child()


def bench_warm_start_speedup():
    """Non-timing assertion: a warm process must be >= 2x faster than cold."""
    cold_seconds, warm_seconds = time_warm_start()
    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    assert speedup >= WARM_START_THRESHOLD, (
        f"warm-start speedup degraded to {speedup:.2f}x "
        f"(cold {cold_seconds:.3f} s vs warm {warm_seconds:.3f} s)"
    )


# --------------------------------------------------------------------------- #
# CLI smoke gates
# --------------------------------------------------------------------------- #
def _smoke_cache() -> int:
    disabled_seconds, enabled_seconds = time_repeated_composition()
    speedup = disabled_seconds / enabled_seconds if enabled_seconds else float("inf")
    stats = opcache.stats()
    print("[opcache ablation]")
    print(f"uncached : {disabled_seconds:.3f} s")
    print(f"cached   : {enabled_seconds:.3f} s  ({stats.hits} hit(s), {stats.misses} miss(es))")
    print(f"speedup  : {speedup:.2f}x  (threshold {SPEEDUP_THRESHOLD}x)")
    if speedup < SPEEDUP_THRESHOLD:
        print("FAIL: operation-cache speedup below threshold", file=sys.stderr)
        return 1
    print("OK")
    return 0


def _smoke_warm_start() -> int:
    cold_seconds, warm_seconds = time_warm_start()
    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    print("[warm start]")
    print(f"cold     : {cold_seconds:.3f} s")
    print(f"warm     : {warm_seconds:.3f} s")
    print(f"speedup  : {speedup:.2f}x  (threshold {WARM_START_THRESHOLD}x)")
    if speedup < WARM_START_THRESHOLD:
        print("FAIL: warm-start speedup below threshold", file=sys.stderr)
        return 1
    print("OK")
    return 0


def _smoke() -> int:
    """CI gate: run every ablation and fail loudly on any perf regression."""
    failures = 0
    for gate in (_smoke_cache, _smoke_warm_start):
        failures += gate()
        print()
    return 1 if failures else 0


if __name__ == "__main__":
    argv = sys.argv[1:]
    if "--warm-child" in argv:
        sys.exit(_warm_child(argv[argv.index("--warm-child") + 1]))
    if "--warm-start" in argv:
        sys.exit(_smoke_warm_start())
    if "--smoke" in argv:
        sys.exit(_smoke())
    print(__doc__)
    print(
        "run under pytest for the full benchmark suite, or pass "
        "--smoke / --warm-start"
    )
    sys.exit(2)
