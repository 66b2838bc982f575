#!/usr/bin/env python3
"""Regenerate or check the committed perf-trajectory snapshots (BENCH_*.json).

The repo commits one JSON snapshot per benchmark suite so that the
performance story of the checker is part of its history, reviewable in every
PR that moves the numbers:

* ``BENCH_presburger.json`` — the repeated-composition operation-cache
  ablation of ``benchmarks/bench_presburger.py``;
* ``BENCH_verifier.json`` — the session-reuse variant corpus of
  ``benchmarks/bench_verifier.py`` (seed 7, 12 variants);
* ``BENCH_service.json`` — a serial batch over the built-in corpus
  (generated + buggy pairs, seed 0);
* ``BENCH_solvers.json`` — the decision-backend comparison of
  ``benchmarks/bench_solvers.py`` (omega vs SMT-LIB2 vs crosscheck on the
  ``fir`` kernel).

Each snapshot splits into two sub-objects:

* ``"deterministic"`` — work counters and verdicts that must reproduce
  exactly on any machine (verdicts, compare calls, tabling and operation
  cache hits/misses, ...).  ``--check`` recomputes the suites and fails on
  any drift here, which makes silent behavioural regressions (a cache that
  stopped hitting, a traversal doing double work) a CI failure.
* ``"timing"`` — wall-clock measurements, recorded for the human trajectory
  but machine-dependent and therefore ignored by ``--check``.

Usage::

    python tools/bench_snapshot.py              # regenerate all three
    python tools/bench_snapshot.py --check      # CI drift gate
    python tools/bench_snapshot.py --suite verifier
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

SCHEMA_VERSION = 1

# The shapes must match the committed snapshots; bump deliberately (the
# resulting --check drift is the signal that the trajectory moved).
PRESBURGER_ITERATIONS = 20
VERIFIER_SEED = 7
VERIFIER_VARIANTS = 12
SERVICE_SPEC = dict(generated=6, buggy=2, seed=0, size=16, transform_steps=2)


def _per_op_dict(stats) -> dict:
    return {
        op: {"hits": hits, "misses": misses}
        for op, (hits, misses) in sorted(stats.per_op.items())
    }


def snapshot_presburger() -> dict:
    """The operation-cache, kernel and warm-start ablations, counters cold."""
    import tempfile

    from repro.presburger import kernel, opcache
    import bench_presburger

    opcache.reset()
    disabled_seconds, enabled_seconds = bench_presburger.time_repeated_composition(
        PRESBURGER_ITERATIONS
    )
    # A separate cold cached run for the deterministic counters, so timing
    # warmup does not leak into them.
    opcache.reset()
    before = opcache.stats().copy()
    bench_presburger._run_repeated_composition(PRESBURGER_ITERATIONS)
    delta = opcache.stats().delta(before)
    speedup = disabled_seconds / enabled_seconds if enabled_seconds else 0.0

    # Kernel ablation: flat-matrix kernel vs the object-at-a-time baseline.
    object_seconds, flat_seconds = bench_presburger.time_kernel_ablation(
        PRESBURGER_ITERATIONS
    )
    kernel_speedup = object_seconds / flat_seconds if flat_seconds else 0.0

    # Warm start: two fresh processes sharing one persistent cache directory,
    # plus an in-process cold pass for the deterministic disk-write count.
    cold_seconds, warm_seconds = bench_presburger.time_warm_start()
    warm_speedup = cold_seconds / warm_seconds if warm_seconds else 0.0
    with tempfile.TemporaryDirectory(prefix="repro-bench-persist-") as tmp:
        opcache.attach_persistent(tmp)
        try:
            opcache.reset()
            before = opcache.stats().copy()
            bench_presburger._run_warm_workload()
            persist_delta = opcache.stats().delta(before)
        finally:
            opcache.detach_persistent()
            opcache.reset()

    return {
        "deterministic": {
            "iterations": PRESBURGER_ITERATIONS,
            "opcache_hits": delta.hits,
            "opcache_misses": delta.misses,
            "intern_hits": delta.intern_hits,
            "intern_misses": delta.intern_misses,
            "per_op": _per_op_dict(delta),
            "kernel_fingerprint": kernel.fingerprint(),
            "warm_workload_disk_writes": persist_delta.disk_writes,
            "warm_workload_disk_hits": persist_delta.disk_hits,
        },
        "timing": {
            "uncached_seconds": round(disabled_seconds, 6),
            "cached_seconds": round(enabled_seconds, 6),
            "speedup": round(speedup, 3),
            "kernel_object_seconds": round(object_seconds, 6),
            "kernel_flat_seconds": round(flat_seconds, 6),
            "kernel_speedup": round(kernel_speedup, 3),
            "warm_cold_seconds": round(cold_seconds, 6),
            "warm_warm_seconds": round(warm_seconds, 6),
            "warm_speedup": round(warm_speedup, 3),
        },
    }


def snapshot_verifier() -> dict:
    """The session-reuse corpus: one original, N transformed variants."""
    from repro.lang import program_to_text
    from repro.presburger import opcache
    from repro.verifier import Verifier
    from repro.workloads import RandomProgramGenerator

    generator = RandomProgramGenerator(seed=VERIFIER_SEED, stages=4, size=24)
    pairs = generator.generate_variants(VERIFIER_VARIANTS, transform_steps=2)
    original_text = program_to_text(pairs[0].original)
    variant_texts = [program_to_text(pair.transformed) for pair in pairs]

    opcache.reset()
    verifier = Verifier()
    started = time.perf_counter()
    results = [verifier.check(original_text, text) for text in variant_texts]
    total_seconds = time.perf_counter() - started

    def total(field: str) -> int:
        return sum(getattr(result.stats, field) for result in results)

    return {
        "deterministic": {
            "seed": VERIFIER_SEED,
            "variants": VERIFIER_VARIANTS,
            "verdicts": [bool(result.equivalent) for result in results],
            "compare_calls": total("compare_calls"),
            "paths_checked": total("paths_checked"),
            "table_hits": total("table_hits"),
            "opcache_hits": total("opcache_hits"),
            "opcache_misses": total("opcache_misses"),
            "compile_hits": verifier.compile_hits,
            "compile_misses": verifier.compile_misses,
        },
        "timing": {
            "total_seconds": round(total_seconds, 6),
            "mean_seconds_per_check": round(total_seconds / len(results), 6),
        },
    }


def snapshot_service() -> dict:
    """A serial batch over the built-in corpus, summarised by the service layer."""
    from repro.presburger import opcache
    from repro.service import BatchExecutor, CorpusSpec, aggregate_results, build_corpus

    jobs = build_corpus(CorpusSpec(**SERVICE_SPEC))
    opcache.reset()
    executor = BatchExecutor(cache=None, workers=1)
    started = time.perf_counter()
    results = executor.run(jobs)
    total_seconds = time.perf_counter() - started
    summary = aggregate_results(results)
    server, server_timing = _snapshot_service_server(jobs)
    return {
        "deterministic": {
            "spec": dict(SERVICE_SPEC),
            "jobs": summary["total_jobs"],
            "by_status": dict(summary["by_status"]),
            "equivalent": summary["equivalent"],
            "not_equivalent": summary["not_equivalent"],
            "expectation_mismatches": list(summary["expectation_mismatches"]),
            "opcache_hits": summary["opcache"]["hits"],
            "opcache_misses": summary["opcache"]["misses"],
            "server": server,
        },
        "timing": {
            "total_seconds": round(total_seconds, 6),
            "mean_seconds_per_job": round(summary["timing"]["mean_seconds"], 6),
            **server_timing,
        },
    }


def _snapshot_service_server(jobs):
    """The same corpus through a fully observed in-process daemon, twice.

    One serial client, one worker, debug-level request log and a zero slow
    threshold: every counter below is a pure function of the corpus, so the
    block belongs in the drift-gated ``deterministic`` section.  The second
    pass must be answered entirely from the verdict cache.
    """
    import collections
    import tempfile

    from repro.server import ServerClient, ServerConfig, ServerThread
    from repro.telemetry.live import iter_jsonl

    with tempfile.TemporaryDirectory(prefix="eqcheck-bench-snapshot-") as directory:
        log_path = os.path.join(directory, "requests.jsonl")
        config = ServerConfig(
            port=0,
            workers=1,
            log_path=log_path,
            log_level="debug",
            slow_threshold=0.0,
        )
        with ServerThread(config) as handle:
            with ServerClient(handle.address) as client:
                client.run_jobs(jobs, timeout=120.0)
                started = time.perf_counter()
                client.run_jobs(jobs, timeout=120.0)
                warm_seconds = time.perf_counter() - started
                snap = client.stats()
        kinds = collections.Counter(event["event"] for event in iter_jsonl(log_path))
    server = {
        "passes": 2,
        "requests": snap["requests"],
        "checks_executed": snap["checks_executed"],
        "verdict_cache_hits": snap["cache_hits"],
        "dedup_hits": snap["dedup_hits"],
        "errors": snap["errors"],
        "rejected": snap["rejected"],
        "slow_captured": snap["slow"]["captured"],
        "log_events": dict(sorted(kinds.items())),
    }
    timing = {"server_warm_pass_seconds": round(warm_seconds, 6)}
    return server, timing


def snapshot_solvers() -> dict:
    """The decision-backend comparison: same kernel, three backends."""
    import bench_solvers

    timings = {}
    results = {}
    for backend in ("omega", "smtlib", "crosscheck"):
        started = time.perf_counter()
        results[backend] = bench_solvers.check_kernel(backend)
        timings[backend] = time.perf_counter() - started
    crosscheck_counts = dict(results["crosscheck"].stats.solver_queries)
    omega_seconds = timings["omega"]
    return {
        "deterministic": {
            "kernel": bench_solvers.BENCH_KERNEL,
            "verdicts": {
                backend: bool(result.equivalent) for backend, result in results.items()
            },
            "smtlib_queries": dict(results["smtlib"].stats.solver_queries),
            "crosscheck_queries": crosscheck_counts,
            "disagreements": crosscheck_counts.get("crosscheck.disagreements", 0),
        },
        "timing": {
            "omega_seconds": round(timings["omega"], 6),
            "smtlib_seconds": round(timings["smtlib"], 6),
            "crosscheck_seconds": round(timings["crosscheck"], 6),
            "crosscheck_overhead": (
                round(timings["crosscheck"] / omega_seconds, 3) if omega_seconds else 0.0
            ),
        },
    }


SUITES = {
    "presburger": snapshot_presburger,
    "verifier": snapshot_verifier,
    "service": snapshot_service,
    "solvers": snapshot_solvers,
}


def _diff_lines(expected: dict, actual: dict, prefix: str = "") -> list:
    lines = []
    for key in sorted(set(expected) | set(actual)):
        left, right = expected.get(key), actual.get(key)
        if left == right:
            continue
        if isinstance(left, dict) and isinstance(right, dict):
            lines.extend(_diff_lines(left, right, prefix + key + "."))
        else:
            lines.append(f"  {prefix}{key}: committed {left!r} -> recomputed {right!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="recompute and compare the deterministic fields against the "
        "committed snapshots instead of rewriting them (CI drift gate)",
    )
    parser.add_argument(
        "--suite",
        action="append",
        choices=sorted(SUITES),
        default=None,
        help="restrict to the given suite (repeatable; default: all)",
    )
    parser.add_argument(
        "--output-dir",
        default=ROOT,
        metavar="DIR",
        help="directory of the BENCH_*.json files (default: the repo root)",
    )
    args = parser.parse_args(argv)

    failed = False
    for name in args.suite or sorted(SUITES):
        path = os.path.join(args.output_dir, f"BENCH_{name}.json")
        data = {"schema": SCHEMA_VERSION, "suite": name, **SUITES[name]()}
        if args.check:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    committed = json.load(handle)
            except (OSError, ValueError) as error:
                print(f"{name}: cannot read {path}: {error}", file=sys.stderr)
                failed = True
                continue
            drift = _diff_lines(
                committed.get("deterministic", {}), data["deterministic"]
            )
            if drift:
                print(f"{name}: DRIFT in deterministic fields ({path}):")
                print("\n".join(drift))
                print(
                    "  (intentional? regenerate with: python tools/bench_snapshot.py"
                    f" --suite {name})"
                )
                failed = True
            else:
                print(f"{name}: ok ({path})")
        else:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(data, handle, indent=2, sort_keys=True)
                handle.write("\n")
            timing = ", ".join(f"{k} {v}" for k, v in sorted(data["timing"].items()))
            print(f"{name}: wrote {path}  ({timing})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
