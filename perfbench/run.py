#!/usr/bin/env python3
"""Time-to-verdict benchmark of the equivalence checker.

Run from the repository root::

    python3 perfbench/run.py --workload kernels-cold --seed 1 --seconds 20 --trace 0

Workloads: ``kernels-cold``, ``chain-match``, ``server-mix``, ``cli-oneshot``
(see ``perfbench/README.md`` for why each exists).  ``--trace 0`` runs the
timed closed loop and reports the end-to-end metrics; ``--trace 1`` runs the
workload's counted pass twice, plain and under the layer wrappers of
``layers.py``, and reports the per-layer metrics, a self-time table and a
Chrome trace under ``.perfbench_out/``.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/``; without it the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

#: Hash seed of the benchmark and of every process it starts.  String hashes
#: decide set and dict orders inside the checker, and with a fresh random
#: seed per process the same checks took up to 15% longer in one process
#: than in the next.  The counter self-check's fresh process uses another.
HASH_SEED = "0"
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != HASH_SEED and "--counts-only" not in sys.argv:
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
              {**os.environ, "PYTHONHASHSEED": HASH_SEED})

#: Variables that would warm, resize or disable the program's caches, or
#: switch its constraint kernel; removed before ``repro`` is imported and
#: from every child process.
SCRUBBED_ENV = ("REPRO_OPCACHE_DISABLE", "REPRO_OPCACHE_SIZE", "REPRO_OPCACHE_PERSIST_DIR", "REPRO_KERNEL")
REMOVED_ENV = sorted(name for name in SCRUBBED_ENV if os.environ.pop(name, None) is not None)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Per-layer metrics of ``--trace 1``: (name, unit).  Layers that do not run
#: on a workload report 0.
PER_LAYER = (
    ("lang.parse_s", "s"),
    ("analysis.defuse_s", "s"),
    ("addg.build_s", "s"),
    ("addg.nodes", "count"),
    ("verifier.frontend_s", "s"),
    ("verifier.self_s", "s"),
    ("verifier.compile_hit_ratio", "ratio"),
    ("checker.self_s", "s"),
    ("checker.compare_calls", "count"),
    ("checker.matching_operations", "count"),
    ("checker.leaf_comparisons", "count"),
    ("checker.flatten_operations", "count"),
    ("checker.table_hits", "count"),
    ("presburger.s", "s"),
    ("presburger.calls", "count"),
    ("presburger.project_s", "s"),
    ("presburger.opcache_hits", "count"),
    ("presburger.opcache_misses", "count"),
    ("presburger.opcache_hit_ratio", "ratio"),
    ("presburger.intern_hits", "count"),
    ("server.request_s", "s"),
    ("server.check_s", "s"),
    ("server.wait_s", "s"),
    ("server.transport_s", "s"),
    ("server.cached_p50_ms", "ms"),
    ("server.verdict_cache_hit_ratio", "ratio"),
    ("server.compiled_store_hit_ratio", "ratio"),
    ("server.dedup_hits", "count"),
    ("server.checks_executed", "count"),
    ("server.errors", "count"),
    ("server.rejected", "count"),
    ("cli.interp_s", "s"),
    ("cli.import_s", "s"),
    ("cli.check_s", "s"),
    ("cli.residual_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
    ("selfcheck.count_drift", "count"),
)

#: Self-time rows of the in-process layer table, in call order.
INPROCESS_ROWS = (
    ("verifier", "verifier.self_s"),
    ("lang.parse", "lang.parse_s"),
    ("analysis.defuse", "analysis.defuse_s"),
    ("addg.build", "addg.build_s"),
    ("checker", "checker.self_s"),
    ("presburger", "presburger.s"),
)

#: Latency reported for a failed check: it misses any latency limit.
FAILED_LATENCY_MS = 1e9


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (the ``inclusive`` method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    if ordered[high] == ordered[low]:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def environment() -> dict:
    """What the results depend on besides the code: recorded with every run."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "scrubbed_env": list(SCRUBBED_ENV),
        "removed_env": REMOVED_ENV,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# --------------------------------------------------------------------------- #
# --trace 0: the timed closed loop
# --------------------------------------------------------------------------- #
def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    return max(50, math.floor(100 * (1 - 10 / samples)))


def timed_run(runner, args) -> dict:
    from workloads import Reference

    # Durations are rescaled by the calibration loop's best time over the
    # whole run, so that slowdowns other processes on a shared machine cause
    # drop out while the program's own cost stays.  The set-up phase alone
    # holds too few loop samples for a steady best.
    reference = runner.ctx.reference
    reference.restart()
    setup = runner.setup_samples()
    rounds = runner.rounds(args.seconds)
    samples = []
    for _ in range(rounds):
        samples += runner.run_round()[0]
    factor = reference.factor()
    raw = [s.seconds * 1e3 for s in samples]
    for s in samples:
        s.seconds *= factor
    setup = [seconds * factor for seconds in setup + runner.setups]
    # An input's time to verdict is the best of its timed checks in the run;
    # the rounds spread them across it.
    best = {}
    for s in samples:
        if s.ok:
            best[s.key] = min(best.get(s.key, math.inf), s.seconds)
    latencies = [best[s.key] * 1e3 if s.ok else FAILED_LATENCY_MS for s in samples]
    failed = sum(not s.ok for s in samples)
    ok_seconds = sum(latency / 1e3 for latency, s in zip(latencies, samples) if s.ok)
    tail = tail_percentile(len(best) if runner.tail_over_inputs else len(samples))
    metrics = {
        # A closed loop with one caller completes a check per time to verdict.
        "checks_per_s": (ratio(len(samples) - failed, ok_seconds), "1/s"),
        "latency_p50_ms": (percentile(latencies, 50), "ms"),
        "latency_tail_ms": (percentile(latencies, tail), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (runner.peak_rss_kib() / 1024.0, "MB"),
    }
    print(
        f"{runner.name}: {rounds} rounds of {runner.round_size} checks = {len(samples)} samples, "
        f"best of {len(samples) // len(best) if best else 0} per input; tail = p{tail}; "
        f"setup_s over {len(setup)} start-ups"
    )
    print(
        f"  calibration: times x {factor:.4f}, "
        f"to a machine where the loop's best is {Reference.NOMINAL_SECONDS * 1e3:.1f} ms; "
        f"raw p50 {percentile(raw, 50):.2f} ms"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:12.4f} {unit}")
    print(f"  {'fail_rate':<16} {ratio(failed, len(samples)):12.4f} ratio ({failed}/{len(samples)})")
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}


# --------------------------------------------------------------------------- #
# --trace 1: counted passes, layer split, drift self-check
# --------------------------------------------------------------------------- #
def drift(first, second, label: str) -> list:
    """Differences in verdicts or deterministic counters between two passes."""
    found = []
    if list(first.verdicts) != list(second.verdicts):
        found.append(f"{label}: verdicts differ")
    for name in sorted(set(first.counts) | set(second.counts)):
        if first.counts.get(name, 0) != second.counts.get(name, 0):
            found.append(f"{label}: {name} {first.counts.get(name, 0)} != {second.counts.get(name, 0)}")
    return found


def counts_in_child(args):
    """The counted pass of the same seed in a fresh process (another hash seed)."""
    from workloads import PassResult

    output = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--counts-only"],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=170, cwd=str(ROOT),
        env={**os.environ, "PYTHONHASHSEED": str(int(HASH_SEED) + 1)},
    )
    if output.returncode != 0:
        raise RuntimeError(f"counted pass in a child failed: {output.stderr.strip()[-400:]}")
    data = json.loads(output.stdout.strip().splitlines()[-1])
    return PassResult(0.0, data["verdicts"], counts=data["counts"])


def inprocess_layers(recorder, traced) -> dict:
    """Per-layer values of an in-process pass measured under the wrappers."""
    counts = traced.counts
    values = {metric: recorder.self_seconds.get(layer, 0.0) for layer, metric in INPROCESS_ROWS}
    values.update({
        "addg.nodes": counts["addg_nodes"],
        "verifier.frontend_s": traced.extra.get("frontend_s", 0.0),
        "verifier.compile_hit_ratio": ratio(
            counts["compile_hits"], counts["compile_hits"] + counts["compile_misses"]
        ),
        "presburger.calls": recorder.calls.get("presburger", 0),
        "presburger.project_s": recorder.kind_seconds.get("project", 0.0),
    })
    values.update(_counter_values(counts))
    values["presburger.opcache_hits"] = counts["opcache_hits"]
    values["presburger.opcache_misses"] = counts["opcache_misses"]
    values["presburger.intern_hits"] = counts["intern_hits"]
    values["presburger.opcache_hit_ratio"] = ratio(
        counts["opcache_hits"], counts["opcache_hits"] + counts["opcache_misses"]
    )
    return values


def _counter_values(counts) -> dict:
    return {
        f"checker.{name}": counts[name]
        for name in ("compare_calls", "matching_operations", "leaf_comparisons",
                     "flatten_operations", "table_hits")
    }


def trace_inprocess(runner, args):
    from layers import SpanRecorder, instrument

    plain = runner.counted_pass()
    recorder = SpanRecorder()
    with instrument(recorder):
        traced = runner.counted_pass(recorder)
    found = drift(plain, traced, "plain vs traced") + drift(plain, counts_in_child(args), "this vs fresh process")
    values = inprocess_layers(recorder, traced)
    values["trace.unattributed_s"] = traced.wall - recorder.root_seconds
    rows = [(layer, values[metric]) for layer, metric in INPROCESS_ROWS]
    return plain, traced, values, rows, found, [recorder]


def trace_server(runner, args):
    from layers import SpanRecorder

    plain = runner.counted_pass()
    recorder = SpanRecorder()
    traced = runner.counted_pass(recorder)
    found = drift(plain, traced, "daemon vs fresh daemon")
    stats = runner.last_round["stats"]
    counts = traced.counts
    round_trips = recorder.root_seconds
    request_sum = stats["latency"]["request_seconds"]["sum"]
    check_sum = stats["latency"]["check_seconds"]["sum"]
    cache, store, opcache = stats["verdict_cache"], stats["compiled_store"], stats["opcache"]
    results = runner.last_round["results"]
    hits = [end - start for _, start, end, slot in recorder.events if (results[slot] or {}).get("cache_hit")]
    values = {
        "server.cached_p50_ms": statistics.median(hits) * 1e3 if hits else 0.0,
        "server.request_s": request_sum,
        "server.check_s": check_sum,
        "server.wait_s": request_sum - check_sum,
        "server.transport_s": round_trips - request_sum,
        "server.verdict_cache_hit_ratio": ratio(cache["hits"], cache["hits"] + cache["misses"]),
        "server.compiled_store_hit_ratio": ratio(store["hits"], store["hits"] + store["misses"]),
        "server.dedup_hits": stats["dedup_hits"],
        "server.checks_executed": stats["checks_executed"],
        "server.errors": stats["errors"],
        "server.rejected": stats["rejected"],
        "verifier.compile_hit_ratio": ratio(
            stats["compile_hits"], stats["compile_hits"] + stats["compile_misses"]
        ),
        "verifier.frontend_s": traced.extra.get("frontend_s", 0.0),
        "addg.nodes": counts["addg_nodes"],
        "presburger.opcache_hits": opcache["hits"],
        "presburger.opcache_misses": opcache["misses"],
        "presburger.intern_hits": opcache["intern_hits"],
        "presburger.opcache_hit_ratio": ratio(opcache["hits"], opcache["hits"] + opcache["misses"]),
        "trace.unattributed_s": traced.wall - round_trips,
    }
    values.update(_counter_values(counts))
    print(
        f"  daemon sums over {runner.round_size} requests: request {request_sum:.4f} s, "
        f"check {check_sum:.4f} s, client round trips {round_trips:.4f} s"
    )
    rows = [(name, values[f"{name}_s"]) for name in ("server.check", "server.wait", "server.transport")]
    return plain, traced, values, rows, found, [recorder]


def trace_cli(runner, args):
    from workloads import inprocess_pass
    from layers import SpanRecorder, instrument

    plain = runner.counted_pass()
    recorder = SpanRecorder()
    traced = runner.counted_pass(recorder)
    checks = len(runner.pass_pairs)
    interp = statistics.median(runner.probe("pass") for _ in range(5))
    imported = statistics.median(runner.probe("import repro.cli") for _ in range(5))
    in_process = inprocess_pass(runner.pass_pairs)
    split = SpanRecorder()
    with instrument(split):
        in_process_traced = inprocess_pass(runner.pass_pairs, split)
    found = drift(plain, traced, "plain vs traced") + drift(
        in_process, in_process_traced, "in-process plain vs traced"
    )
    values = inprocess_layers(split, in_process_traced)
    values.update({
        "cli.interp_s": checks * interp,
        "cli.import_s": checks * (imported - interp),
        "cli.check_s": in_process.wall,
    })
    values["cli.residual_s"] = (
        traced.extra["process_s"] - values["cli.interp_s"] - values["cli.import_s"] - in_process.wall
    )
    values["trace.unattributed_s"] = traced.wall - traced.extra["process_s"]
    print(f"  in-process split of cli.check (same {checks} pairs, cold, under the wrappers):")
    for layer, metric in INPROCESS_ROWS:
        print(f"    {layer:<18} {values[metric]:10.4f} s")
    print(f"    {'unattributed':<18} {in_process_traced.wall - split.root_seconds:10.4f} s")
    rows = [(name, values[f"{name}_s"]) for name in ("cli.interp", "cli.import", "cli.check", "cli.residual")]
    return plain, traced, values, rows, found, [recorder, split]


def traced_run(runner, args) -> dict:
    from workloads import CliOneshot, InProcessWorkload
    from layers import write_chrome_trace

    if isinstance(runner, InProcessWorkload):
        tracer = trace_inprocess
    elif isinstance(runner, CliOneshot):
        tracer = trace_cli
    else:
        tracer = trace_server
    print(f"{runner.name}: traced pass, run plain then under the layer wrappers")
    plain, traced, values, rows, found, recorders = tracer(runner, args)
    values["trace.wall_s"] = traced.wall
    values["trace.overhead_ratio"] = ratio(traced.wall, plain.wall)
    values["selfcheck.count_drift"] = len(found)
    checks = len(traced.verdicts)

    print(f"  per-layer self time over {checks} checks (traced wall {traced.wall:.4f} s)")
    print(f"    {'layer':<18} {'seconds':>10} {'ms/check':>10} {'share':>7}")
    for layer, seconds in rows + [("unattributed", values["trace.unattributed_s"])]:
        print(f"    {layer:<18} {seconds:10.4f} {seconds * 1e3 / checks:10.3f} {ratio(seconds, traced.wall):7.1%}")
    total = sum(seconds for _, seconds in rows) + values["trace.unattributed_s"]
    print(f"    {'sum':<18} {total:10.4f}   (= traced wall; overhead ratio {values['trace.overhead_ratio']:.3f})")
    for line in found:
        print(f"  COUNT DRIFT {line}")
    print(f"  counter self-check: {'no drift' if not found else f'{len(found)} drift(s)'}")

    origin = min((event[1] for recorder in recorders for event in recorder.events), default=0.0)
    events = []
    for lane, recorder in enumerate(recorders):
        for event in recorder.chrome_events(origin):
            event["pid"] = lane + 1
            events.append(event)
    path = OUT / f"trace-{runner.name}-seed{args.seed}.json"
    write_chrome_trace(
        path,
        events,
        {
            "workload": runner.name,
            "seed": args.seed,
            "environment": environment(),
            "dropped_events": sum(recorder.dropped_events for recorder in recorders),
        },
    )
    print(f"  chrome trace: {path.relative_to(ROOT)}")

    units = dict(PER_LAYER)
    metrics = {name: (values.get(name, 0), unit) for name, unit in units.items()}
    failed = plain.failed + traced.failed
    return {"correct": failed == 0, "attempted": 2 * checks, "failed": failed, "metrics": metrics}


# --------------------------------------------------------------------------- #
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("kernels-cold", "chain-match", "server-mix", "cli-oneshot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run `finally` blocks: stop daemons

    from workloads import WORKLOADS, Context
    from inputs import SetupError

    runner = WORKLOADS[args.workload](Context(str(OUT), child_env()), args.seed)
    try:
        runner.prepare()
        if args.counts_only:
            outcome = runner.counted_pass()
            print(json.dumps({"verdicts": outcome.verdicts, "counts": dict(outcome.counts)}))
            return 0
        print(f"environment: {json.dumps(environment(), sort_keys=True)}")
        result = traced_run(runner, args) if args.trace else timed_run(runner, args)
    except SetupError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        runner.cleanup()
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
