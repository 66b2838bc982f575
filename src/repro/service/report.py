"""JSONL report writing and batch-level aggregation.

A report is one JSON object per line: a ``{"type": "result", …}`` row per
job (in batch order) followed by a single ``{"type": "summary", …}`` row with
the aggregate — verdict and status counts, expectation mismatches, cache hit
rate, Presburger operation-cache totals and wall-time percentiles.  JSONL
keeps reports streamable and appendable: a crashed run still leaves every
completed row readable.

Two caches appear in the summary and must not be confused: ``cache_hits``
counts **verdict**-cache hits (whole checks skipped, see
:mod:`repro.service.cache`), while the ``opcache`` block aggregates the
**operation**-cache counters (:mod:`repro.presburger.opcache`) of the jobs
that actually executed.  ``docs/batch-verification.md`` walks through a full
report.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, TextIO, Tuple

from .cache import CacheStats
from .job import JobResult, JobStatus

__all__ = [
    "SERVER_SNAPSHOT_VERSION",
    "aggregate_results",
    "format_server_snapshot",
    "scenario_summary",
    "write_report",
    "write_result_row",
    "write_summary_row",
    "read_report",
    "format_summary",
    "percentile",
]

#: Version of the server's deep ``stats`` snapshot schema, carried in the
#: payload as ``schema_version`` so fleet tooling can detect shape changes.
#: The schema is produced by
#: :meth:`repro.server.daemon.VerificationServer.snapshot`, rendered to
#: Prometheus text by :func:`repro.telemetry.prom.render_server_snapshot`
#: and pretty-printed by :func:`format_server_snapshot` — bump this when any
#: of the three would disagree about a field.
SERVER_SNAPSHOT_VERSION = 2


def percentile(values: Sequence[float], fraction: float) -> float:
    """The *fraction*-quantile of *values* (nearest-rank; 0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


_LABEL_EQUIVALENT = "EQUIVALENT"
_LABEL_NOT_EQUIVALENT = "NOT_EQUIVALENT"
_LABEL_UNKNOWN = "UNKNOWN"


def _expected_label(outcome: JobResult) -> Optional[str]:
    label = outcome.metadata.get("expected_label")
    if label is not None:
        return label
    if outcome.expected_equivalent is None:
        return None
    return _LABEL_EQUIVALENT if outcome.expected_equivalent else _LABEL_NOT_EQUIVALENT


def scenario_summary(results: Sequence[JobResult]) -> Optional[Dict[str, Any]]:
    """The checker-vs-expected-vs-oracle confusion block of a labelled batch.

    Returns ``None`` unless at least one result carries scenario labels
    (``expected_label`` or an ``oracle`` verdict in its metadata — attached
    by :func:`repro.scenarios.corpus.scenario_jobs`).  Three disagreement
    classes are reported by name:

    * ``soundness_errors`` — the checker proved a pair EQUIVALENT although the
      oracle holds a concrete witness input on which the outputs differ.
      This is the one *hard* error class: an interpreter witness is
      definitive, so such a verdict is a checker soundness bug.
    * ``label_disputes`` — the oracle contradicts the pair's expected label
      (a corpus-construction bug: a "transformation" that was not
      equivalence-preserving, or a mutation label gone stale).
    * ``incompleteness`` — the checker could not prove a pair that both the
      label and the oracle consider equivalent.  The checker is conservative
      by design, so these are tracked but not errors.

    Results whose metadata carries a ``failure_report`` block (attached by
    :func:`repro.diagnostics.attach_failure_report`, e.g. by the ``fuzz``
    CLI) additionally populate a ``witness`` sub-block gating the *diagnosis*
    layer:

    * ``witness_errors`` — the oracle holds a concrete witness input but the
      checker-side diagnosis could not reproduce any divergence by replay.
      Hard error: the symbolic and concrete layers disagree about a pair
      both call non-equivalent.
    * ``bisection_misses`` — a mutated twin whose pipeline bisection failed
      to name the injected mutation step.  Hard error: every proper prefix
      of a twin's trace is equivalence-preserving by construction, so the
      bisection must land on the mutation.
    """
    labelled = [
        outcome
        for outcome in results
        if outcome.metadata.get("expected_label") is not None
        or outcome.metadata.get("oracle") is not None
    ]
    if not labelled:
        return None
    confusion = {
        "expected_equivalent": {"checker_equivalent": 0, "checker_not_equivalent": 0, "not_completed": 0},
        "expected_not_equivalent": {"checker_equivalent": 0, "checker_not_equivalent": 0, "not_completed": 0},
    }
    oracle_counts = {"equivalent": 0, "not_equivalent": 0, "unknown": 0, "missing": 0}
    soundness_errors: List[str] = []
    label_disputes: List[str] = []
    incompleteness: List[str] = []
    for outcome in labelled:
        expected = _expected_label(outcome)
        oracle = outcome.metadata.get("oracle") or {}
        oracle_label = oracle.get("label")
        if expected in (_LABEL_EQUIVALENT, _LABEL_NOT_EQUIVALENT):
            row = confusion[
                "expected_equivalent" if expected == _LABEL_EQUIVALENT else "expected_not_equivalent"
            ]
            if outcome.status != JobStatus.OK or outcome.equivalent is None:
                row["not_completed"] += 1
            elif outcome.equivalent:
                row["checker_equivalent"] += 1
            else:
                row["checker_not_equivalent"] += 1
        if oracle_label == _LABEL_EQUIVALENT:
            oracle_counts["equivalent"] += 1
        elif oracle_label == _LABEL_NOT_EQUIVALENT:
            oracle_counts["not_equivalent"] += 1
        elif oracle_label == _LABEL_UNKNOWN:
            oracle_counts["unknown"] += 1
        else:
            oracle_counts["missing"] += 1
        checker_ok = outcome.status == JobStatus.OK and outcome.equivalent is not None
        if checker_ok and outcome.equivalent and oracle_label == _LABEL_NOT_EQUIVALENT:
            soundness_errors.append(outcome.name)
        if (
            expected in (_LABEL_EQUIVALENT, _LABEL_NOT_EQUIVALENT)
            and oracle_label in (_LABEL_EQUIVALENT, _LABEL_NOT_EQUIVALENT)
            and oracle_label != expected
        ):
            label_disputes.append(outcome.name)
        if (
            checker_ok
            and not outcome.equivalent
            and expected == _LABEL_EQUIVALENT
            and oracle_label == _LABEL_EQUIVALENT
        ):
            incompleteness.append(outcome.name)
    summary = {
        "labelled": len(labelled),
        "confusion": confusion,
        "oracle": oracle_counts,
        "soundness_errors": soundness_errors,
        "label_disputes": label_disputes,
        "incompleteness": incompleteness,
    }
    witness = _witness_summary(labelled)
    if witness is not None:
        summary["witness"] = witness
    return summary


def _witness_summary(labelled: Sequence[JobResult]) -> Optional[Dict[str, Any]]:
    """Aggregate the ``failure_report`` diagnosis blocks of a labelled batch."""
    diagnosed = 0
    confirmed = 0
    unconfirmed: List[str] = []
    witness_errors: List[str] = []
    bisection_hits = 0
    bisection_misses: List[str] = []
    for outcome in labelled:
        failure = outcome.metadata.get("failure_report")
        if not failure:
            continue
        diagnosed += 1
        if failure.get("confirmed"):
            confirmed += 1
        else:
            unconfirmed.append(outcome.name)
            oracle = outcome.metadata.get("oracle") or {}
            if oracle.get("witness_seed") is not None:
                witness_errors.append(outcome.name)
        if outcome.metadata.get("mutation") is not None:
            bisection = failure.get("bisection") or {}
            if bisection.get("step_name") == "mutation":
                bisection_hits += 1
            else:
                bisection_misses.append(outcome.name)
    if not diagnosed:
        return None
    return {
        "diagnosed": diagnosed,
        "confirmed": confirmed,
        "unconfirmed": unconfirmed,
        "witness_errors": witness_errors,
        "bisection_hits": bisection_hits,
        "bisection_misses": bisection_misses,
    }


def aggregate_results(
    results: Sequence[JobResult],
    cache_stats: Optional[CacheStats] = None,
    opcache_stats: Optional["OpCacheStats"] = None,
) -> Dict[str, Any]:
    """Aggregate per-job results into the batch summary.

    *opcache_stats*, when given, is the process-wide
    :class:`~repro.presburger.opcache.OpCacheStats` delta of the run; it
    enriches the ``opcache`` block with evictions, intern misses and the
    per-operation hit/miss breakdown (counters the per-job
    :class:`~repro.checker.result.CheckStats` do not carry).  With worker
    processes the parent's delta covers only its own share, so callers
    should pass it for serial runs.
    """
    total = len(results)
    by_status = {status: 0 for status in JobStatus.ALL}
    equivalent = not_equivalent = 0
    cache_hits = 0
    opcache_hits = opcache_misses = intern_hits = 0
    mismatches: List[str] = []
    failures: List[str] = []
    times = [r.elapsed_seconds for r in results]
    for outcome in results:
        by_status[outcome.status] = by_status.get(outcome.status, 0) + 1
        if outcome.status != JobStatus.OK:
            failures.append(outcome.name)
        elif outcome.equivalent:
            equivalent += 1
        else:
            not_equivalent += 1
        if outcome.cache_hit:
            cache_hits += 1
        if outcome.matches_expectation is False:
            mismatches.append(outcome.name)
        if (
            outcome.result is not None
            and not outcome.cache_hit
            and not outcome.metadata.get("deduplicated")
        ):
            # Presburger operation-cache activity of the jobs that actually
            # ran in this batch (result-cache hits and in-batch duplicates,
            # which share the leader's result object, did no Presburger work).
            opcache_hits += outcome.result.stats.opcache_hits
            opcache_misses += outcome.result.stats.opcache_misses
            intern_hits += outcome.result.stats.intern_hits
    opcache_total = opcache_hits + opcache_misses
    summary: Dict[str, Any] = {
        "total_jobs": total,
        "by_status": by_status,
        "equivalent": equivalent,
        "not_equivalent": not_equivalent,
        "cache_hits": cache_hits,
        "cache_hit_rate": cache_hits / total if total else 0.0,
        "opcache": {
            "hits": opcache_hits,
            "misses": opcache_misses,
            "hit_rate": opcache_hits / opcache_total if opcache_total else 0.0,
            "intern_hits": intern_hits,
        },
        "expectation_mismatches": mismatches,
        "failed_jobs": failures,
        "timing": {
            "total_seconds": sum(times),
            "mean_seconds": sum(times) / total if total else 0.0,
            "p50_seconds": percentile(times, 0.50),
            "p90_seconds": percentile(times, 0.90),
            "p99_seconds": percentile(times, 0.99),
            "max_seconds": max(times) if times else 0.0,
        },
    }
    if opcache_stats is not None:
        summary["opcache"]["evictions"] = opcache_stats.evictions
        summary["opcache"]["intern_misses"] = opcache_stats.intern_misses
        summary["opcache"]["per_op"] = {
            op: {"hits": h, "misses": m}
            for op, (h, m) in sorted(opcache_stats.per_op.items())
        }
    scenarios = scenario_summary(results)
    if scenarios is not None:
        summary["scenarios"] = scenarios
    solvers = _solvers_summary(results)
    if solvers is not None:
        summary["solvers"] = solvers
    if cache_stats is not None:
        summary["cache"] = cache_stats.as_dict()
    return summary


def _solvers_summary(results: Sequence[JobResult]) -> Optional[Dict[str, Any]]:
    """The decision-backend block: per-backend query counts and divergences.

    Present when any job ran under a non-default backend (its
    :class:`~repro.checker.result.CheckStats` carry ``solver_queries``) or
    was aborted by a :class:`~repro.solvers.BackendDisagreement` (its
    metadata carries the serialized query).  Absent for pure omega batches,
    keeping their summary schema unchanged.
    """
    backends: Dict[str, int] = {}
    queries: Dict[str, int] = {}
    disagreements: List[str] = []
    for outcome in results:
        if outcome.metadata.get("backend_disagreement") is not None:
            disagreements.append(outcome.name)
        if outcome.result is None:
            continue
        stats = outcome.result.stats
        backend = getattr(stats, "backend", "omega")
        if backend != "omega":
            backends[backend] = backends.get(backend, 0) + 1
        if outcome.cache_hit or outcome.metadata.get("deduplicated"):
            continue
        for key, count in (stats.solver_queries or {}).items():
            queries[key] = queries.get(key, 0) + count
    if not backends and not queries and not disagreements:
        return None
    return {
        "backends": dict(sorted(backends.items())),
        "queries": dict(sorted(queries.items())),
        "disagreements": len(disagreements),
        "disagreement_jobs": disagreements,
    }


def write_report(
    target,
    results: Sequence[JobResult],
    cache_stats: Optional[CacheStats] = None,
) -> Dict[str, Any]:
    """Write the JSONL report to *target* (path or text file), returning the summary."""
    summary = aggregate_results(results, cache_stats)
    if hasattr(target, "write"):
        _write_rows(target, results, summary)
    else:
        with open(target, "w", encoding="utf-8") as handle:
            _write_rows(handle, results, summary)
    return summary


def write_result_row(handle: TextIO, outcome: JobResult) -> None:
    """Append one result row (used to stream a report while a batch runs)."""
    handle.write(json.dumps({"type": "result", **outcome.to_dict()}) + "\n")
    handle.flush()


def write_summary_row(handle: TextIO, summary: Dict[str, Any]) -> None:
    """Append the final summary row of a report."""
    handle.write(json.dumps({"type": "summary", **summary}) + "\n")
    handle.flush()


def _write_rows(handle: TextIO, results: Sequence[JobResult], summary: Dict[str, Any]) -> None:
    for outcome in results:
        write_result_row(handle, outcome)
    write_summary_row(handle, summary)


def read_report(path: str) -> Tuple[List[JobResult], Optional[Dict[str, Any]]]:
    """Read a JSONL report back into results + summary (inverse of writing)."""
    results: List[JobResult] = []
    summary: Optional[Dict[str, Any]] = None
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            kind = row.pop("type", "result")
            if kind == "summary":
                summary = row
            else:
                results.append(JobResult.from_dict(row))
    return results, summary


def _format_opcache_line(opcache: Dict[str, Any]) -> str:
    line = (
        f"opcache     : {opcache.get('hits', 0)} hit(s), "
        f"{opcache.get('hit_rate', 0.0):.1%} hit rate, "
        f"{opcache.get('intern_hits', 0)} intern hit(s)"
    )
    if "evictions" in opcache:
        line += f", {opcache['evictions']} eviction(s)"
    per_op = opcache.get("per_op")
    if per_op:
        parts = [
            f"{op} {counts['hits']}/{counts['hits'] + counts['misses']}"
            for op, counts in sorted(per_op.items())
        ]
        line += "\n  per-op    : " + ", ".join(parts)
    return line


def format_summary(summary: Dict[str, Any]) -> str:
    """A compact human readable rendering of the batch summary."""
    by_status = summary["by_status"]
    timing = summary["timing"]
    lines = [
        f"jobs        : {summary['total_jobs']} "
        f"(ok {by_status.get(JobStatus.OK, 0)}, error {by_status.get(JobStatus.ERROR, 0)}, "
        f"timeout {by_status.get(JobStatus.TIMEOUT, 0)})",
        f"verdicts    : {summary['equivalent']} equivalent, "
        f"{summary['not_equivalent']} not proven equivalent",
        f"cache       : {summary['cache_hits']} hit(s), "
        f"{summary['cache_hit_rate']:.1%} hit rate",
        _format_opcache_line(summary.get("opcache", {})),
        f"wall time   : total {timing['total_seconds']:.3f} s, "
        f"p50 {timing['p50_seconds']:.3f} s, p90 {timing['p90_seconds']:.3f} s, "
        f"max {timing['max_seconds']:.3f} s",
    ]
    scenarios = summary.get("scenarios")
    if scenarios:
        confusion = scenarios["confusion"]
        expected_eq = confusion["expected_equivalent"]
        expected_neq = confusion["expected_not_equivalent"]
        oracle = scenarios["oracle"]
        lines.append(
            f"scenarios   : {scenarios['labelled']} labelled | "
            f"expected-eq: {expected_eq['checker_equivalent']} proven, "
            f"{expected_eq['checker_not_equivalent']} unproven | "
            f"expected-neq: {expected_neq['checker_not_equivalent']} caught, "
            f"{expected_neq['checker_equivalent']} missed"
        )
        lines.append(
            f"oracle      : {oracle['equivalent']} agree-equivalent, "
            f"{oracle['not_equivalent']} distinguished, {oracle['unknown']} unknown"
        )
        if scenarios["soundness_errors"]:
            lines.append(
                "SOUNDNESS   : checker proved pairs the oracle refutes: "
                + ", ".join(scenarios["soundness_errors"])
            )
        if scenarios["label_disputes"]:
            lines.append(
                "LABEL BUGS  : oracle contradicts the expected label: "
                + ", ".join(scenarios["label_disputes"])
            )
        if scenarios["incompleteness"]:
            lines.append(
                "incomplete  : equivalent pairs the checker could not prove: "
                + ", ".join(scenarios["incompleteness"])
            )
        witness = scenarios.get("witness")
        if witness:
            lines.append(
                f"witness     : {witness['confirmed']}/{witness['diagnosed']} failures "
                f"confirmed by replay, {witness['bisection_hits']} bisection(s) named "
                "the mutation"
            )
            if witness["witness_errors"]:
                lines.append(
                    "WITNESS ERRS: oracle witness exists but replay found no divergence: "
                    + ", ".join(witness["witness_errors"])
                )
            if witness["bisection_misses"]:
                lines.append(
                    "BISECT MISS : bisection failed to name the injected mutation: "
                    + ", ".join(witness["bisection_misses"])
                )
    solvers = summary.get("solvers")
    if solvers:
        per_backend = ", ".join(
            f"{name} x{count}" for name, count in sorted(solvers.get("backends", {}).items())
        ) or "omega only"
        total_queries = sum(solvers.get("queries", {}).values())
        lines.append(f"solvers     : {per_backend} | {total_queries} backend quer(ies)")
        per_kind = solvers.get("queries", {})
        if per_kind:
            parts = [f"{key} {count}" for key, count in sorted(per_kind.items())]
            lines.append("  queries   : " + ", ".join(parts))
        if solvers.get("disagreements"):
            lines.append(
                "DISAGREEMENT: backends diverged on: "
                + ", ".join(solvers.get("disagreement_jobs", []))
            )
    if summary["expectation_mismatches"]:
        lines.append(
            "MISMATCHES  : " + ", ".join(summary["expectation_mismatches"])
        )
    if summary["failed_jobs"]:
        lines.append("failed jobs : " + ", ".join(summary["failed_jobs"]))
    return "\n".join(lines)


def _format_latency(name: str, snapshot: Optional[Dict[str, Any]]) -> Optional[str]:
    if not snapshot or not snapshot.get("count"):
        return None
    return (
        f"{name} n={snapshot['count']} "
        f"mean={snapshot.get('mean', 0.0):.4f}s max={snapshot.get('max', 0.0):.4f}s"
    )


def format_server_snapshot(snapshot: Dict[str, Any]) -> str:
    """Human-readable rendering of the server's deep ``stats`` snapshot.

    The display half of the shared snapshot schema (see
    :data:`SERVER_SNAPSHOT_VERSION`): ``repro-eqcheck stats`` and its
    ``--watch`` loop print exactly this.  Tolerant of missing keys so an
    older or newer daemon still renders usefully.
    """
    lines: List[str] = []
    lines.append(
        f"server      : pid {snapshot.get('pid', '?')} · protocol v{snapshot.get('protocol_version', '?')}"
        f" · up {snapshot.get('uptime_seconds', 0.0):.1f}s"
        + (" · DRAINING" if snapshot.get("draining") else "")
    )
    lines.append(
        f"requests    : {snapshot.get('requests', 0)} total, "
        f"{snapshot.get('rejected', 0)} rejected, {snapshot.get('errors', 0)} errors, "
        f"{snapshot.get('timeouts', 0)} timeouts | inflight {snapshot.get('inflight', 0)}, "
        f"connections {snapshot.get('connections', 0)}, workers {snapshot.get('workers', '?')}"
    )
    hit_rate = snapshot.get("cache_hit_rate", 0.0) or 0.0
    lines.append(
        f"checks      : {snapshot.get('checks_executed', 0)} executed, "
        f"{snapshot.get('cache_hits', 0)} verdict-cache hits ({hit_rate:.1%}), "
        f"{snapshot.get('dedup_hits', 0)} dedup"
    )
    latency = snapshot.get("latency") or {}
    latency_parts = [
        part
        for part in (
            _format_latency("request", latency.get("request_seconds")),
            _format_latency("check", latency.get("check_seconds")),
        )
        if part
    ]
    if latency_parts:
        lines.append("latency     : " + " | ".join(latency_parts))
    compiled = snapshot.get("compiled_store") or {}
    if compiled:
        lines.append(
            f"compiled    : {compiled.get('entries', 0)} entries, "
            f"{compiled.get('hits', 0)} hits / {compiled.get('misses', 0)} misses, "
            f"{compiled.get('evictions', 0)} evictions"
        )
    opcache = snapshot.get("opcache") or {}
    if opcache:
        line = (
            f"opcache     : {opcache.get('hits', 0)} hits / {opcache.get('misses', 0)} misses"
        )
        if opcache.get("disk_hits") or opcache.get("disk_writes"):
            line += (
                f" (disk: {opcache.get('disk_hits', 0)} hits, "
                f"{opcache.get('disk_writes', 0)} writes)"
            )
        lines.append(line)
    solver_queries = snapshot.get("solver_queries") or {}
    if solver_queries:
        parts = [f"{kind} {count}" for kind, count in sorted(solver_queries.items())]
        lines.append("solvers     : " + ", ".join(parts))
    slow = snapshot.get("slow") or {}
    if slow.get("threshold_seconds") is not None:
        lines.append(
            f"slow        : {slow.get('captured', 0)} captured over "
            f"{slow.get('threshold_seconds')}s (holding {slow.get('held', 0)}"
            f"/{slow.get('capacity', 0)})"
        )
    request_log = snapshot.get("request_log")
    if request_log:
        state = "DEGRADED to stderr" if request_log.get("degraded") else request_log.get("path")
        lines.append(
            f"log         : {state}, {request_log.get('events_written', 0)} events"
            f" ({request_log.get('events_dropped', 0)} below level)"
        )
    return "\n".join(lines)
