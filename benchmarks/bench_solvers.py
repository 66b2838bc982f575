"""Decision-backend comparison: the omega core vs the crosscheck.

PR 8 second-sources the Presburger verdicts behind pluggable backends
(:mod:`repro.solvers`).  These benchmarks measure what the differential
``crosscheck`` costs — the omega core plus the enumeration partner
(:class:`~repro.solvers.enum_backend.EnumBackend`, which shares no code with
omega) on every query — on a registered kernel check and on a raw
decision-query corpus, and how often the partner abstains instead of
confirming: over every registered kernel and the ``fuzz --smoke`` corpus.

The committed trajectory snapshot lives in ``BENCH_solvers.json``
(regenerate with ``python tools/bench_snapshot.py --suite solvers``); its
deterministic half — verdicts and agreement / abstention / disagreement
counts — is the CI drift gate, the timing half records the overhead story.
"""

import contextlib
import io
import json
import os
import tempfile

from repro.presburger import opcache, parse_set
from repro.solvers import CrossCheckBackend, OmegaBackend
from repro.solvers.enum_backend import EnumBackend
from repro.verifier import Verifier
from repro.verifier.options import CheckOptions
from repro.workloads import SMALL_KERNEL_PARAMS, kernel_names, kernel_pair

from conftest import run_once

BENCH_KERNEL = "fir"

QUERY_CORPUS = [
    "{ [i] : 0 <= i < 64 }",
    "{ [i] : exists a : i = 2a and 0 <= i < 64 }",
    "{ [i] : exists a : 3a <= i and i <= 3a + 1 and 0 <= i < 48 }",
    "{ [i, j] : 0 <= i < 16 and 0 <= j < 16 and i <= j }",
]

OUTCOMES = ("agreements", "abstentions", "disagreements")


def check_kernel(backend: str, name: str = BENCH_KERNEL):
    """One cold kernel check under *backend*; returns the result."""
    pair = kernel_pair(name, **SMALL_KERNEL_PARAMS.get(name, {}))
    opcache.reset()
    return Verifier(options=CheckOptions(backend=backend)).check(pair.original, pair.transformed)


def crosscheck_outcomes(queries) -> dict:
    """The ``crosscheck.*`` counters of a ``solver_queries`` mapping."""
    return {outcome: queries.get(f"crosscheck.{outcome}", 0) for outcome in OUTCOMES}


def kernel_sweep() -> dict:
    """Crosscheck outcomes of every registered kernel, checked cold."""
    return {
        name: crosscheck_outcomes(check_kernel("crosscheck", name).stats.solver_queries)
        for name in kernel_names()
    }


def fuzz_smoke() -> dict:
    """Crosscheck outcomes of ``fuzz --smoke --backend crosscheck``."""
    from repro.cli import main

    with tempfile.TemporaryDirectory() as scratch:
        report = os.path.join(scratch, "report.jsonl")
        with contextlib.redirect_stdout(io.StringIO()):
            main(["fuzz", "--smoke", "--backend", "crosscheck", "--quiet", "--report", report])
        with open(report, "r", encoding="utf-8") as handle:
            rows = [json.loads(line) for line in handle]
    solvers = next(row for row in rows if row.get("type") == "summary")["solvers"]
    outcomes = crosscheck_outcomes(solvers["queries"])
    # A job aborted by a disagreement carries no stats; count it by job.
    outcomes["disagreements"] += solvers["disagreements"]
    return outcomes


def run_query_corpus(backend):
    """All pairwise binary queries of the corpus against *backend*."""
    sets = [parse_set(text) for text in QUERY_CORPUS]
    verdicts = []
    for a in sets:
        for b in sets:
            if a.arity != b.arity:
                continue
            verdicts.append(backend.is_subset(a.conjuncts, b.conjuncts))
            verdicts.append(backend.is_disjoint(a.conjuncts, b.conjuncts))
    return verdicts


# --------------------------------------------------------------------------- #
# pytest-benchmark entry points
# --------------------------------------------------------------------------- #
def bench_kernel_check_omega(benchmark):
    result = run_once(benchmark, check_kernel, "omega", rounds=3)
    assert result.equivalent


def bench_kernel_check_crosscheck(benchmark):
    result = run_once(benchmark, check_kernel, "crosscheck", rounds=3)
    assert result.equivalent
    assert result.stats.solver_queries.get("crosscheck.disagreements", 0) == 0


def bench_query_corpus_omega(benchmark):
    verdicts = run_once(benchmark, run_query_corpus, OmegaBackend(), rounds=3)
    assert any(verdicts)


def bench_query_corpus_enum(benchmark):
    verdicts = run_once(benchmark, run_query_corpus, EnumBackend(), rounds=3)
    assert verdicts == run_query_corpus(OmegaBackend())


def bench_query_corpus_crosscheck(benchmark):
    opcache.reset()
    backend = CrossCheckBackend(OmegaBackend(), EnumBackend())
    verdicts = run_once(benchmark, run_query_corpus, backend, rounds=3)
    assert any(verdicts)
    assert "crosscheck.disagreements" not in backend.query_counts
