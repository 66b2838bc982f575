"""Experiment E9: scaling of the checking cost with ADDG size, and the tabling ablation.

Section 6.2 argues that the traversal is linear in the size of the larger
ADDG thanks to the tabling of established equivalences, and that the integer
set/relation operations stay cheap because the formulae remain small.  This
harness sweeps the number of stages of generated programs (which grows the
ADDG linearly), the length of associative chains of reads of one array
(commutative matching), times the check, and compares tabling on vs off on a
program with heavily shared sub-ADDGs.
"""

import random

import pytest

from repro.checker import check_equivalence
from repro.lang import ProgramBuilder, parse_program
from repro.presburger import opcache
from repro.transforms import apply_random_transforms, loop_reversal, loop_split
from repro.verifier import Verifier
from repro.workloads import CHAIN_SHAPES, RandomProgramGenerator, chain_source

from conftest import run_once

STAGE_SWEEP = [2, 4, 6, 8]
BREADTH_SWEEP = [2, 4, 8, 16]
CHAIN_SWEEP = [10, 20, 40, 80]


def _prepaid(original, transformed):
    """A session and both sides compiled, with ADDG and def-use report prepaid.

    Checking the returned compiled programs pays only the synchronized
    traversal, so the series time the engine alone.
    """
    verifier = Verifier()
    compiled = [verifier.compile(program) for program in (original, transformed)]
    for program in compiled:
        program.dataflow_issues, program.addg  # prepay both lazy frontend stages
    return verifier, compiled[0], compiled[1]


@pytest.mark.parametrize("stages", STAGE_SWEEP)
def bench_e9_scaling_with_pipeline_depth(benchmark, stages, paper_threshold_seconds):
    """Depth series: longer and longer chains of dependent stages.

    The cost grows faster than the ADDG size here, and not because of
    matching: the number of checked data-flow paths grows geometrically with
    the depth (4, 8, 10 and 428 paths at 2, 4, 6 and 8 stages).  The growth
    comes from trial compares that fail and are not tabled, so the same
    failing pair is re-explored on every meeting (ROADMAP direction 1).
    Matching the operands of one chain is linear; see the chain series below.
    """
    generator = RandomProgramGenerator(seed=17, stages=stages, size=48)
    original = generator.generate()
    transformed, _ = apply_random_transforms(original, random.Random(17), steps=3)
    verifier, original_compiled, transformed_compiled = _prepaid(original, transformed)
    result = run_once(benchmark, verifier.check, original_compiled, transformed_compiled, rounds=1)
    assert result.equivalent
    assert result.stats.engine_seconds < paper_threshold_seconds
    # record the ADDG size alongside the timing so the series can be plotted
    benchmark.extra_info["addg_size"] = max(
        original_compiled.addg.size(), transformed_compiled.addg.size()
    )
    benchmark.extra_info["paths"] = result.stats.paths_checked


def _chain_check(shape: str, length: int):
    """A *shape* chain of *length* reads of ``A`` against its reversal."""
    original = parse_program(chain_source(shape, range(length)))
    transformed = parse_program(chain_source(shape, reversed(range(length))))
    return original, transformed


def chain_sweep() -> dict:
    """``compare_calls`` of each chain shape against its reversal, per length.

    The reads pair by their dependency-mapping keys, one compare each, so
    every entry is ``length + 1``; trial-comparing every pair of reads
    would cost ``length**2 + 1``.
    """
    sweep = {}
    for shape in CHAIN_SHAPES:
        sweep[shape] = {}
        for length in CHAIN_SWEEP:
            result = check_equivalence(*_chain_check(shape, length))
            assert result.equivalent, (shape, length)
            sweep[shape][str(length)] = result.stats.compare_calls
    return sweep


@pytest.mark.parametrize("length", CHAIN_SWEEP)
@pytest.mark.parametrize("shape", CHAIN_SHAPES)
def bench_e9_scaling_with_chain_length(benchmark, shape, length, paper_threshold_seconds):
    """Chain series: n reads of one array against their reversal (FIR taps)."""
    original, transformed = _chain_check(shape, length)
    result = run_once(benchmark, check_equivalence, original, transformed, rounds=1)
    assert result.equivalent
    assert result.stats.compare_calls == length + 1
    assert result.stats.elapsed_seconds < paper_threshold_seconds
    benchmark.extra_info["compare_calls"] = result.stats.compare_calls


def _parallel_pipelines_program(width: int, size: int = 48):
    """A program with *width* independent two-stage pipelines feeding one output each.

    The ADDG grows linearly with *width* while the depth of every data-flow
    path stays constant — the regime in which the paper claims (and this
    reproduction confirms) that the traversal cost is linear in the size of
    the larger ADDG.
    """
    builder = ProgramBuilder(
        f"wide{width}",
        params=[("A", [4 * size]), ("B", [4 * size])] + [(f"out{i}", [size]) for i in range(width)],
        locals_=[(f"t{i}", [size]) for i in range(width)],
    )
    for i in range(width):
        with builder.loop("k", 0, size):
            builder.assign(
                f"d{i}",
                builder.at(f"t{i}", builder.v("k")),
                builder.add(builder.at("A", builder.add(builder.v("k"), i)), builder.at("B", builder.v("k"))),
            )
        with builder.loop("k", 0, size):
            builder.assign(
                f"o{i}",
                builder.at(f"out{i}", builder.v("k")),
                builder.add(builder.at(f"t{i}", builder.v("k")), builder.at("A", builder.mul(2, builder.v("k")))),
            )
    return builder.build()


@pytest.mark.parametrize("width", BREADTH_SWEEP)
def bench_e9_scaling_with_addg_breadth(benchmark, width, paper_threshold_seconds):
    """Breadth series: ADDG size grows linearly, path depth stays constant."""
    original = _parallel_pipelines_program(width)
    transformed = original
    for i in range(width):
        transformed = loop_reversal(transformed, f"d{i}")
        transformed = loop_split(transformed, f"o{i}", 24)
    verifier, original_compiled, transformed_compiled = _prepaid(original, transformed)
    result = run_once(benchmark, verifier.check, original_compiled, transformed_compiled, rounds=1)
    assert result.equivalent
    assert result.stats.engine_seconds < paper_threshold_seconds
    benchmark.extra_info["addg_size"] = max(
        original_compiled.addg.size(), transformed_compiled.addg.size()
    )
    benchmark.extra_info["paths"] = result.stats.paths_checked


def _shared_subdag_program(copies: int) -> str:
    """A program whose output re-reads the same intermediate array many times.

    Without tabling every use of ``t`` re-explores the same sub-ADDG; with
    tabling it is explored once (Section 6.2).
    """
    chain = " + ".join(f"t[k + {i}]" for i in range(copies))
    return f"""
    f(int A[], int B[], int C[])
    {{
        int k, t[96];
        for (k = 0; k < 96; k++)
    s1:     t[k] = (A[k] + B[k]) + (A[2*k] + B[k + 3]);
        for (k = 0; k < 32; k++)
    s2:     C[k] = {chain};
    }}
    """


@pytest.mark.parametrize("tabling", [True, False], ids=["tabling-on", "tabling-off"])
def bench_e9_tabling_ablation(benchmark, tabling):
    source = _shared_subdag_program(6)
    program = parse_program(source)
    result = run_once(
        benchmark, check_equivalence, program, program, tabling=tabling, rounds=1
    )
    assert result.equivalent
    benchmark.extra_info["table_hits"] = result.stats.table_hits
    benchmark.extra_info["compare_calls"] = result.stats.compare_calls


@pytest.mark.parametrize("cached", [True, False], ids=["opcache-on", "opcache-off"])
def bench_e9_opcache_ablation(benchmark, cached):
    """Before/after comparison of the Presburger operation cache on a full check.

    Complements the tabling ablation above: tabling reuses established
    equivalences between sub-ADDGs, while the operation cache reuses the
    Presburger operation results *inside* every comparison.  The two layers
    compound — this pair of runs quantifies the lower layer alone.
    """
    source = _shared_subdag_program(6)
    program = parse_program(source)

    def run():
        opcache.reset()
        if cached:
            return check_equivalence(program, program)
        with opcache.disabled():
            return check_equivalence(program, program)

    result = run_once(benchmark, run, rounds=1)
    assert result.equivalent
    benchmark.extra_info["opcache_hits"] = result.stats.opcache_hits
    benchmark.extra_info["intern_hits"] = result.stats.intern_hits


def bench_e9_opcache_reduces_work():
    """Non-timing assertion: the operation cache must fire on a real check.

    The cached and uncached runs must agree on the verdict and on every
    traversal-level counter (the cache may not change what work the engine
    *asks* for, only how often the Presburger core recomputes it), and the
    cached run must record actual hits.
    """
    source = _shared_subdag_program(6)
    program = parse_program(source)
    opcache.reset()
    cached_result = check_equivalence(program, program)
    with opcache.disabled():
        uncached_result = check_equivalence(program, program)
    assert cached_result.equivalent and uncached_result.equivalent
    assert cached_result.stats.opcache_hits > 0
    assert cached_result.stats.intern_hits > 0
    assert uncached_result.stats.opcache_hits == 0
    assert cached_result.stats.compare_calls == uncached_result.stats.compare_calls
    assert cached_result.stats.leaf_comparisons == uncached_result.stats.leaf_comparisons


def bench_e9_tabling_reduces_work():
    """Non-timing assertion: tabling must strictly reduce the number of leaf comparisons."""
    source = _shared_subdag_program(6)
    program = parse_program(source)
    with_tabling = check_equivalence(program, program, tabling=True)
    without_tabling = check_equivalence(program, program, tabling=False)
    assert with_tabling.equivalent and without_tabling.equivalent
    assert with_tabling.stats.table_hits > 0
    assert with_tabling.stats.leaf_comparisons <= without_tabling.stats.leaf_comparisons
    assert with_tabling.stats.compare_calls <= without_tabling.stats.compare_calls
