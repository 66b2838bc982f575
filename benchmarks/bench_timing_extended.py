"""Experiment E8: timing of the extended method (Section 6.2).

The paper reports "no significant degradation" over the basic method and
verification times "consistently ... less than 100 seconds" on codes whose
control complexity and ADDG sizes are comparable to real-life application
kernels.  This harness times the extended method over the DSP kernel suite
(all of which involve algebraic transformations except ``downsample``) and
asserts the qualitative claim: every kernel verifies, well under the bound.
"""

import pytest

from repro.checker import check_equivalence
from repro.verifier import Verifier
from repro.workloads import kernel_pair

from conftest import run_once

KERNEL_SIZES = {
    "fir": dict(n=64, taps=8),
    "conv2d": dict(rows=12, cols=12),
    "matvec": dict(rows=16, cols=8),
    "wavelet_lift": dict(n=128),
    "sad": dict(blocks=16, width=4),
    "prefix_sum": dict(n=256),
    "downsample": dict(n=128),
}


@pytest.mark.parametrize("name", sorted(KERNEL_SIZES))
def bench_e8_extended_method_on_kernel(benchmark, name, paper_threshold_seconds):
    pair = kernel_pair(name, **KERNEL_SIZES[name])
    result = run_once(benchmark, check_equivalence, pair.original, pair.transformed, rounds=1)
    assert result.equivalent, f"{name}:\n{result.summary()}"
    assert result.stats.elapsed_seconds < paper_threshold_seconds


def bench_e8_engine_only_via_compiled_programs(benchmark, paper_threshold_seconds):
    """Time the engine alone through the session API: compile once, check warm.

    The :class:`~repro.verifier.Verifier` compiles both sides outside the
    measured region, so the benchmarked call pays only the synchronized
    traversal — ``frontend_seconds`` must be (close to) zero.
    """
    pair = kernel_pair("conv2d", rows=12, cols=12)
    verifier = Verifier()
    for program in (pair.original, pair.transformed):
        compiled = verifier.compile(program)
        compiled.dataflow_issues, compiled.addg  # prepay both lazy frontend stages
    result = run_once(benchmark, verifier.check, pair.original, pair.transformed, rounds=1)
    assert result.equivalent
    assert result.stats.engine_seconds < paper_threshold_seconds
    # The frontend was prepaid by compile(); the check itself only pays the
    # cache lookup.
    assert result.stats.frontend_seconds < result.stats.engine_seconds
    benchmark.extra_info["engine_seconds"] = result.stats.engine_seconds


def bench_e8_whole_kernel_suite(benchmark, paper_threshold_seconds):
    """One run over the entire suite: the paper's 'consistently below 100 s' claim."""

    def run_suite():
        results = {}
        for name, sizes in KERNEL_SIZES.items():
            pair = kernel_pair(name, **sizes)
            results[name] = check_equivalence(pair.original, pair.transformed)
        return results

    results = run_once(benchmark, run_suite, rounds=1)
    assert all(result.equivalent for result in results.values())
    assert all(
        result.stats.elapsed_seconds < paper_threshold_seconds for result in results.values()
    )
