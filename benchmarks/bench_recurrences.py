"""Experiment E12: cycles (recurrences) in the ADDG.

The paper's closing remark of Section 5.2 states that cycles are handled via
the transitive closure of the cycle's dependence mapping.  This reproduction
discharges a cycle by induction instead: the checker assumes the
correspondence of the compared array pair while the cycle is re-entered.
This harness times the end-to-end verification of recurrence kernels,
checking that the cost does not grow with the number of loop iterations (the
recurrence is *not* unrolled).
"""

import pytest

from repro.checker import check_equivalence
from repro.workloads import kernel_pair

from conftest import run_once


@pytest.mark.parametrize("size", [64, 512, 4096])
def bench_e12_prefix_sum_size_independence(benchmark, size, paper_threshold_seconds):
    pair = kernel_pair("prefix_sum", n=size)
    result = run_once(benchmark, check_equivalence, pair.original, pair.transformed, rounds=1)
    assert result.equivalent
    assert result.stats.assumption_uses >= 1
    assert result.stats.elapsed_seconds < paper_threshold_seconds
    benchmark.extra_info["iterations"] = size
    benchmark.extra_info["compare_calls"] = result.stats.compare_calls


@pytest.mark.parametrize("name,params", [("fir", dict(n=48, taps=6)), ("matvec", dict(rows=12, cols=8)), ("sad", dict(blocks=12, width=4))])
def bench_e12_accumulation_kernels(benchmark, name, params, paper_threshold_seconds):
    pair = kernel_pair(name, **params)
    result = run_once(benchmark, check_equivalence, pair.original, pair.transformed, rounds=1)
    assert result.equivalent
    assert result.stats.elapsed_seconds < paper_threshold_seconds
