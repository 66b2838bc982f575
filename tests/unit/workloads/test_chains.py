"""Unit tests for the matching workloads: chains and k×k convolutions."""

import pytest

from repro.analysis import ProgramGeometry, check_dataflow
from repro.lang import outputs_equal, parse_program, random_input_provider, run_program
from repro.workloads import conv_source


class TestConvSource:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rewrite_computes_the_same_outputs(self, k):
        original = parse_program(conv_source(k, domain=4))
        transformed = parse_program(conv_source(k, transformed=True, domain=4))
        assert check_dataflow(ProgramGeometry(original)) == [] and check_dataflow(ProgramGeometry(transformed)) == []
        for seed in (0, 1):
            provider = random_input_provider(seed)
            assert outputs_equal(run_program(original, provider), run_program(transformed, provider))

    def test_original_is_one_flat_sum_of_k_squared_products(self):
        source = conv_source(3)
        assert source.count(" * ") == 9
        assert source.count("out[i][j] =") == 1
        assert "row" not in source

    def test_rewrite_sums_one_temporary_per_kernel_row(self):
        source = conv_source(3, transformed=True)
        assert "d3: out[i][j] = row2[i][j] + row1[i][j] + row0[i][j];" in source
        assert source.index("for (j = 0") < source.index("for (i = 0")
