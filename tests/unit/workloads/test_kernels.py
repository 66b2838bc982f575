"""Unit tests for the DSP kernel suite (structure + interpreter agreement at small sizes)."""

import pytest

from repro.lang import check_program_class, outputs_equal, random_input_provider, run_program
from repro.analysis import ProgramGeometry, check_dataflow
from repro.workloads import KERNEL_REGISTRY, KernelPair, kernel_names, kernel_pair

SMALL_SIZES = {
    "fir": dict(n=10, taps=3),
    "conv2d": dict(rows=5, cols=5),
    "matvec": dict(rows=5, cols=4),
    "wavelet_lift": dict(n=12),
    "sad": dict(blocks=3, width=3),
    "prefix_sum": dict(n=8),
    "downsample": dict(n=12),
}


class TestRegistry:
    def test_registry_names(self):
        assert set(kernel_names()) == set(KERNEL_REGISTRY)
        assert len(kernel_names()) >= 7

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            kernel_pair("does_not_exist")

    def test_metadata_fields(self):
        pair = kernel_pair("fir", **SMALL_SIZES["fir"])
        assert isinstance(pair, KernelPair)
        assert pair.name == "fir"
        assert pair.description
        assert pair.uses_recurrence

    def test_algebraic_and_recurrence_flags_cover_both_values(self):
        pairs = [kernel_pair(name, **SMALL_SIZES[name]) for name in kernel_names()]
        assert any(p.uses_recurrence for p in pairs)
        assert any(not p.uses_recurrence for p in pairs)
        assert any(not p.uses_algebraic for p in pairs)


@pytest.mark.parametrize("name", sorted(SMALL_SIZES))
class TestKernelPairs:
    def test_programs_are_in_the_allowed_class(self, name):
        pair = kernel_pair(name, **SMALL_SIZES[name])
        assert check_program_class(pair.original) == []
        assert check_program_class(pair.transformed) == []

    def test_dataflow_prerequisites_hold(self, name):
        pair = kernel_pair(name, **SMALL_SIZES[name])
        assert check_dataflow(ProgramGeometry(pair.original)) == []
        assert check_dataflow(ProgramGeometry(pair.transformed)) == []

    def test_interpreter_agreement_on_random_inputs(self, name):
        pair = kernel_pair(name, **SMALL_SIZES[name])
        for seed in (0, 1, 2):
            provider = random_input_provider(seed)
            assert outputs_equal(
                run_program(pair.original, provider), run_program(pair.transformed, provider)
            )

    def test_transformed_is_structurally_different(self, name):
        pair = kernel_pair(name, **SMALL_SIZES[name])
        assert pair.original != pair.transformed
