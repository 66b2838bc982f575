"""Unit tests for the random program / pair generator."""

import pytest

from repro.analysis import ProgramGeometry, check_dataflow
from repro.lang import check_program_class, outputs_equal, random_input_provider, run_program
from repro.workloads import GeneratedPair, RandomProgramGenerator


class TestGeneration:
    @pytest.mark.parametrize("seed", range(5))
    def test_generated_programs_are_well_formed(self, seed):
        generator = RandomProgramGenerator(seed=seed, stages=4, size=24)
        program = generator.generate()
        assert check_program_class(program) == []
        assert check_dataflow(ProgramGeometry(program)) == []
        assert program.output_arrays() == ("out",)

    def test_generation_is_deterministic(self):
        first = RandomProgramGenerator(seed=3, stages=3, size=16).generate()
        second = RandomProgramGenerator(seed=3, stages=3, size=16).generate()
        assert first == second

    def test_different_seeds_differ(self):
        first = RandomProgramGenerator(seed=1, stages=3, size=16).generate()
        second = RandomProgramGenerator(seed=2, stages=3, size=16).generate()
        assert first != second

    def test_stage_count_controls_statements(self):
        small = RandomProgramGenerator(seed=0, stages=2, size=16).generate()
        large = RandomProgramGenerator(seed=0, stages=6, size=16).generate()
        assert len(large.assignments()) > len(small.assignments())

    def test_generated_programs_are_executable(self):
        program = RandomProgramGenerator(seed=4, stages=4, size=16).generate()
        outputs = run_program(program, random_input_provider(0))
        assert len(outputs["out"]) == 16


class TestGeneratedPairs:
    @pytest.mark.parametrize("seed", range(4))
    def test_equivalent_pairs_agree_on_inputs(self, seed):
        generator = RandomProgramGenerator(seed=seed, stages=3, size=20)
        pair = generator.generate_pair(transform_steps=3)
        assert isinstance(pair, GeneratedPair)
        assert pair.expected_equivalent
        provider = random_input_provider(seed + 100)
        assert outputs_equal(
            run_program(pair.original, provider), run_program(pair.transformed, provider)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_error_injected_pairs_disagree(self, seed):
        generator = RandomProgramGenerator(seed=seed, stages=3, size=20)
        pair = generator.generate_pair(transform_steps=2, inject_error=True)
        assert not pair.expected_equivalent
        assert pair.mutation is not None
        provider = random_input_provider(seed + 7)
        try:
            same = outputs_equal(
                run_program(pair.original, provider), run_program(pair.transformed, provider)
            )
        except Exception:
            same = False  # e.g. the mutation made the program read undefined elements
        assert not same

    def test_transform_steps_recorded(self):
        pair = RandomProgramGenerator(seed=9, stages=3, size=20).generate_pair(transform_steps=3)
        assert pair.steps
        assert all(step.name for step in pair.steps)

    def test_basic_only_pairs(self):
        pair = RandomProgramGenerator(seed=11, stages=3, size=20).generate_pair(
            transform_steps=3, allow_algebraic=False
        )
        assert all(step.name != "algebraic-reassociation" for step in pair.steps)
