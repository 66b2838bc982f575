"""Integration test E11: the verification scheme of Fig. 6 end to end.

The flow is: def-use check on both programs, ADDG extraction, equivalence
checking with optional focused-checking inputs.  These tests drive the flow
through both the Python API and the command-line tool, including the
transform-then-verify loop a designer would use.
"""

import random

import pytest

from repro.checker import DiagnosticKind, check_equivalence
from repro.cli import main
from repro.lang import parse_program, program_to_text
from repro.transforms import apply_random_transforms, perturb_read_index
from repro.workloads import RandomProgramGenerator, fig1_program, kernel_pair


class TestDefUseGate:
    def test_badly_scheduled_transformed_program_is_gated(self):
        original = fig1_program("a", 64)
        # Reverse the order of the loops of (a): s3 now reads tmp/buf before
        # they are written -> the def-use checker must reject the program
        # before equivalence checking is attempted.
        broken = parse_program(
            """
            #define N 64
            foo(int A[], int B[], int C[])
            {
                int k, tmp[N], buf[2*N];
                for(k=0; k<N; k++)
            s3:     C[k] = tmp[k] + buf[2*k];
                for(k=0; k<N; k++)
            s1:     tmp[k] = B[2*k] + B[k];
                for(k=N; k>=1; k--)
            s2:     buf[2*k-2] = A[2*k-2] + A[k-1];
            }
            """
        )
        result = check_equivalence(original, broken)
        assert not result.equivalent
        assert result.diagnostics_of_kind(DiagnosticKind.PRECONDITION)
        assert result.outputs == []  # the traversal never ran

    def test_gate_can_be_bypassed_explicitly(self):
        original = fig1_program("a", 64)
        result = check_equivalence(original, original, check_preconditions=False)
        assert result.equivalent


class TestTransformThenVerifyLoop:
    @pytest.mark.parametrize("seed", range(3))
    def test_generated_pipeline_roundtrip(self, seed):
        generator = RandomProgramGenerator(seed=seed, stages=4, size=32)
        original = generator.generate()
        transformed, steps = apply_random_transforms(original, random.Random(seed), steps=4)
        result = check_equivalence(original, transformed)
        assert result.equivalent, (
            f"seed {seed}, steps {[s.name for s in steps]}:\n{result.summary()}"
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_pipeline_plus_error_is_rejected(self, seed):
        generator = RandomProgramGenerator(seed=seed, stages=4, size=32)
        pair = generator.generate_pair(transform_steps=3, inject_error=True)
        result = check_equivalence(pair.original, pair.transformed, check_preconditions=False)
        assert not result.equivalent, f"undetected {pair.mutation}"

    def test_printed_source_roundtrips_through_the_checker(self):
        pair = kernel_pair("downsample", n=32)
        regenerated = parse_program(program_to_text(pair.transformed))
        assert check_equivalence(pair.original, regenerated).equivalent


class TestFocusedChecking:
    def test_output_subset(self):
        pair = kernel_pair("wavelet_lift", n=32)
        broken, _ = perturb_read_index(pair.transformed, "m3", occurrence=1, delta=1)
        full = check_equivalence(pair.original, broken)
        assert not full.equivalent
        focused = check_equivalence(pair.original, broken, outputs=["d"])
        assert focused.equivalent  # the error only affects output 's'

    def test_intermediate_correspondence_cut(self):
        original = fig1_program("a", 128)
        transformed = fig1_program("b", 128)
        result = check_equivalence(original, transformed, correspondences=[("tmp", "tmp")])
        assert result.equivalent

    def test_wrong_correspondence_is_reported(self):
        original = fig1_program("a", 128)
        transformed = fig1_program("b", 128)
        result = check_equivalence(original, transformed, correspondences=[("tmp", "buf")])
        assert not result.equivalent


class TestCommandLineFlow(object):
    def test_cli_reports_diagnostics_for_the_paper_error(self, tmp_path, capsys):
        paths = {}
        for version in ("a", "d"):
            text = fig1_program(version, 64)
            path = tmp_path / f"{version}.c"
            path.write_text(program_to_text(text))
            paths[version] = str(path)
        status = main(["check", paths["a"], paths["d"]])
        captured = capsys.readouterr().out
        assert status == 1
        assert "mapping-mismatch" in captured
        assert "buf" in captured
