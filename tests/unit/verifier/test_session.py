"""Unit tests: the ``Verifier`` session — compile cache, observers, shims.

The cross-suite property (``CompiledProgram`` reuse returns results
identical to one-shot checks over the kernel registry) lives in
``tests/integration/test_verifier_session.py``; this module covers the
session mechanics on small programs.
"""

import pytest

from repro.checker import DiagnosticKind, check_equivalence
from repro.lang import parse_program
from repro.lang.errors import LangError
from repro.verifier import (
    CallbackObserver,
    CheckObserver,
    CheckOptions,
    CompiledProgram,
    Verifier,
    normalized_program_text,
)

ORIGINAL = """
#define N 8
f(int A[], int B[])
{
    int k;
    for (k = 0; k < N; k++)
s1:     B[k] = A[k] + A[k+1];
}
"""

TRANSFORMED_EQ = """
#define N 8
f(int A[], int B[])
{
    int k;
    for (k = N-1; k >= 0; k--)
t1:     B[k] = A[k+1] + A[k];
}
"""

TRANSFORMED_BAD = """
#define N 8
f(int A[], int B[])
{
    int k;
    for (k = 0; k < N; k++)
t1:     B[k] = A[k] + A[k+2];
}
"""

# Two outputs, one of them broken: exercises per-output observer events.
TWO_OUT_A = """
f(int A[], int C[], int D[]) {
    int k;
    for (k = 0; k < 8; k++) s1: C[k] = A[k] + 1;
    for (k = 0; k < 8; k++) s2: D[k] = A[k] + 2;
}
"""

TWO_OUT_B = """
f(int A[], int C[], int D[]) {
    int k;
    for (k = 0; k < 8; k++) t1: C[k] = A[k] + 1;
    for (k = 0; k < 8; k++) t2: D[k] = A[k] + 3;
}
"""

NOT_SINGLE_ASSIGNMENT = """
f(int A[], int B[]) {
    int k;
    for (k = 0; k < 8; k++) s1: B[0] = A[k];
}
"""


class TestCompile:
    def test_compile_source_text(self):
        verifier = Verifier()
        compiled = verifier.compile(ORIGINAL)
        assert isinstance(compiled, CompiledProgram)
        assert compiled.dataflow_issues == ()
        assert "B" in compiled.outputs

    def test_compile_parsed_program(self):
        program = parse_program(ORIGINAL)
        compiled = Verifier().compile(program)
        assert compiled.program is program

    def test_compile_is_cached_by_text(self):
        verifier = Verifier()
        first = verifier.compile(ORIGINAL)
        second = verifier.compile(ORIGINAL)
        assert first is second
        assert verifier.compile_hits == 1
        assert verifier.compile_misses == 1

    def test_compile_is_cached_by_program_identity(self):
        verifier = Verifier()
        program = parse_program(ORIGINAL)
        assert verifier.compile(program) is verifier.compile(program)

    def test_compiled_program_passes_through(self):
        verifier = Verifier()
        compiled = verifier.compile(ORIGINAL)
        assert verifier.compile(compiled) is compiled

    def test_clear_cache(self):
        verifier = Verifier()
        first = verifier.compile(ORIGINAL)
        verifier.clear_cache()
        assert verifier.compile(ORIGINAL) is not first

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            Verifier().compile(42)

    def test_dataflow_issues_reported(self):
        compiled = Verifier().compile(NOT_SINGLE_ASSIGNMENT)
        assert compiled.dataflow_issues

    def test_normalized_text_ignores_whitespace(self):
        reformatted = ORIGINAL.replace("    ", "  ")
        verifier = Verifier()
        texts = [normalized_program_text(verifier.compile(s).program) for s in (ORIGINAL, reformatted)]
        assert texts[0] == texts[1]


class TestCheck:
    def test_check_matches_one_shot_shim(self):
        verifier = Verifier()
        session = verifier.check(ORIGINAL, TRANSFORMED_EQ)
        one_shot = check_equivalence(ORIGINAL, TRANSFORMED_EQ)
        assert session.equivalent is one_shot.equivalent is True
        assert [r.to_dict() for r in session.outputs] == [r.to_dict() for r in one_shot.outputs]

    def test_check_uses_session_default_options(self):
        # + is commutative only under the extended method; a basic-method
        # session must reject the reordered operands.
        verifier = Verifier(options=CheckOptions(method="basic"))
        assert not verifier.check(ORIGINAL, TRANSFORMED_EQ).equivalent

    def test_per_call_options_override_session_default(self):
        verifier = Verifier(options=CheckOptions(method="basic"))
        result = verifier.check(ORIGINAL, TRANSFORMED_EQ, options=CheckOptions())
        assert result.equivalent

    def test_reuse_returns_identical_results(self):
        verifier = Verifier()
        first = verifier.check(ORIGINAL, TRANSFORMED_BAD)
        second = verifier.check(ORIGINAL, TRANSFORMED_BAD)
        assert first.to_dict()["outputs"] == second.to_dict()["outputs"]
        assert first.to_dict()["diagnostics"] == second.to_dict()["diagnostics"]
        # the second check found everything compiled already
        assert second.stats.frontend_seconds < first.stats.frontend_seconds or (
            second.stats.frontend_seconds == 0.0
        )

    def test_precondition_failure_short_circuits(self):
        result = Verifier().check(ORIGINAL, NOT_SINGLE_ASSIGNMENT)
        assert not result.equivalent
        assert result.diagnostics_of_kind(DiagnosticKind.PRECONDITION)
        assert result.outputs == []
        assert result.stats.engine_seconds == 0.0

    def test_prepaid_compiled_programs_pay_only_the_traversal(self):
        compiler = Verifier()
        original = compiler.compile(ORIGINAL)
        transformed = compiler.compile(TRANSFORMED_EQ)
        for compiled in (original, transformed):
            assert compiled.addg is not None
            assert compiled.dataflow_issues == ()
        warm = Verifier().check(original, transformed)
        cold = Verifier().check(ORIGINAL, TRANSFORMED_EQ)
        assert warm.equivalent and cold.equivalent
        assert warm.stats.frontend_seconds < warm.stats.engine_seconds
        assert warm.stats.compare_calls == cold.stats.compare_calls
        assert warm.stats.paths_checked == cold.stats.paths_checked

    def test_non_ascii_digit_is_a_frontend_error(self):
        """"²" is a digit to ``str.isdigit`` but not to ``int``: the lexer
        rejects it, so the check raises a ``LangError``, not a ``ValueError``."""
        source = ORIGINAL.replace("A[k] + A[k+1]", "A[k] + \u00b2")
        with pytest.raises(LangError, match="unexpected character"):
            Verifier().check(source, ORIGINAL)

    def test_stats_split_sums_to_elapsed(self):
        result = Verifier().check(ORIGINAL, TRANSFORMED_EQ)
        assert result.stats.frontend_seconds > 0
        assert result.stats.engine_seconds > 0
        assert result.stats.elapsed_seconds == pytest.approx(
            result.stats.frontend_seconds + result.stats.engine_seconds
        )


class TestObservers:
    def test_output_checked_fires_once_per_output(self):
        reports = []
        result = Verifier().check(
            TWO_OUT_A, TWO_OUT_B, observer=CallbackObserver(on_output_checked=reports.append)
        )
        assert [r.array for r in reports] == [r.array for r in result.outputs]
        assert len(reports) == 2
        assert {r.array: r.equivalent for r in reports} == {"C": True, "D": False}

    def test_output_missing_from_both_sides_reports_once(self):
        # A focused request for an array neither program produces keeps one
        # diagnostic per side but must not double-count the output.
        reports = []
        result = Verifier().check(
            ORIGINAL,
            TRANSFORMED_EQ,
            options=CheckOptions(outputs=("Z",)),
            observer=CallbackObserver(on_output_checked=reports.append),
        )
        assert not result.equivalent
        assert [(r.array, r.equivalent) for r in result.outputs] == [("Z", False)]
        assert [(r.array, r.equivalent) for r in reports] == [("Z", False)]
        assert len(result.diagnostics_of_kind(DiagnosticKind.OUTPUT_MISSING)) == 2

    def test_repeated_output_request_checks_once(self):
        reports = []
        result = Verifier().check(
            ORIGINAL,
            TRANSFORMED_EQ,
            options=CheckOptions(outputs=("B", "B")),
            observer=CallbackObserver(on_output_checked=reports.append),
        )
        assert result.equivalent
        assert [r.array for r in result.outputs] == ["B"]
        assert [r.array for r in reports] == ["B"]

    def test_missing_outputs_also_get_report_events(self):
        # B exists only in the original; D only in the transformed program.
        other = TRANSFORMED_EQ.replace("B[", "D[").replace("int B[]", "int D[]")
        reports = []
        result = Verifier().check(
            ORIGINAL, other, observer=CallbackObserver(on_output_checked=reports.append)
        )
        assert not result.equivalent
        assert {r.array for r in reports} == {"B", "D"}
        assert all(not r.equivalent for r in reports)
        assert [r.to_dict() for r in reports] == [r.to_dict() for r in result.outputs]

    def test_diagnostics_streamed_exactly_once(self):
        diagnostics = []
        result = Verifier().check(
            TWO_OUT_A, TWO_OUT_B, observer=CallbackObserver(on_diagnostic=diagnostics.append)
        )
        assert [id(d) for d in diagnostics] == [id(d) for d in result.diagnostics]

    def test_stats_fire_once_with_final_values(self):
        captured = []
        result = Verifier().check(
            ORIGINAL, TRANSFORMED_EQ, observer=CallbackObserver(on_stats=captured.append)
        )
        assert len(captured) == 1
        assert captured[0] is result.stats
        assert captured[0].elapsed_seconds == pytest.approx(
            captured[0].frontend_seconds + captured[0].engine_seconds
        )

    def test_session_observers_see_every_check(self):
        events = []
        verifier = Verifier(observers=[CallbackObserver(on_stats=events.append)])
        verifier.check(ORIGINAL, TRANSFORMED_EQ)
        verifier.check(ORIGINAL, TRANSFORMED_BAD)
        assert len(events) == 2

    def test_add_observer_and_subclass_protocol(self):
        class Recorder(CheckObserver):
            def __init__(self):
                self.outputs = []
                self.stats = []

            def on_output_checked(self, report):
                self.outputs.append(report.array)

            def on_stats(self, stats):
                self.stats.append(stats)

        recorder = Recorder()
        verifier = Verifier()
        verifier.add_observer(recorder)
        verifier.check(ORIGINAL, TRANSFORMED_EQ)
        assert recorder.outputs == ["B"]
        assert len(recorder.stats) == 1

    def test_observer_events_on_precondition_failure(self):
        diagnostics = []
        stats = []
        Verifier().check(
            ORIGINAL,
            NOT_SINGLE_ASSIGNMENT,
            observer=CallbackObserver(on_diagnostic=diagnostics.append, on_stats=stats.append),
        )
        assert diagnostics and diagnostics[0].kind == DiagnosticKind.PRECONDITION
        assert len(stats) == 1


class TestShims:
    def test_check_equivalence_kwargs_still_work(self):
        result = check_equivalence(
            ORIGINAL,
            TRANSFORMED_EQ,
            method="extended",
            outputs=["B"],
            correspondences=[],
            tabling=True,
            check_preconditions=True,
        )
        assert result.equivalent

    def test_check_equivalence_missing_output_reports(self):
        # An output array missing on one side must produce a non-equivalent
        # OutputReport, not only a diagnostic.
        other = TRANSFORMED_EQ.replace("B[", "D[").replace("int B[]", "int D[]")
        result = check_equivalence(ORIGINAL, other)
        assert not result.equivalent
        assert {r.array for r in result.outputs} == {"B", "D"}
        assert all(not r.equivalent for r in result.outputs)
        assert len(result.diagnostics_of_kind(DiagnosticKind.OUTPUT_MISSING)) == 2
