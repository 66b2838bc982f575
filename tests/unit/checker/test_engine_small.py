"""Unit tests for the checker engine on small hand-written programs.

These tests exercise individual behaviours of the synchronized traversal
(positional comparison, flattening, matching, piecewise definitions, constants,
uninterpreted operators, focused checking, tabling) on programs small enough
that the expected verdict is obvious.
"""

import pytest

from repro.checker import (
    DiagnosticKind,
    OperatorRegistry,
    check_equivalence,
    default_registry,
    empty_registry,
)
from repro.lang import parse_program


def check(source_a, source_b, **kwargs):
    return check_equivalence(parse_program(source_a), parse_program(source_b), **kwargs)


COPY = "f(int A[], int C[]) {{ int k; for(k=0;k<8;k++) s1: C[k] = {rhs}; }}"


class TestLeafLevel:
    def test_identical_programs(self):
        src = COPY.format(rhs="A[k]")
        result = check(src, src)
        assert result.equivalent

    def test_different_input_array(self):
        a = "f(int A[], int B[], int C[]) { int k; for(k=0;k<8;k++) s1: C[k] = A[k]; }"
        b = "f(int A[], int B[], int C[]) { int k; for(k=0;k<8;k++) s1: C[k] = B[k]; }"
        result = check(a, b)
        assert not result.equivalent
        assert result.diagnostics_of_kind(DiagnosticKind.LEAF_MISMATCH)

    def test_different_access_function(self):
        a = COPY.format(rhs="A[k]")
        b = COPY.format(rhs="A[k + 1]")
        result = check(a, b)
        assert not result.equivalent
        mismatches = result.diagnostics_of_kind(DiagnosticKind.MAPPING_MISMATCH)
        assert mismatches
        assert "A" in (mismatches[0].original_arrays + mismatches[0].transformed_arrays)

    def test_constant_leaves(self):
        a = COPY.format(rhs="A[k] + 2")
        assert check(a, a).equivalent
        b = COPY.format(rhs="A[k] + 3")
        result = check(a, b)
        assert not result.equivalent
        # The differing constants surface either as a direct constant mismatch
        # (positional comparison) or as a signature mismatch (commutative matching).
        assert result.diagnostics_of_kind(DiagnosticKind.CONSTANT_MISMATCH) or result.diagnostics_of_kind(
            DiagnosticKind.SIGNATURE_MISMATCH
        )

    def test_loop_reversal_is_equivalent(self):
        a = COPY.format(rhs="A[k]")
        b = "f(int A[], int C[]) { int k; for(k=7;k>=0;k--) s1: C[k] = A[k]; }"
        assert check(a, b).equivalent

    def test_output_domain_mismatch(self):
        a = COPY.format(rhs="A[k]")
        b = "f(int A[], int C[]) { int k; for(k=0;k<6;k++) s1: C[k] = A[k]; }"
        result = check(a, b)
        assert not result.equivalent
        assert result.diagnostics_of_kind(DiagnosticKind.DOMAIN_MISMATCH)

    def test_missing_output(self):
        a = COPY.format(rhs="A[k]")
        b = "f(int A[], int D[]) { int k; for(k=0;k<8;k++) s1: D[k] = A[k]; }"
        result = check(a, b)
        assert not result.equivalent
        assert result.diagnostics_of_kind(DiagnosticKind.OUTPUT_MISSING)


class TestOperators:
    def test_operator_mismatch(self):
        a = COPY.format(rhs="A[k] + A[k+1]")
        b = COPY.format(rhs="A[k] - A[k+1]")
        result = check(a, b)
        assert not result.equivalent
        assert result.diagnostics_of_kind(DiagnosticKind.OPERATOR_MISMATCH)

    def test_commutativity_of_addition(self):
        a = COPY.format(rhs="A[k] + A[2*k]")
        b = COPY.format(rhs="A[2*k] + A[k]")
        assert check(a, b).equivalent
        # ... but not with the basic method
        assert not check(a, b, method="basic").equivalent

    def test_subtraction_is_not_commutative(self):
        a = COPY.format(rhs="A[k] - A[2*k]")
        b = COPY.format(rhs="A[2*k] - A[k]")
        assert not check(a, b).equivalent

    def test_associativity_of_addition(self):
        a = COPY.format(rhs="(A[k] + A[k+1]) + A[k+2]")
        b = COPY.format(rhs="A[k] + (A[k+1] + A[k+2])")
        assert check(a, b).equivalent
        assert not check(a, b, method="basic").equivalent

    def test_full_reassociation_and_commutation(self):
        a = COPY.format(rhs="((A[k] + A[k+1]) + A[k+2]) + A[k+3]")
        b = COPY.format(rhs="(A[k+3] + A[k+1]) + (A[k+2] + A[k])")
        assert check(a, b).equivalent

    def test_multiplication_is_algebraic_too(self):
        a = COPY.format(rhs="A[k] * (A[k+1] * A[k+2])")
        b = COPY.format(rhs="(A[k+2] * A[k]) * A[k+1]")
        assert check(a, b).equivalent

    def test_mixed_operator_chains_keep_structure(self):
        a = COPY.format(rhs="(A[k] + A[k+1]) * A[k+2]")
        b = COPY.format(rhs="A[k+2] * (A[k+1] + A[k])")
        assert check(a, b).equivalent

    def test_duplicate_operands_are_matched_correctly(self):
        a = COPY.format(rhs="(A[k] + A[k]) + A[2*k]")
        b = COPY.format(rhs="A[k] + (A[2*k] + A[k])")
        assert check(a, b).equivalent

    def test_wrong_duplicate_multiset_detected(self):
        a = COPY.format(rhs="(A[k] + A[k]) + A[2*k]")
        b = COPY.format(rhs="A[k] + (A[2*k] + A[2*k])")
        assert not check(a, b).equivalent

    def test_operand_count_mismatch(self):
        a = COPY.format(rhs="A[k] + A[k+1]")
        b = COPY.format(rhs="(A[k] + A[k+1]) + A[k+2]")
        result = check(a, b)
        assert not result.equivalent

    def test_uninterpreted_calls_must_match_exactly(self):
        a = COPY.format(rhs="foo(A[k], A[k+1])")
        assert check(a, a).equivalent
        b = COPY.format(rhs="foo(A[k+1], A[k])")
        assert not check(a, b).equivalent
        c = COPY.format(rhs="bar(A[k], A[k+1])")
        assert not check(a, c).equivalent

    def test_user_declared_commutative_function(self):
        a = COPY.format(rhs="fmin(A[k], A[k+1])")
        b = COPY.format(rhs="fmin(A[k+1], A[k])")
        registry = default_registry()
        registry.declare("fmin", commutative=True)
        assert not check(a, b).equivalent
        assert check(a, b, registry=registry).equivalent

    def test_unary_negation(self):
        a = COPY.format(rhs="-A[k]")
        assert check(a, a).equivalent
        b = COPY.format(rhs="-A[k+1]")
        assert not check(a, b).equivalent


class TestIntermediatesAndPieces:
    def test_expression_propagation(self):
        a = """
        f(int A[], int C[]) {
            int k, t[8];
            for (k = 0; k < 8; k++) s1: t[k] = A[k] + A[k+1];
            for (k = 0; k < 8; k++) s2: C[k] = t[k] + A[k+2];
        }
        """
        b = "f(int A[], int C[]) { int k; for(k=0;k<8;k++) u1: C[k] = (A[k] + A[k+1]) + A[k+2]; }"
        assert check(a, b).equivalent
        assert check(a, b, method="basic").equivalent

    def test_piecewise_definition_is_recombined(self):
        a = "f(int A[], int C[]) { int k; for(k=0;k<8;k++) s1: C[k] = A[k] + A[8-k]; }"
        b = """
        f(int A[], int C[]) {
            int k;
            for (k = 0; k < 3; k++) t1: C[k] = A[k] + A[8-k];
            for (k = 3; k < 8; k++) t2: C[k] = A[8-k] + A[k];
        }
        """
        assert check(a, b).equivalent

    def test_undefined_read_is_reported(self):
        a = """
        f(int A[], int C[]) {
            int k, t[8];
            for (k = 0; k < 8; k++) s1: t[k] = A[k];
            for (k = 0; k < 8; k++) s2: C[k] = t[k];
        }
        """
        b = """
        f(int A[], int C[]) {
            int k, t[8];
            for (k = 0; k < 6; k++) s1: t[k] = A[k];
            for (k = 0; k < 8; k++) s2: C[k] = t[k];
        }
        """
        result = check(a, b, check_preconditions=False)
        assert not result.equivalent
        assert result.diagnostics_of_kind(DiagnosticKind.UNDEFINED_READ)

    def test_intermediate_renaming_is_transparent(self):
        a = """
        f(int A[], int C[]) {
            int k, t[8];
            for (k = 0; k < 8; k++) s1: t[k] = A[k] + 1;
            for (k = 0; k < 8; k++) s2: C[k] = t[k];
        }
        """
        b = """
        f(int A[], int C[]) {
            int k, other[8];
            for (k = 0; k < 8; k++) u1: other[k] = A[k] + 1;
            for (k = 0; k < 8; k++) u2: C[k] = other[k];
        }
        """
        assert check(a, b).equivalent

    def test_multiple_outputs(self):
        a = """
        f(int A[], int C[], int D[]) {
            int k;
            for (k = 0; k < 8; k++) s1: C[k] = A[k] + 1;
            for (k = 0; k < 8; k++) s2: D[k] = A[k] + 2;
        }
        """
        b = """
        f(int A[], int C[], int D[]) {
            int k;
            for (k = 0; k < 8; k++) t1: D[k] = A[k] + 2;
            for (k = 0; k < 8; k++) t2: C[k] = A[k] + 1;
        }
        """
        result = check(a, b)
        assert result.equivalent
        assert {r.array for r in result.outputs} == {"C", "D"}

    def test_focused_checking_restricts_outputs(self):
        a = """
        f(int A[], int C[], int D[]) {
            int k;
            for (k = 0; k < 8; k++) s1: C[k] = A[k] + 1;
            for (k = 0; k < 8; k++) s2: D[k] = A[k] + 2;
        }
        """
        b = """
        f(int A[], int C[], int D[]) {
            int k;
            for (k = 0; k < 8; k++) t1: C[k] = A[k] + 1;
            for (k = 0; k < 8; k++) t2: D[k] = A[k] + 3;
        }
        """
        full = check(a, b)
        assert not full.equivalent
        focused = check(a, b, outputs=["C"])
        assert focused.equivalent
        assert [r.array for r in focused.outputs] == ["C"]


class TestEngineOptions:
    def test_tabling_can_be_disabled(self):
        a = """
        f(int A[], int C[]) {
            int k, t[8];
            for (k = 0; k < 8; k++) s1: t[k] = A[k] + A[k+1];
            for (k = 0; k < 8; k++) s2: C[k] = t[k] + t[k];
        }
        """
        with_tabling = check(a, a)
        without_tabling = check(a, a, tabling=False)
        assert with_tabling.equivalent and without_tabling.equivalent
        assert with_tabling.stats.table_hits >= without_tabling.stats.table_hits

    def test_precondition_failure_reported(self):
        bad = """
        f(int A[], int C[]) {
            int k, t[8];
            for (k = 0; k < 8; k++) s1: C[k] = t[k];
            for (k = 0; k < 8; k++) s2: t[k] = A[k];
        }
        """
        good = "f(int A[], int C[]) { int k; for(k=0;k<8;k++) s1: C[k] = A[k]; }"
        result = check(bad, good)
        assert not result.equivalent
        assert result.diagnostics_of_kind(DiagnosticKind.PRECONDITION)
        # skipping the precondition check hands the problem to the traversal
        result = check(bad, good, check_preconditions=False)
        assert isinstance(result.equivalent, bool)

    def test_intermediate_correspondence_declaration(self):
        a = """
        f(int A[], int C[]) {
            int k, t[8];
            for (k = 0; k < 8; k++) s1: t[k] = A[k] + 1;
            for (k = 0; k < 8; k++) s2: C[k] = t[k] + 2;
        }
        """
        b = """
        f(int A[], int C[]) {
            int k, u[8];
            for (k = 0; k < 8; k++) r1: u[k] = A[k] + 1;
            for (k = 0; k < 8; k++) r2: C[k] = u[k] + 2;
        }
        """
        result = check(a, b, correspondences=[("t", "u")])
        assert result.equivalent

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            check(COPY.format(rhs="A[k]"), COPY.format(rhs="A[k]"), method="bogus")


MUTUAL = """
f(int A[], int C[]) {{
    int k, {x}[9], {y}[9];
    s0: {y}[0] = A[0];
    for (k = 1; k < 9; k++) {{
s1:     {x}[k] = {y}[k-1];
s2:     {y}[k] = {x}[k] + A[k];
s3:     C[k] = {x}[k];
    }}
}}
"""

INLINED = """
f(int A[], int C[]) {
    int k, Q[9];
    t0: Q[0] = A[0];
    for (k = 1; k < 9; k++) {
t1:     Q[k] = Q[k-1] + A[k];
t2:     C[k] = Q[k-1];
    }
}
"""


class TestReducedPieces:
    """Pieces that intermediate-variable reduction leaves as constants or recurrence arrays."""

    CONSTANT = "f(int A[], int C[]) {{ int k; for(k=0;k<8;k++) s1: C[k] = {value}; }}"

    def test_equal_constant_definitions(self):
        result = check(self.CONSTANT.format(value=7), self.CONSTANT.format(value=7))
        assert result.equivalent
        assert not result.diagnostics

    def test_different_constant_definitions(self):
        result = check(self.CONSTANT.format(value=7), self.CONSTANT.format(value=8))
        assert not result.equivalent
        assert [d.kind for d in result.diagnostics] == [DiagnosticKind.CONSTANT_MISMATCH]

    def test_mutual_recurrence_through_a_copy_against_a_renamed_copy(self):
        # Both sides stop at the recurrence array Y after one expansion.
        result = check(MUTUAL.format(x="X", y="Y"), MUTUAL.format(x="U", y="V"))
        assert result.equivalent
        assert not result.diagnostics

    def test_mutual_recurrence_through_a_copy_against_the_inlined_recurrence(self):
        # One side stops at the recurrence array Y, the other has expanded Q.
        result = check(MUTUAL.format(x="X", y="Y"), INLINED)
        assert result.equivalent
        assert not result.diagnostics
