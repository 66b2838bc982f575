"""Unit tests for the mini-C parser."""

import pytest

from repro.lang import (
    ArrayRef,
    Assignment,
    BinOp,
    Call,
    Comparison,
    ForLoop,
    IfThenElse,
    IntConst,
    ParseSyntaxError,
    parse_program,
)
from repro.lang.errors import LexError


SIMPLE = """
#define N 16
copy(int A[], int C[])
{
    int k;
    for (k = 0; k < N; k++)
s1:     C[k] = A[k];
}
"""


class TestBasicParsing:
    def test_function_name_and_params(self):
        program = parse_program(SIMPLE)
        assert program.name == "copy"
        assert program.param_names() == ("A", "C")

    def test_define_recorded_and_substituted(self):
        program = parse_program(SIMPLE)
        assert program.defines == {"N": 16}
        loop = program.body[0]
        assert isinstance(loop, ForLoop)
        assert loop.bound == IntConst(16)

    def test_labelled_assignment(self):
        program = parse_program(SIMPLE)
        assignment = program.assignment_by_label("s1")
        assert assignment.target == ArrayRef("C", [assignment.target.indices[0]])

    def test_local_declarations(self):
        source = """
        f(int A[], int C[]) {
            int k, tmp[8], buf[2][3];
            for (k = 0; k < 8; k++)
        s1:     C[k] = A[k];
        }
        """
        program = parse_program(source)
        declarations = program.declarations()
        assert declarations["tmp"].dims == (8,)
        assert declarations["buf"].dims == (2, 3)
        assert declarations["k"].is_scalar

    def test_constant_folding_of_define_expressions(self):
        source = """
        #define N 32
        f(int A[], int C[]) {
            int k, tmp[2*N];
            for (k = 0; k < N/2; k++)
        s1:     C[k] = A[2*k];
        }
        """
        program = parse_program(source)
        assert program.declarations()["tmp"].dims == (64,)
        loop = program.body[0]
        assert loop.bound == IntConst(16)

    def test_void_return_type_accepted(self):
        program = parse_program("void f(int A[], int C[]) { int k; for(k=0;k<2;k++) s: C[k] = A[k]; }")
        assert program.name == "f"


class TestLoops:
    def test_decrementing_loop(self):
        source = """
        f(int A[], int C[]) {
            int k;
            for (k = 9; k >= 1; k--)
        s1:     C[k] = A[k];
        }
        """
        loop = parse_program(source).body[0]
        assert loop.step == -1
        assert loop.cond_op == ">="

    def test_strided_loop(self):
        source = "f(int A[], int C[]) { int k; for (k = 0; k < 16; k += 2) s1: C[k] = A[k]; }"
        loop = parse_program(source).body[0]
        assert loop.step == 2

    def test_var_equals_var_plus_const_increment(self):
        source = "f(int A[], int C[]) { int k; for (k = 0; k < 16; k = k + 4) s1: C[k] = A[k]; }"
        loop = parse_program(source).body[0]
        assert loop.step == 4

    def test_nested_loops_without_braces(self):
        source = """
        f(int A[], int C[]) {
            int i, j;
            for (i = 0; i < 4; i++)
                for (j = 0; j < 4; j++)
        s1:         C[4*i + j] = A[i] + A[j];
        }
        """
        outer = parse_program(source).body[0]
        assert isinstance(outer.body[0], ForLoop)

    def test_loop_condition_on_other_variable_rejected(self):
        with pytest.raises(ParseSyntaxError):
            parse_program("f(int A[], int C[]) { int k, j; for (k = 0; j < 4; k++) s: C[k] = A[k]; }")

    def test_unsupported_increment_rejected(self):
        with pytest.raises((ParseSyntaxError, LexError)):
            parse_program("f(int A[], int C[]) { int k; for (k = 0; k < 4; k *= 2) s: C[k] = A[k]; }")


class TestConditionals:
    def test_if_else(self):
        source = """
        f(int A[], int C[]) {
            int k;
            for (k = 0; k < 8; k++) {
                if (k < 4)
        s1:         C[k] = A[k];
                else
        s2:         C[k] = A[8 - k];
            }
        }
        """
        loop = parse_program(source).body[0]
        conditional = loop.body[0]
        assert isinstance(conditional, IfThenElse)
        assert isinstance(conditional.condition, Comparison)
        assert conditional.then_body[0].label == "s1"
        assert conditional.else_body[0].label == "s2"

    def test_conjunctive_condition(self):
        source = """
        f(int A[], int C[]) {
            int k;
            for (k = 0; k < 8; k++)
                if (k >= 2 && k < 6)
        s1:         C[k] = A[k];
        }
        """
        loop = parse_program(source).body[0]
        conditional = loop.body[0]
        assert len(conditional.condition.parts) == 2


class TestExpressions:
    def test_precedence(self):
        source = "f(int A[], int C[]) { int k; for(k=0;k<4;k++) s: C[k] = A[k] + A[k+1] * 2; }"
        rhs = parse_program(source).assignment_by_label("s").rhs
        assert isinstance(rhs, BinOp) and rhs.op == "+"
        assert isinstance(rhs.rhs, BinOp) and rhs.rhs.op == "*"

    def test_parentheses(self):
        source = "f(int A[], int C[]) { int k; for(k=0;k<4;k++) s: C[k] = (A[k] + A[k+1]) * 2; }"
        rhs = parse_program(source).assignment_by_label("s").rhs
        assert rhs.op == "*"

    def test_unary_minus(self):
        source = "f(int A[], int C[]) { int k; for(k=0;k<4;k++) s: C[k] = -A[k]; }"
        rhs = parse_program(source).assignment_by_label("s").rhs
        assert rhs.op == "-"

    def test_function_call(self):
        source = "f(int A[], int B[], int C[]) { int k; for(k=0;k<4;k++) s: C[k] = max(A[k], B[k]); }"
        rhs = parse_program(source).assignment_by_label("s").rhs
        assert isinstance(rhs, Call)
        assert rhs.func == "max"
        assert len(rhs.args) == 2

    def test_multi_dimensional_access(self):
        source = "f(int A[], int C[]) { int i, j, t[4][4]; for(i=0;i<4;i++) for(j=0;j<4;j++) s: t[i][j] = A[i]; }"
        target = parse_program(source).assignment_by_label("s").target
        assert len(target.indices) == 2


class TestErrors:
    def test_scalar_assignment_target_rejected(self):
        with pytest.raises(ParseSyntaxError):
            parse_program("f(int A[], int C[]) { int k, x; for(k=0;k<4;k++) s: x = A[k]; }")

    def test_label_on_loop_rejected(self):
        with pytest.raises(ParseSyntaxError):
            parse_program("f(int A[], int C[]) { int k; lbl: for(k=0;k<4;k++) s: C[k] = A[k]; }")

    def test_trailing_garbage_rejected(self):
        with pytest.raises((ParseSyntaxError, LexError)):
            parse_program(SIMPLE + "\nint stray;")

    def test_unsupported_directive_rejected(self):
        with pytest.raises((ParseSyntaxError, LexError)):
            parse_program("#include <stdio.h>\nf(int A[]) { }")

    def test_non_constant_array_size_rejected(self):
        with pytest.raises(ParseSyntaxError):
            parse_program("f(int A[], int C[]) { int k, t[k]; for(k=0;k<4;k++) s: C[k] = A[k]; }")

    def test_deep_nesting_is_a_syntax_error(self):
        """400 nested parentheses exhaust the recursive-descent parser; that
        must surface as a ParseSyntaxError, never a RecursionError."""
        expr = "(" * 400 + "A[k]" + ")" * 400
        source = SIMPLE.replace("C[k] = A[k];", f"C[k] = {expr};")
        with pytest.raises(ParseSyntaxError, match="nesting too deep"):
            parse_program(source)
