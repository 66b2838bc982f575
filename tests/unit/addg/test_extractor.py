"""Unit tests for ADDG extraction (expression-tree construction, validation hooks)."""

import pytest

from repro.addg import NEGATE_OP, OpNode, ReadNode, ConstNode, build_addg
from repro.lang import ProgramClassError, parse_program
from repro.analysis import ProgramGeometry
from repro.presburger import parse_map


def single_statement_addg(source):
    addg = build_addg(ProgramGeometry(parse_program(source)))
    assert len(addg.statements) >= 1
    return addg


class TestExpressionTrees:
    def test_binary_tree_shape(self):
        addg = single_statement_addg(
            "f(int A[], int B[], int C[]) { int k; for(k=0;k<4;k++) s1: C[k] = (A[k] + B[k]) * A[k+1]; }"
        )
        root = addg.statement("s1").rhs
        assert isinstance(root, OpNode) and root.op == "*"
        left, right = root.operands
        assert isinstance(left, OpNode) and left.op == "+"
        assert isinstance(right, ReadNode) and right.array == "A"

    def test_operand_edges_carry_positions_and_names(self):
        addg = single_statement_addg(
            "f(int A[], int B[], int C[]) { int k; for(k=0;k<4;k++) s1: C[k] = (A[k] + B[k]) * A[k]; }"
        )
        assert addg.edges() == [
            ("C", "*@s1", "s1"),
            ("*@s1", "+@s1.1", "1"),
            ("*@s1", "A", "2"),
            ("+@s1.1", "A", "1"),
            ("+@s1.1", "B", "2"),
        ]
        assert addg.operator_names() == ["*@s1", "+@s1.1"]

    def test_unary_minus_becomes_neg_operator(self):
        addg = single_statement_addg(
            "f(int A[], int C[]) { int k; for(k=0;k<4;k++) s1: C[k] = -A[k]; }"
        )
        root = addg.statement("s1").rhs
        assert isinstance(root, OpNode) and root.op == NEGATE_OP
        assert len(root.operands) == 1

    def test_call_becomes_named_operator(self):
        addg = single_statement_addg(
            "f(int A[], int B[], int C[]) { int k; for(k=0;k<4;k++) s1: C[k] = min3(A[k], B[k], 0); }"
        )
        root = addg.statement("s1").rhs
        assert isinstance(root, OpNode) and root.op == "min3"
        assert len(root.operands) == 3
        assert isinstance(root.operands[2], ConstNode)

    def test_copy_statement_rhs_is_a_read_node(self):
        addg = single_statement_addg(
            "f(int A[], int C[]) { int k; for(k=0;k<4;k++) s1: C[k] = A[2*k]; }"
        )
        root = addg.statement("s1").rhs
        assert isinstance(root, ReadNode)
        assert root.dependency.is_equal(parse_map("{ [k] -> [2k] : 0 <= k < 4 }"))

    def test_write_map_and_written_set(self):
        addg = single_statement_addg(
            "f(int A[], int C[]) { int k; for(k=1;k<=3;k++) s1: C[2*k] = A[k]; }"
        )
        statement = addg.statement("s1")
        assert sorted(statement.written.points()) == [(2,), (4,), (6,)]
        assert statement.write_map.contains([2], [4])


class TestValidationHook:
    def test_out_of_class_program_rejected(self):
        with pytest.raises(ProgramClassError):
            build_addg(
                ProgramGeometry(
                    parse_program(
                        "f(int A[], int B[], int C[]) { int k; for(k=0;k<4;k++) s1: C[k] = A[B[k]]; }"
                    )
                )
            )

    def test_class_is_checked_before_the_loop_bounds_are_read(self):
        # A non-affine bound would make the geometric analysis fail with a bare
        # NotAffineError; the class check runs first and reports the program.
        program = parse_program(
            "f(int A[], int C[][8]) { int i, j; for(i=0;i<4;i++) for(j=0;j<i*i;j++) s1: C[i][j] = A[j]; }"
        )
        with pytest.raises(ProgramClassError, match="loop bound: not affine"):
            ProgramGeometry(program)

    def test_scalar_data_operand_rejected(self):
        with pytest.raises(ProgramClassError):
            build_addg(
                ProgramGeometry(
                    parse_program("f(int A[], int C[]) { int k, x; for(k=0;k<4;k++) s1: C[k] = x; }")
                )
            )


class TestDotExport:
    def test_dot_output_mentions_all_nodes(self):
        from repro.addg import addg_to_dot
        from repro.workloads import fig1_program

        addg = build_addg(ProgramGeometry(fig1_program("a", 64)))
        dot = addg_to_dot(addg, "fig1a")
        assert dot.startswith("digraph fig1a {")
        for array in ("A", "B", "C", "tmp", "buf"):
            assert f'label="{array}"' in dot
        assert dot.count('label="+"') == 3
        assert 'label="s2"' in dot
        assert dot.rstrip().endswith("}")

    def test_dot_marks_inputs_and_outputs(self):
        from repro.addg import addg_to_dot
        from repro.workloads import fig1_program

        dot = addg_to_dot(build_addg(ProgramGeometry(fig1_program("a", 64))))
        assert "peripheries=2" in dot  # inputs
        assert "penwidth=2" in dot  # outputs
