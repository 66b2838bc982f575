"""Unit tests for the data-flow prerequisites (single assignment, coverage, def-use order)."""

import random

import pytest

from repro.analysis import (
    ProgramGeometry,
    check_coverage,
    check_dataflow,
    check_def_use_order,
    check_single_assignment,
    statement_contexts,
)
from repro.analysis.dataflow import _order_violations
from repro.lang import parse_program
from repro.lang.ast import ArrayRef, BinOp, IntConst, UnaryOp, VarRef, array_reads
from repro.transforms import TransformError
from repro.transforms.mutate import perturb_write_index, random_mutation
from repro.workloads import FIG1_SOURCES, SMALL_KERNEL_PARAMS, fig1_program, kernel_names, kernel_pair


class TestSingleAssignment:
    def test_fig1_versions_are_single_assignment(self):
        for version in "abcd":
            assert check_single_assignment(ProgramGeometry(fig1_program(version, 64))) == []

    def test_same_statement_overwrite_detected(self):
        program = parse_program(
            "f(int A[], int C[]) { int k; for(k=0;k<8;k++) s1: C[0] = A[k]; }"
        )
        issues = check_single_assignment(ProgramGeometry(program))
        assert any("single-assignment" in issue for issue in issues)

    def test_two_statements_overlapping_writes_detected(self):
        program = parse_program(
            """
            f(int A[], int C[]) {
                int k;
                for (k = 0; k < 8; k++)
            s1:     C[k] = A[k];
                for (k = 4; k < 12; k++)
            s2:     C[k] = A[k + 1];
            }
            """
        )
        issues = check_single_assignment(ProgramGeometry(program))
        assert any("s1" in issue and "s2" in issue for issue in issues)

    def test_disjoint_piecewise_writes_accepted(self):
        program = parse_program(
            """
            f(int A[], int C[]) {
                int k;
                for (k = 0; k < 4; k++)
            s1:     C[k] = A[k];
                for (k = 4; k < 8; k++)
            s2:     C[k] = A[k];
            }
            """
        )
        assert check_single_assignment(ProgramGeometry(program)) == []


class TestCoverage:
    def test_reading_written_elements_is_fine(self):
        assert check_coverage(ProgramGeometry(fig1_program("a", 64))) == []

    def test_reading_never_written_array(self):
        program = parse_program(
            """
            f(int A[], int C[]) {
                int k, t[8];
                for (k = 0; k < 8; k++)
            s2:     C[k] = t[k];
            }
            """
        )
        issues = check_coverage(ProgramGeometry(program))
        assert any("never written" in issue for issue in issues)

    def test_reading_beyond_written_range(self):
        program = parse_program(
            """
            f(int A[], int C[]) {
                int k, t[16];
                for (k = 0; k < 4; k++)
            s1:     t[k] = A[k];
                for (k = 0; k < 8; k++)
            s2:     C[k] = t[k];
            }
            """
        )
        issues = check_coverage(ProgramGeometry(program))
        assert any("undefined elements" in issue for issue in issues)

    def test_inputs_never_flagged(self):
        program = parse_program(
            "f(int A[], int C[]) { int k; for(k=0;k<4;k++) s1: C[k] = A[k + 100]; }"
        )
        assert check_coverage(ProgramGeometry(program)) == []


USE_BEFORE_DEF_ACROSS_LOOPS = """
f(int A[], int C[]) {
    int k, t[8];
    for (k = 0; k < 8; k++)
s1:     C[k] = t[k];
    for (k = 0; k < 8; k++)
s2:     t[k] = A[k];
}
"""

FORWARD_RECURRENCE = """
f(int A[], int C[]) {
    int k, t[10];
    for (k = 0; k < 8; k++)
s1:     t[k] = t[k + 1] + A[k];
    for (k = 0; k < 8; k++)
s2:     C[k] = t[k];
}
"""

SAME_ITERATION_WRITE_THEN_READ = """
f(int A[], int C[]) {
    int k, t[8];
    for (k = 0; k < 8; k++) {
s1:     t[k] = A[k];
s2:     C[k] = t[k];
    }
}
"""

SAME_ITERATION_READ_THEN_WRITE = """
f(int A[], int C[]) {
    int k, t[8];
    for (k = 0; k < 8; k++) {
s1:     C[k] = t[k];
s2:     t[k] = A[k];
    }
}
"""

SELF_READ = """
f(int A[], int C[]) {
    int k, t[8];
    for (k = 0; k < 8; k++)
s1:     t[k] = t[k] + A[k];
    for (k = 0; k < 8; k++)
s2:     C[k] = t[k];
}
"""

DOWNWARD_RECURRENCE = """
f(int A[], int C[]) {
    int k, t[9];
    for (k = 7; k >= 0; k--)
s1:     t[k] = t[k + 1] + A[k];
    for (k = 0; k < 8; k++)
s2:     C[k] = t[k];
}
"""

DOWNWARD_LOOP_READING_AHEAD = """
f(int A[], int C[]) {
    int k, t[9];
    for (k = 7; k >= 0; k--)
s1:     t[k] = t[k - 1] + A[k];
    for (k = 0; k < 8; k++)
s2:     C[k] = t[k];
}
"""

IMPERFECT_NEST = """
f(int A[], int B[][4], int C[]) {
    int i, j, t[4], u[4][4];
    for (i = 0; i < 4; i++) {
s1:     t[i] = A[i];
        for (j = 0; j < 4; j++)
s2:         u[i][j] = t[i] + B[i][j];
    }
    for (i = 0; i < 4; i++)
s3:     C[i] = u[i][3];
}
"""

BRANCHES_FOUR_APART = """
f(int A[], int C[]) {
    int k, t[16];
    for (k = 0; k < 16; k++) {
        if (k < 4)
s1:         t[k] = A[k];
        else
s2:         t[k] = t[k - 4] + A[k];
    }
    for (k = 0; k < 16; k++)
s3:     C[k] = t[k];
}
"""


class TestDefUseOrder:
    def test_fig1_versions_pass(self):
        for version in "abcd":
            assert check_def_use_order(ProgramGeometry(fig1_program(version, 64))) == []

    def test_recurrence_kernels_pass(self):
        pair = kernel_pair("prefix_sum", n=16)
        assert check_def_use_order(ProgramGeometry(pair.original)) == []
        assert check_def_use_order(ProgramGeometry(pair.transformed)) == []

    def test_use_before_def_across_loops(self):
        program = parse_program(USE_BEFORE_DEF_ACROSS_LOOPS)
        issues = check_def_use_order(ProgramGeometry(program))
        assert any("before" in issue for issue in issues)

    def test_forward_recurrence_reading_future_value(self):
        program = parse_program(FORWARD_RECURRENCE)
        issues = check_def_use_order(ProgramGeometry(program))
        assert issues

    def test_same_iteration_write_then_read_is_fine(self):
        program = parse_program(SAME_ITERATION_WRITE_THEN_READ)
        assert check_def_use_order(ProgramGeometry(program)) == []

    def test_same_iteration_read_then_write_is_flagged(self):
        program = parse_program(SAME_ITERATION_READ_THEN_WRITE)
        assert check_def_use_order(ProgramGeometry(program))


class TestDefUseOrderLevels:
    """Cases that exercise single levels of the per-level order test."""

    def test_self_read_is_flagged_at_the_all_equal_level(self):
        program = parse_program(SELF_READ)
        assert check_def_use_order(ProgramGeometry(program))
        [(reader, ref, writer, violation)] = list(_order_violations(ProgramGeometry(program)))
        assert (reader.label, ref.name, writer.label) == ("s1", "t", "s1")
        assert set(violation.pairs()) == {((k,), (k,)) for k in range(8)}

    def test_downward_recurrence_is_clean(self):
        assert check_def_use_order(ProgramGeometry(parse_program(DOWNWARD_RECURRENCE))) == []

    def test_downward_loop_reading_a_later_iteration_is_flagged(self):
        program = parse_program(DOWNWARD_LOOP_READING_AHEAD)
        assert check_def_use_order(ProgramGeometry(program))
        [(_, _, _, violation)] = list(_order_violations(ProgramGeometry(program)))
        assert set(violation.pairs()) == {((k - 1,), (k,)) for k in range(1, 8)}

    def test_imperfect_nest_with_padded_schedules_is_clean(self):
        program = parse_program(IMPERFECT_NEST)
        lengths = {len(context.schedule) for context in statement_contexts(program)}
        assert len(lengths) > 1
        assert check_def_use_order(ProgramGeometry(program)) == []

    def test_else_branch_reading_the_then_branch_is_clean(self):
        assert check_def_use_order(ProgramGeometry(parse_program(BRANCHES_FOUR_APART))) == []


# --------------------------------------------------------------------------- #
# Enumeration oracle: instance pairs and timestamps in plain Python
# --------------------------------------------------------------------------- #
def _evaluate(expr, bindings):
    if isinstance(expr, IntConst):
        return expr.value
    if isinstance(expr, VarRef):
        return bindings[expr.name]
    if isinstance(expr, UnaryOp) and expr.op == "-":
        return -_evaluate(expr.operand, bindings)
    if isinstance(expr, BinOp) and expr.op in ("+", "-", "*"):
        lhs, rhs = _evaluate(expr.lhs, bindings), _evaluate(expr.rhs, bindings)
        return lhs + rhs if expr.op == "+" else lhs - rhs if expr.op == "-" else lhs * rhs
    raise AssertionError(f"unexpected index expression {expr!r}")


def _element(ref: ArrayRef, bindings):
    return tuple(_evaluate(index, bindings) for index in ref.indices)


def _enumerated_violations(program):
    """``{(reader, read position, writer): {(writer point, reader point)}}`` by enumeration."""
    contexts = statement_contexts(program)
    inputs = set(program.input_arrays())
    length = max(len(context.schedule) for context in contexts)
    writes = {}  # (array, element) -> [(writer label, writer point, timestamp)]
    instances = {}
    for context in contexts:
        rows = []
        for point in context.domain.points():
            bindings = dict(zip(context.iterators, point))
            stamp = [expr.evaluate(bindings) for expr in context.schedule]
            stamp = tuple(stamp + [0] * (length - len(stamp)))
            rows.append((point, bindings, stamp))
            key = (context.target_array, _element(context.assignment.target, bindings))
            writes.setdefault(key, []).append((context.label, point, stamp))
        instances[context.label] = rows
    found = {}
    for reader in contexts:
        for position, ref in enumerate(array_reads(reader.assignment.rhs)):
            if ref.name in inputs:
                continue
            for point, bindings, stamp in instances[reader.label]:
                for writer, write_point, write_stamp in writes.get((ref.name, _element(ref, bindings)), ()):
                    if not write_stamp < stamp:
                        found.setdefault((reader.label, position, writer), set()).add((write_point, point))
    return found


def _computed_violations(program):
    found = {}
    for reader, ref, writer, violation in _order_violations(ProgramGeometry(program)):
        position = next(i for i, r in enumerate(array_reads(reader.assignment.rhs)) if r is ref)
        found[(reader.label, position, writer.label)] = set(violation.pairs())
    return found


def _oracle_programs():
    programs = [
        ("use-before-def", parse_program(USE_BEFORE_DEF_ACROSS_LOOPS)),
        ("forward-recurrence", parse_program(FORWARD_RECURRENCE)),
        ("write-then-read", parse_program(SAME_ITERATION_WRITE_THEN_READ)),
        ("read-then-write", parse_program(SAME_ITERATION_READ_THEN_WRITE)),
    ]
    for name in kernel_names():
        kernel = kernel_pair(name, **SMALL_KERNEL_PARAMS[name])
        for side, program in (("original", kernel.original), ("transformed", kernel.transformed)):
            for seed in range(3):
                try:
                    mutant, _ = random_mutation(program, random.Random(f"{name}:{side}:{seed}"))
                except TransformError:
                    continue
                programs.append((f"{name}/{side}/random{seed}", mutant))
        labels = [a.label for a in kernel.original.assignments() if a.label]
        for label in labels:
            for delta in (1, -1):
                mutant, _ = perturb_write_index(kernel.original, label, delta)
                programs.append((f"{name}/write-index/{label}{delta:+d}", mutant))
    return programs


ORACLE_PROGRAMS = _oracle_programs()


class TestDefUseOrderOracle:
    @pytest.mark.parametrize("program", [p for _, p in ORACLE_PROGRAMS], ids=[n for n, _ in ORACLE_PROGRAMS])
    def test_violations_match_enumeration(self, program):
        expected = _enumerated_violations(program)
        assert bool(check_def_use_order(ProgramGeometry(program))) == bool(expected)
        assert _computed_violations(program) == expected

    def test_corpus_has_flagged_and_clean_programs(self):
        flagged = [name for name, program in ORACLE_PROGRAMS if check_def_use_order(ProgramGeometry(program))]
        assert 0 < len(flagged) < len(ORACLE_PROGRAMS)


class TestDataflowDriver:
    def test_all_fig1_versions_pass_all_checks(self):
        for version in "abcd":
            assert check_dataflow(ProgramGeometry(fig1_program(version, 64))) == []

    def test_written_set_per_array(self):
        geometry = ProgramGeometry(fig1_program("a", 64))
        assert list(geometry.writers) == ["tmp", "buf", "C"]
        assert geometry.written_set("A") is None
        assert geometry.written_set("C").count() == 64
        # derived once per program: a second lookup returns the same object
        assert geometry.written_set("buf") is geometry.written_set("buf")
