"""Unit tests for access maps and dependency mappings (incl. the paper's worked example)."""

import pytest

from repro.analysis import dependency_map, statement_contexts
from repro.lang import parse_program
from repro.lang.affine import expr_to_affine
from repro.lang.ast import array_reads
from repro.presburger import AffineConstraint, LinExpr, Map, eq_, parse_map, parse_set
from repro.workloads import fig1_program, kernel_names, kernel_pair


def context(program, label):
    for c in statement_contexts(program):
        if c.label == label:
            return c
    raise KeyError(label)


class TestPaperWorkedExample:
    """Section 3.2: dependency mappings of statement s2 and the reduction of tmp."""

    def setup_method(self):
        self.program = fig1_program("a", 1024)

    def test_s2_dependency_mappings(self):
        s2 = context(self.program, "s2")
        reads = array_reads(s2.assignment.rhs)
        # first operand: A[2*k - 2]
        m_buf_a1 = dependency_map(s2, reads[0])
        assert m_buf_a1.is_equal(
            parse_map("{ [x] -> [y] : x = 2k - 2 and y = 2k - 2 and 1 <= k <= 1024 }")
        )
        # second operand: A[k - 1]
        m_buf_a2 = dependency_map(s2, reads[1])
        assert m_buf_a2.is_equal(
            parse_map("{ [x] -> [y] : x = 2k - 2 and y = k - 1 and 1 <= k <= 1024 }")
        )

    def test_intermediate_variable_reduction_of_tmp(self):
        # M_C,tmp composed with M_tmp,B1 must equal {[k] -> [2k] : 0 <= k < 1024}.
        s3 = context(self.program, "s3")
        s1 = context(self.program, "s1")
        m_c_tmp = dependency_map(s3, array_reads(s3.assignment.rhs)[0])
        m_tmp_b1 = dependency_map(s1, array_reads(s1.assignment.rhs)[0])
        m_c_b = m_c_tmp.compose(m_tmp_b1)
        assert m_c_b.is_equal(parse_map("{ [k] -> [2k] : 0 <= k < 1024 }"))

    def test_s3_buf_dependency(self):
        s3 = context(self.program, "s3")
        m_c_buf = dependency_map(s3, array_reads(s3.assignment.rhs)[1])
        assert m_c_buf.is_equal(parse_map("{ [k] -> [2k] : 0 <= k < 1024 }"))


class TestAccessMaps:
    def test_write_access_map(self):
        program = parse_program(
            "f(int A[], int C[]) { int k; for(k=1;k<=4;k++) s1: C[2*k - 2] = A[k]; }"
        )
        s1 = context(program, "s1")
        write = s1.write_map
        assert sorted(write.pairs()) == [((k,), (2 * k - 2,)) for k in range(1, 5)]

    def test_defined_set(self):
        program = parse_program(
            "f(int A[], int C[]) { int k; for(k=1;k<=4;k++) s1: C[2*k - 2] = A[k]; }"
        )
        s1 = context(program, "s1")
        assert sorted(s1.defined.points()) == [(0,), (2,), (4,), (6,)]

    def test_read_access_map_restricted_to_domain(self):
        program = parse_program(
            """
            f(int A[], int C[]) {
                int k;
                for (k = 0; k < 8; k++)
                    if (k < 3)
            s1:         C[k] = A[k + 5];
            }
            """
        )
        s1 = context(program, "s1")
        read = s1.read_map(array_reads(s1.assignment.rhs)[0])
        assert sorted(read.pairs()) == [((0,), (5,)), ((1,), (6,)), ((2,), (7,))]

    def test_multidimensional_access(self):
        program = parse_program(
            """
            f(int A[4][4], int C[]) {
                int i, j, t[4][4];
                for (i = 0; i < 2; i++)
                    for (j = 0; j < 2; j++)
            s1:         t[i][j] = A[j][i];
                for (i = 0; i < 2; i++)
            s2:     C[i] = t[i][1];
            }
            """
        )
        s1 = context(program, "s1")
        dep = dependency_map(s1, array_reads(s1.assignment.rhs)[0])
        # t[i][j] depends on A[j][i]: the mapping transposes the coordinates.
        assert dep.contains([0, 1], [1, 0])
        assert not dep.contains([0, 1], [0, 1])

    def test_dependency_map_of_strided_statement(self):
        program = parse_program(
            "f(int A[], int C[]) { int k; for(k=0;k<16;k+=2) s1: C[k] = A[k + 1]; }"
        )
        s1 = context(program, "s1")
        dep = dependency_map(s1, array_reads(s1.assignment.rhs)[0])
        assert dep.is_equal(parse_map("{ [x] -> [x + 1] : exists j : x = 2j and 0 <= x < 16 }"))

    def test_dependency_map_on_empty_domain(self):
        program = parse_program(
            "f(int A[], int C[]) { int k; for(k=0;k<8;k++) if (k > 100) s1: C[k] = A[k]; }"
        )
        s1 = context(program, "s1")
        dep = dependency_map(s1, array_reads(s1.assignment.rhs)[0])
        assert dep.is_empty()


def _symbolic_dependency_map(context, ref):
    """The dependency mapping built from symbolic constraints, one domain conjunct at a time.

    The reference construction ``dependency_map`` must reproduce row for
    row: ``x - w(i) = 0`` and ``y - r(i) = 0`` over renamed iterators, then
    the domain conjunct's rows over the iterators and its divs.
    """
    in_names = [f"x{i}" for i in range(len(context.assignment.target.indices))]
    out_names = [f"y{i}" for i in range(len(ref.indices))]
    iterators = [f"it_{name}" for name in context.iterators]
    renaming = dict(zip(context.iterators, iterators))
    index_rows = [
        eq_(LinExpr.var(name), expr_to_affine(index).rename(renaming))
        for name, index in zip(in_names + out_names, list(context.assignment.target.indices) + list(ref.indices))
    ]
    result = None
    for conjunct in context.domain.conjuncts:
        order = iterators + [f"div{i}" for i in range(conjunct.n_div)]
        rows = list(index_rows)
        for vectors, kind in ((conjunct.eqs, "=="), (conjunct.ineqs, ">=")):
            for vector in vectors:
                coefficients = {name: c for name, c in zip(order, vector[:-1]) if c}
                rows.append(AffineConstraint(LinExpr(coefficients, vector[-1]), kind))
        piece = Map.build(in_names, out_names, rows, exists=order)
        result = piece if result is None else result.union(piece)
    return result if result is not None else Map.empty(in_names, out_names)


class TestDependencyMapRows:
    """``dependency_map`` writes its rows as vectors; they equal the symbolic construction."""

    @pytest.mark.parametrize("name", kernel_names())
    def test_registry_kernels(self, name):
        pair = kernel_pair(name)
        for program in (pair.original, pair.transformed):
            for statement in statement_contexts(program):
                for ref in array_reads(statement.assignment.rhs):
                    built = dependency_map(statement, ref)
                    expected = _symbolic_dependency_map(statement, ref)
                    assert (built.in_names, built.out_names) == (expected.in_names, expected.out_names)
                    assert [(c.n_div, c.eqs, c.ineqs) for c in built.conjuncts] == [
                        (c.n_div, c.eqs, c.ineqs) for c in expected.conjuncts
                    ]

    @pytest.mark.parametrize(
        "source",
        [
            "f(int A[], int C[]) { int k; for(k=0;k<16;k+=2) s1: C[k] = A[k + 1]; }",
            "f(int A[][8], int C[]) { int i, j; for(i=0;i<8;i++) for(j=i;j<8;j+=3) s1: C[2*i + j] = A[j - i][i]; }",
            "f(int A[], int C[]) { int k; for(k=0;k<8;k++) if (k != 3) s1: C[k] = A[k - 1]; }",
            "f(int A[], int C[]) { int k; for(k=0;k<8;k++) if (k > 100) s1: C[k] = A[k]; }",
        ],
        ids=["strided", "triangular-2d", "two-conjuncts", "empty"],
    )
    def test_small_programs(self, source):
        statement = context(parse_program(source), "s1")
        ref = array_reads(statement.assignment.rhs)[0]
        built = dependency_map(statement, ref)
        expected = _symbolic_dependency_map(statement, ref)
        assert [(c.n_div, c.eqs, c.ineqs) for c in built.conjuncts] == [
            (c.n_div, c.eqs, c.ineqs) for c in expected.conjuncts
        ]
