"""Unit tests for the expression walks ``walk_expr`` and ``array_reads``."""

from repro.lang import parse_program
from repro.lang.ast import ArrayRef, BinOp, Call, IntConst, UnaryOp, VarRef, array_reads, walk_expr
from repro.workloads import FIG1_SOURCES, kernel_names, kernel_pair

DEPTH = 10_000


def _recursive_walk(expr):
    """The recursive pre-order definition the explicit-stack walk must match."""
    yield expr
    for child in expr.children():
        yield from _recursive_walk(child)


def _programs():
    for source in FIG1_SOURCES.values():
        yield parse_program(source)
    for name in kernel_names():
        pair = kernel_pair(name)
        yield pair.original
        yield pair.transformed


class TestWalkExpr:
    def test_pre_order(self):
        expr = BinOp("*", UnaryOp("-", ArrayRef("A", [VarRef("k")])), Call("f", [IntConst(2), VarRef("k")]))
        kinds = [type(node).__name__ for node in walk_expr(expr)]
        assert kinds == ["BinOp", "UnaryOp", "ArrayRef", "VarRef", "Call", "IntConst", "VarRef"]

    def test_program_expressions_match_the_recursive_definition(self):
        count = 0
        for program in _programs():
            for assignment in program.assignments():
                for expr in (assignment.target, assignment.rhs):
                    walked = list(walk_expr(expr))
                    expected = list(_recursive_walk(expr))
                    assert len(walked) == len(expected)
                    assert all(a is b for a, b in zip(walked, expected))
                    assert array_reads(expr) == [n for n in expected if isinstance(n, ArrayRef)]
                    count += 1
        assert count > 20

    def test_deep_left_nested_sum(self):
        """A left-nested sum 10,000 levels deep walks without a RecursionError."""
        reads = [ArrayRef("A", [BinOp("+", VarRef("k"), IntConst(i))]) for i in range(DEPTH + 1)]
        expr = reads[0]
        operators = []
        for read in reads[1:]:
            expr = BinOp("+", expr, read)
            operators.append(expr)
        walked = list(walk_expr(expr))
        # every operator first (outermost down), then each read with its index subtree
        assert all(a is b for a, b in zip(walked, operators[::-1]))
        assert len(walked) == DEPTH + 4 * (DEPTH + 1)
        found = array_reads(expr)
        assert len(found) == DEPTH + 1
        assert all(a is b for a, b in zip(found, reads))

    def test_deep_right_nested_negation(self):
        expr = ArrayRef("A", [IntConst(0)])
        for _ in range(DEPTH):
            expr = UnaryOp("-", expr)
        walked = list(walk_expr(expr))
        assert len(walked) == DEPTH + 2
        assert isinstance(walked[-2], ArrayRef) and isinstance(walked[-1], IntConst)
        assert len(array_reads(expr)) == 1
