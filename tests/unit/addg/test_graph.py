"""Unit tests for the ADDG data structure and its Fig. 2-style inventory."""

import pytest

from repro.addg import ADDG, ConstNode, OpNode, ReadNode, StatementNode, build_addg
from repro.lang import parse_program
from repro.analysis import ProgramGeometry
from repro.workloads import CHAIN_SHAPES, chain_source, fig1_program, kernel_names, kernel_pair


class TestFig2Inventory:
    """The ADDGs of Fig. 1 must have the node/edge structure shown in Fig. 2."""

    def setup_method(self):
        self.addgs = {v: build_addg(ProgramGeometry(fig1_program(v, 1024))) for v in "abcd"}

    def test_array_nodes(self):
        assert set(self.addgs["a"].array_nodes()) == {"A", "B", "C", "tmp", "buf"}
        assert set(self.addgs["c"].array_nodes()) == {"A", "B", "C", "buf"}

    def test_operator_counts(self):
        # (a): one + per statement s1..s3; (b): t4 contains a nested +.
        assert len(self.addgs["a"].operator_nodes()) == 3
        assert len(self.addgs["b"].operator_nodes()) == 5
        assert len(self.addgs["c"].operator_nodes()) == 3
        assert len(self.addgs["d"].operator_nodes()) == 4

    def test_inputs_and_outputs(self):
        for version, addg in self.addgs.items():
            assert set(addg.inputs) == {"A", "B"}
            assert addg.outputs == ("C",)

    def test_intermediates(self):
        assert set(self.addgs["a"].intermediates) == {"tmp", "buf"}
        assert set(self.addgs["c"].intermediates) == {"buf"}

    def test_statement_edges_carry_labels(self):
        edges = self.addgs["a"].edges()
        labels = {label for _, _, label in edges}
        assert {"s1", "s2", "s3"} <= labels
        # operand edges are labelled by positions
        assert {"1", "2"} <= labels

    def test_sizes_are_positive_and_ordered(self):
        # (b) has more statements than (a), so its ADDG is at least as large.
        assert self.addgs["b"].size() > self.addgs["a"].size()
        assert self.addgs["a"].node_count() == 8
        assert self.addgs["a"].edge_count() == 9


class TestStructure:
    def test_defining_statements(self):
        addg = build_addg(ProgramGeometry(fig1_program("b", 64)))
        defs_c = [s.label for s in addg.defining_statements("C")]
        assert defs_c == ["t3", "t4"]
        assert addg.defining_statements("A") == []

    def test_statement_lookup(self):
        addg = build_addg(ProgramGeometry(fig1_program("a", 64)))
        assert addg.statement("s2").target == "buf"
        with pytest.raises(KeyError):
            addg.statement("nope")

    def test_written_set_union(self):
        addg = build_addg(ProgramGeometry(fig1_program("c", 64)))
        written = addg.written_set("buf")
        # u1 writes [0, 64), u2 writes even elements of [64, 126]
        assert written.contains([0]) and written.contains([63])
        assert written.contains([64]) and written.contains([126])
        assert not written.contains([65])
        with pytest.raises(KeyError):
            addg.written_set("A")

    def test_reads_and_operator_nodes_of_statement(self):
        addg = build_addg(ProgramGeometry(fig1_program("b", 64)))
        t4 = addg.statement("t4")
        reads = t4.reads()
        assert [r.array for r in reads] == ["B", "B", "buf"]
        assert len(t4.operator_nodes()) == 2

    def test_read_nodes_carry_dependency_maps(self):
        addg = build_addg(ProgramGeometry(fig1_program("a", 64)))
        s3 = addg.statement("s3")
        buf_read = s3.reads()[1]
        assert buf_read.dependency.contains([5], [10])

    def test_const_nodes(self):
        addg = build_addg(
            ProgramGeometry(parse_program("f(int A[], int C[]) { int k; for(k=0;k<4;k++) s1: C[k] = 2 * A[k] + 1; }"))
        )
        statement = addg.statement("s1")
        consts = [n for n in _walk(statement.rhs) if isinstance(n, ConstNode)]
        assert sorted(c.value for c in consts) == [1, 2]

    def test_cyclic_arrays_detection(self):
        addg = build_addg(ProgramGeometry(kernel_pair("prefix_sum", n=8).original))
        assert addg.cyclic_arrays == ("acc",)
        addg = build_addg(ProgramGeometry(fig1_program("a", 64)))
        assert addg.cyclic_arrays == ()


class TestSize:
    """``size()`` counts without display names and agrees with the inventory."""

    @staticmethod
    def _assert_size_matches_inventory(addg):
        nodes = len(addg.array_nodes()) + len(addg.operator_nodes())
        assert addg.edge_count() == len(addg.edges())
        assert addg.size() == nodes + len(addg.edges())

    @pytest.mark.parametrize("name", kernel_names())
    def test_registry_kernels(self, name):
        pair = kernel_pair(name)
        for program in (pair.original, pair.transformed):
            self._assert_size_matches_inventory(build_addg(ProgramGeometry(program)))

    @pytest.mark.parametrize("length", [10, 160])
    @pytest.mark.parametrize("shape", CHAIN_SHAPES)
    def test_chains(self, shape, length):
        addg = build_addg(ProgramGeometry(parse_program(chain_source(shape, range(length)))))
        self._assert_size_matches_inventory(addg)


class TestDeepTrees:
    """Statement trees are walked with an explicit stack, in pre-order."""

    DEPTH = 10_000

    def setup_method(self):
        addg = build_addg(ProgramGeometry(fig1_program("a", 64)))
        self.statement = addg.statement("s3")
        self.leaves = self.statement.reads()

    def _left_nested(self, depth):
        """``((r0 + r1) + r2) + ...`` with *depth* operators, leaves cycling over two reads."""
        tree = self.leaves[0]
        operators = []
        leaves = [tree]
        for level in range(1, depth + 1):
            leaf = self.leaves[level % 2]
            tree = OpNode("+", [tree, leaf], "s3")
            operators.append(tree)
            leaves.append(leaf)
        return tree, operators[::-1], leaves

    def test_deep_tree_reads_and_operators_in_pre_order(self):
        tree, operators, leaves = self._left_nested(self.DEPTH)
        statement = StatementNode(self.statement.context, tree)
        reads = statement.reads()
        assert len(reads) == self.DEPTH + 1
        assert all(read is leaf for read, leaf in zip(reads, leaves))
        found = statement.operator_nodes()
        assert len(found) == self.DEPTH
        assert all(node is expected for node, expected in zip(found, operators))

    def test_small_trees_match_the_recursive_definition(self):
        for name in kernel_names():
            pair = kernel_pair(name)
            for program in (pair.original, pair.transformed):
                for statement in build_addg(ProgramGeometry(program)).statements:
                    walked = list(_walk(statement.rhs))
                    assert statement.reads() == [n for n in walked if isinstance(n, ReadNode)]
                    assert statement.operator_nodes() == [n for n in walked if isinstance(n, OpNode)]
        tree, _, _ = self._left_nested(6)
        statement = StatementNode(self.statement.context, OpNode("neg", [tree], "s3"))
        assert statement.reads() == [n for n in _walk(statement.rhs) if isinstance(n, ReadNode)]


def _walk(node):
    """The recursive pre-order definition the explicit-stack walks must match."""
    yield node
    for child in node.children():
        yield from _walk(child)
