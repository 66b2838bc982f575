"""Integration test E2/E3: ADDG extraction of the Fig. 1 programs and the worked mappings."""

import pytest

from repro.addg import build_addg
from repro.analysis import ProgramGeometry, dependency_map, statement_contexts
from repro.lang.ast import array_reads
from repro.presburger import parse_map
from repro.workloads import fig1_program


@pytest.fixture(scope="module")
def addgs():
    return {name: build_addg(ProgramGeometry(fig1_program(name, 1024))) for name in "abcd"}


class TestFig2Structure:
    def test_statement_labels(self, addgs):
        assert [s.label for s in addgs["a"].statements] == ["s1", "s2", "s3"]
        assert [s.label for s in addgs["b"].statements] == ["t1", "t2", "t3", "t4"]
        assert [s.label for s in addgs["c"].statements] == ["u1", "u2", "u3"]
        assert [s.label for s in addgs["d"].statements] == ["v1", "v2", "v3", "v4"]

    def test_output_and_input_roles(self, addgs):
        for addg in addgs.values():
            assert addg.outputs == ("C",)
            assert set(addg.inputs) == {"A", "B"}

    def test_paths_from_output_to_inputs(self, addgs):
        # In (a) the output C reaches the inputs through tmp and buf;
        # in (c) only through buf.
        assert set(addgs["a"].intermediates) == {"tmp", "buf"}
        assert set(addgs["c"].intermediates) == {"buf"}
        assert set(addgs["d"].intermediates) == {"tmp", "buf"}

    def test_operator_node_inventory(self, addgs):
        # Fig. 2: (a) has 3 '+' nodes, (b) has 5 (t4 contains two), (c) 3, (d) 4.
        expected = {"a": 3, "b": 5, "c": 3, "d": 4}
        for version, count in expected.items():
            ops = addgs[version].operator_nodes()
            assert len(ops) == count
            assert all(op.op == "+" for op in ops)

    def test_addg_sizes_reported(self, addgs):
        sizes = {v: addgs[v].size() for v in addgs}
        assert sizes["b"] >= sizes["a"]
        assert all(size > 10 for size in sizes.values())


class TestWorkedDependencyMappings:
    """Section 3.2 worked example: dependency mappings of s2 and the C->B reduction."""

    def test_m_buf_a1_and_a2(self):
        program = fig1_program("a", 1024)
        s2 = [c for c in statement_contexts(program) if c.label == "s2"][0]
        reads = array_reads(s2.assignment.rhs)
        assert dependency_map(s2, reads[0]).is_equal(
            parse_map("{ [x] -> [x] : exists k : x = 2k - 2 and 1 <= k <= 1024 }")
        )
        assert dependency_map(s2, reads[1]).is_equal(
            parse_map("{ [x] -> [y] : x = 2k - 2 and y = k - 1 and 1 <= k <= 1024 }")
        )

    def test_output_input_mapping_of_path1(self):
        # Reduction of tmp on path C -> tmp -> B gives {[k] -> [2k] : 0 <= k < 1024}.
        program = fig1_program("a", 1024)
        contexts = {c.label: c for c in statement_contexts(program)}
        m_c_tmp = dependency_map(contexts["s3"], array_reads(contexts["s3"].assignment.rhs)[0])
        m_tmp_b1 = dependency_map(contexts["s1"], array_reads(contexts["s1"].assignment.rhs)[0])
        reduced = m_c_tmp.compose(m_tmp_b1)
        assert reduced.is_equal(parse_map("{ [k] -> [2k] : 0 <= k < 1024 }"))

    def test_split_output_input_mapping_in_version_b(self):
        # Section 5.1: for (b), the assignment to C is distributed over t3/t4 and
        # the output-input mapping of path 1 is {[k] -> [2k] : 0 <= k < 512}.
        program = fig1_program("b", 1024)
        contexts = {c.label: c for c in statement_contexts(program)}
        m_c_tmp = dependency_map(contexts["t3"], array_reads(contexts["t3"].assignment.rhs)[0])
        m_tmp_b1 = dependency_map(contexts["t1"], array_reads(contexts["t1"].assignment.rhs)[0])
        reduced = m_c_tmp.compose(m_tmp_b1)
        assert reduced.is_equal(parse_map("{ [k] -> [2k] : 0 <= k < 512 }"))
