"""Integration test E5: flattening + matching (the extended method, Fig. 5 / Section 5.2).

For the pair (a) vs (c), the traversal reaches the associative/commutative
``+`` at the output, flattens the chain on both sides into four input-array
leaves, and matches them by their output-input mappings — the four mapping
pairs listed in Section 5.2.  These tests verify the same facts through the
public API: the flattened output-input relations of both programs coincide
per input array, and the checker proves the pair equivalent only when the
algebraic laws are available.
"""

import pytest

from repro.addg import build_addg
from repro.analysis import ProgramGeometry, dependency_map, statement_contexts
from repro.checker import check_equivalence, default_registry
from repro.lang.ast import array_reads
from repro.presburger import Map, parse_map
from repro.workloads import fig1_program

N = 1024


def output_input_relation(program, input_array):
    """The union over all paths of the output-input mappings to *input_array*.

    This is exactly what the flattening + matching step compares per leaf
    group: because version (a) and version (c) supply the same multiset of
    leaves, the unions must coincide (and they are invariant under the
    algebraic transformations).
    """
    contexts = {c.label: c for c in statement_contexts(program)}
    addg = build_addg(ProgramGeometry(program))
    total = None

    def walk(array, relation):
        nonlocal total
        if addg.is_input(array):
            if array == input_array:
                total = relation if total is None else total.union(relation)
            return
        for statement in addg.defining_statements(array):
            restricted = relation.restrict_range(statement.written.rename(relation.out_names))
            if restricted.is_empty():
                continue
            context = contexts[statement.label]
            for read in array_reads(context.assignment.rhs):
                walk(read.name, restricted.compose(dependency_map(context, read)))

    identity = Map.identity(("w0",), domain=addg.written_set("C"))
    walk("C", identity)
    return total


@pytest.fixture(scope="module")
def programs():
    return {name: fig1_program(name, N) for name in ("a", "c", "d")}


class TestFlattenedMappings:
    """The four mapping equalities of Section 5.2 (expressed as per-array unions)."""

    def test_b_leaves_match(self, programs):
        rel_a = output_input_relation(programs["a"], "B")
        rel_c = output_input_relation(programs["c"], "B")
        expected = parse_map("{ [k] -> [2k] : 0 <= k < 1024 }").union(
            parse_map("{ [k] -> [k] : 0 <= k < 1024 }")
        )
        assert rel_a.is_equal(expected)
        assert rel_c.is_equal(expected)

    def test_a_leaves_match(self, programs):
        rel_a = output_input_relation(programs["a"], "A")
        rel_c = output_input_relation(programs["c"], "A")
        expected = parse_map("{ [k] -> [2k] : 0 <= k < 1024 }").union(
            parse_map("{ [k] -> [k] : 0 <= k < 1024 }")
        )
        assert rel_a.is_equal(expected)
        assert rel_c.is_equal(expected)

    def test_erroneous_version_has_different_b_relation(self, programs):
        rel_a = output_input_relation(programs["a"], "B")
        rel_d = output_input_relation(programs["d"], "B")
        assert not rel_a.is_equal(rel_d)


class TestExtendedVersusBasic:
    def test_extended_proves_the_algebraic_pair(self, programs):
        result = check_equivalence(programs["a"], programs["c"])
        assert result.equivalent
        assert result.stats.flatten_operations > 0
        assert result.stats.matching_operations > 0

    def test_basic_method_reports_leaf_mismatch(self, programs):
        result = check_equivalence(programs["a"], programs["c"], method="basic")
        assert not result.equivalent
        kinds = {d.kind for d in result.diagnostics}
        assert "leaf-mismatch" in kinds or "mapping-mismatch" in kinds

    def test_algebraic_laws_can_be_revoked(self, programs):
        registry = default_registry()
        registry.declare("+", associative=False, commutative=False)
        result = check_equivalence(programs["a"], programs["c"], registry=registry)
        assert not result.equivalent
