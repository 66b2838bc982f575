"""Commutative matching (Section 5.2): reads of one input array pair by key.

Pairing the reads ``A[k+0] .. A[k+n-1]`` of a chain against any permutation
must cost one compare per operand (Section 6.2's linear-cost claim), pair
duplicate operands as a multiset, and still fall back to trial comparison
when two equal mappings are written differently.
"""

import pytest

from repro.addg import build_addg
from repro.checker import DiagnosticKind, check_equivalence
from repro.checker.engine import Engine, Term, _map_key
from repro.lang import parse_program
from repro.presburger import parse_map
from repro.workloads import CHAIN_SHAPES, chain_source


def _sum(offsets):
    return chain_source("sum", offsets)


def check(source_a, source_b):
    return check_equivalence(parse_program(source_a), parse_program(source_b))


class TestLinearMatching:
    @pytest.mark.parametrize("n", [10, 20, 40])
    @pytest.mark.parametrize("shape", CHAIN_SHAPES)
    def test_chain_against_its_reversal_costs_one_compare_per_operand(self, shape, n):
        result = check(chain_source(shape, range(n)), chain_source(shape, reversed(range(n))))
        assert result.equivalent
        assert result.stats.compare_calls == n + 1
        assert result.stats.paths_checked == n


class TestDuplicateOperands:
    @pytest.mark.parametrize("permutation", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    def test_duplicates_pair_as_a_multiset(self, permutation):
        assert check(_sum([0, 0, 1]), _sum(permutation)).equivalent

    def test_multiset_mismatch_is_not_equivalent(self):
        result = check(_sum([0, 0]), _sum([0, 1]))
        assert not result.equivalent
        [diagnostic] = result.diagnostics
        assert diagnostic.kind == DiagnosticKind.MAPPING_MISMATCH
        assert diagnostic.original_mapping == "{ [w0] -> [w0] : -w0 + 31 >= 0 and w0 >= 0 }"
        assert diagnostic.transformed_mapping == "{ [w0] -> [w0 + 1] : -w0 + 31 >= 0 and w0 >= 0 }"


class TestBrokenChain:
    def test_one_diagnostic_names_the_unpaired_operands(self):
        n = 10
        broken = list(reversed(range(n)))
        broken[3] = n + 2  # A[k+6] is replaced by A[k+12]
        result = check(_sum(range(n)), _sum(broken))
        assert not result.equivalent
        [diagnostic] = result.diagnostics
        assert diagnostic.kind == DiagnosticKind.MAPPING_MISMATCH
        assert diagnostic.message == (
            "output-input mappings to input array 'A' differ on corresponding paths"
        )
        assert diagnostic.original_mapping == "{ [w0] -> [w0 + 6] : -w0 + 31 >= 0 and w0 >= 0 }"
        assert diagnostic.transformed_mapping == (
            "{ [w0] -> [w0 + 12] : -w0 + 31 >= 0 and w0 >= 0 }"
        )
        assert diagnostic.mismatch_domain == "{ [w0] : -w0 + 31 >= 0 and w0 >= 0 }"
        assert diagnostic.original_path == ("out", "s0", "A")
        assert diagnostic.transformed_path == ("out", "s0", "A")

    def test_reporting_the_mismatch_does_not_count_a_second_path(self):
        n = 10
        broken = list(reversed(range(n)))
        broken[3] = n + 2
        result = check(_sum(range(n)), _sum(broken))
        assert result.stats.paths_checked == n
        assert result.stats.leaf_comparisons == n
        assert result.stats.compare_calls == n + 1


class TestKeyFallback:
    @pytest.fixture()
    def engine(self):
        source = "f(int A[], int C[]) { int k; for(k=0;k<8;k++) s1: C[k] = A[k] + A[k+1]; }"
        addg = build_addg(parse_program(source))
        return Engine(addg, addg)

    @staticmethod
    def _read(side, relation):
        return Term(Term.ARRAY, side, relation, (("array", "A"),), array="A")

    def test_equal_mappings_with_different_keys_still_pair(self, engine):
        plain = parse_map("{ [w0] -> [w0] : 0 <= w0 < 8 }")
        shifted = parse_map("{ [w0] -> [w0 + 1] : 0 <= w0 < 8 }")
        # Equal to `shifted`, but the redundant `1 <= i` changes its conjunct key.
        redundant = parse_map("{ [w0] -> [i] : i = w0 + 1 and 0 <= w0 < 8 and 1 <= i }")
        assert redundant.is_equal(shifted) and _map_key(redundant) != _map_key(shifted)
        terms1 = [self._read(0, plain), self._read(0, shifted)]
        terms2 = [self._read(1, redundant), self._read(1, plain)]
        assert engine._match_terms(terms1, terms2, False, 0)
        assert engine.diagnostics == []
        # One key pair (the A[k] reads) plus a 1x1 trial matrix for the rest.
        assert engine.stats.compare_calls == 2

    def test_fallback_still_rejects_a_genuine_mismatch(self, engine):
        plain = parse_map("{ [w0] -> [w0] : 0 <= w0 < 8 }")
        shifted = parse_map("{ [w0] -> [w0 + 1] : 0 <= w0 < 8 }")
        shifted_twice = parse_map("{ [w0] -> [w0 + 2] : 0 <= w0 < 8 }")
        terms1 = [self._read(0, plain), self._read(0, shifted)]
        terms2 = [self._read(1, shifted_twice), self._read(1, plain)]
        assert not engine._match_terms(terms1, terms2, False, 0)
        [diagnostic] = engine.diagnostics
        assert diagnostic.kind == DiagnosticKind.MAPPING_MISMATCH
        assert engine.stats.leaf_comparisons == 2
