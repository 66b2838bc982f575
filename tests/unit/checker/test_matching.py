"""Commutative matching (Section 5.2): operands pair by key.

Pairing the reads ``A[k+0] .. A[k+n-1]`` of a chain against any permutation
must cost one compare per operand (Section 6.2's linear-cost claim), pair
duplicate operands as a multiset, and still fall back to trial comparison
when two equal mappings are written differently.  Operator operands whose
own operands are input reads or constants pair by a shallow operand key.  A
failing group whose terms all have keys is not rerun; a key pairing that
cannot be completed in a group with an unkeyed term falls back to the full
matrix, so keys never change a verdict.
"""

import pytest

from repro.addg import build_addg
from repro.checker import DiagnosticKind, check_equivalence
from repro.checker.engine import Engine, Term, _map_key
from repro.lang import parse_program, program_to_text
from repro.presburger import parse_map
from repro.analysis import ProgramGeometry
from repro.workloads import CHAIN_SHAPES, chain_source, conv_source, kernel_pair


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
        addg = build_addg(ProgramGeometry(parse_program(source)))
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
        assert engine._match_terms(terms1, terms2)
        assert engine.diagnostics == []
        # One key pair (the A[k] reads) plus a 1x1 trial matrix for the rest.
        assert engine.stats.compare_calls == 2

    def test_fallback_still_rejects_a_genuine_mismatch(self, engine):
        plain = parse_map("{ [w0] -> [w0] : 0 <= w0 < 8 }")
        shifted = parse_map("{ [w0] -> [w0 + 1] : 0 <= w0 < 8 }")
        shifted_twice = parse_map("{ [w0] -> [w0 + 2] : 0 <= w0 < 8 }")
        terms1 = [self._read(0, plain), self._read(0, shifted)]
        terms2 = [self._read(1, shifted_twice), self._read(1, plain)]
        assert not engine._match_terms(terms1, terms2)
        [diagnostic] = engine.diagnostics
        assert diagnostic.kind == DiagnosticKind.MAPPING_MISMATCH
        assert engine.stats.leaf_comparisons == 2


def _conv2d_mutant():
    """The conv2d kernel pair with one coefficient index of the rewrite swapped."""
    pair = kernel_pair("conv2d")
    text = program_to_text(pair.transformed)
    assert text.count("k[4] * img[i][j]") == 1
    return pair.original, parse_program(text.replace("k[4] * img[i][j]", "k[3] * img[i][j]"))


def _diagnostics(result):
    return [diagnostic.to_dict() for diagnostic in result.diagnostics]


def _collide(monkeypatch):
    """Give every operator term the same key, so key pairs are arbitrary."""
    monkeypatch.setattr(
        Engine, "_operand_key", lambda self, term: ("collision",) if term.kind == Term.OP else None
    )


class TestOperatorKeys:
    def test_conv2d_products_pair_by_operand_key(self):
        pair = kernel_pair("conv2d")
        result = check_equivalence(pair.original, pair.transformed)
        assert result.equivalent
        # One compare for the output, then per product one for the product
        # and one for each of its two factors: 1 + 9 * 3.
        assert result.stats.compare_calls == 28
        assert result.stats.leaf_comparisons == 18

    def test_commutative_key_ignores_operand_order(self):
        source = (
            "f(int A[], int B[], int C[]) { int k; for(k=0;k<8;k++) "
            "s1: C[k] = A[k]*B[k+1] + B[k+1]*A[k]; }"
        )
        addg = build_addg(ProgramGeometry(parse_program(source)))
        engine = Engine(addg, addg)
        relation = parse_map("{ [w0] -> [w0] : 0 <= w0 < 8 }")
        first, second = (
            Term(Term.OP, 0, relation, (), node=product)
            for product in addg.statement("s1").rhs.operands
        )
        assert engine._operand_key(first) == engine._operand_key(second) is not None

    def test_an_intermediate_operand_has_no_key_and_pairs_through_the_matrix(self, monkeypatch):
        original = """
        f(int A[], int B[], int C[])
        {
            int k, t[8];
            for (k = 0; k < 8; k++)
        s1:     t[k] = A[k] + B[k];
            for (k = 0; k < 8; k++)
        s2:     C[k] = t[k] * A[k] + t[k] * B[k + 1];
        }
        """
        transformed = """
        f(int A[], int B[], int C[])
        {
            int k, t[8];
            for (k = 0; k < 8; k++)
        d1:     t[k] = B[k] + A[k];
            for (k = 7; k >= 0; k--)
        d2:     C[k] = B[k + 1] * t[k] + A[k] * t[k];
        }
        """
        keys, matrices = [], []
        operand_key, trial_matching = Engine._operand_key, Engine._trial_matching

        def recording_key(self, term):
            keys.append(operand_key(self, term))
            return keys[-1]

        def recording_matching(self, group1, group2):
            matrices.append((len(group1), len(group2)))
            return trial_matching(self, group1, group2)

        monkeypatch.setattr(Engine, "_operand_key", recording_key)
        monkeypatch.setattr(Engine, "_trial_matching", recording_matching)
        result = check(original, transformed)
        assert result.equivalent
        assert keys and all(key is None for key in keys)
        # The two products go through one 2x2 trial matrix, and only once.
        assert matrices == [(2, 2)]
        assert result.stats.compare_calls == 11


class TestForcedKeyCollision:
    """Arbitrary key pairs must be rescued by the full-matrix rerun."""

    def test_conv2d_stays_equivalent(self, monkeypatch):
        _collide(monkeypatch)
        pair = kernel_pair("conv2d")
        assert check_equivalence(pair.original, pair.transformed).equivalent

    def test_broken_conv2d_keeps_its_verdict_and_diagnostics(self, monkeypatch):
        original, mutant = _conv2d_mutant()
        plain = check_equivalence(original, mutant)
        _collide(monkeypatch)
        colliding = check_equivalence(original, mutant)
        assert not plain.equivalent and not colliding.equivalent
        assert plain.diagnostics
        assert _diagnostics(colliding) == _diagnostics(plain)


class TestCompletenessRule:
    """In a group with an unkeyed term, a key pair that takes a needed partner triggers the rerun."""

    @pytest.fixture()
    def engine(self):
        source = (
            "f(int A[], int B[], int C[]) { int k; for(k=0;k<8;k++) "
            "s1: C[k] = A[k]*B[k] + A[k+1]*B[k+1]; }"
        )
        addg = build_addg(ProgramGeometry(parse_program(source)))
        return Engine(addg, addg)

    @staticmethod
    def _products(engine, side):
        node = engine.addg(side).statement("s1").rhs.operands[0]
        relation = parse_map("{ [w0] -> [w0] : 0 <= w0 < 8 }")
        return [Term(Term.OP, side, relation, (("stmt", "s1"),), node=node) for _ in range(2)]

    def _match(self, engine, monkeypatch, compatible):
        a1, a2 = self._products(engine, 0)
        b1, b2 = self._products(engine, 1)
        names = {id(a1): "a1", id(a2): "a2", id(b1): "b1", id(b2): "b2"}
        asked = []

        def compare(first, second):
            asked.append(names[id(first)] + names[id(second)])
            return asked[-1] in compatible

        monkeypatch.setattr(engine, "compare", compare)
        # b2 has no key, so the group may need the rerun.
        monkeypatch.setattr(engine, "_match_key", lambda term: None if term is b2 else ("same",))
        return engine._match_terms([a1, a2], [b1, b2]), asked

    def test_a_wrong_key_pair_is_undone_by_the_full_matrix(self, engine, monkeypatch):
        # a1 fits both, a2 only b1: the key pair a1-b1 strands a2.
        matched, asked = self._match(engine, monkeypatch, {"a1b1", "a1b2", "a2b1"})
        assert matched
        assert engine.diagnostics == []
        assert asked == ["a1b1", "a2b2", "a1b1", "a1b2", "a2b1", "a2b2"]

    def test_a_failure_is_reported_from_the_full_matrix(self, engine, monkeypatch):
        matched, asked = self._match(engine, monkeypatch, {"a1b1", "a1b2"})
        assert not matched
        assert asked[-4:] == ["a1b1", "a1b2", "a2b1", "a2b2"]
        [diagnostic] = engine.diagnostics
        assert diagnostic.kind == DiagnosticKind.MATCHING_FAILURE


class TestKeyedGroupIsNotRerun:
    """A failing group whose terms all have keys costs what the equivalent group costs."""

    @pytest.mark.parametrize(
        "wrong",
        [("* w[0]", "* w[1]"), ("img[i + 0][j + 0]", "img[i + 0][j + 1]")],
        ids=["coefficient", "pixel"],
    )
    def test_one_wrong_tap_costs_the_correct_pairs_compares(self, wrong):
        transformed = conv_source(3, transformed=True)
        assert transformed.count(wrong[0]) == 1
        result = check(conv_source(3), transformed.replace(*wrong))
        assert not result.equivalent
        assert result.stats.compare_calls == 28
        assert result.stats.leaf_comparisons == 18
        # The one unpaired product of each side, as the full matrix names it.
        [diagnostic] = result.diagnostics
        assert diagnostic.kind == DiagnosticKind.MATCHING_FAILURE
        assert diagnostic.message == (
            "no valid pairing found for operand operator '*' (statement s0) of the original "
            "program against operand operator '*' (statement d0) of the transformed program"
        )
        assert diagnostic.original_path == ("out", "s0")
        assert diagnostic.transformed_path == ("out", "d3", "row0", "d0")
        assert diagnostic.suspect_arrays == ("row0",)
        assert diagnostic.suspect_statements == ("d0", "d3")
