"""Unit tests for internal helpers of the checker engine (terms, matching, tabling)."""

import pytest

from repro.addg import build_addg
from repro.checker import default_registry
from repro.checker.engine import Engine, Term, _maximum_matching
from repro.lang import parse_program
from repro.presburger import Map, parse_map, parse_set
from repro.analysis import ProgramGeometry
from repro.workloads import fig1_program


@pytest.fixture()
def engine():
    original = build_addg(ProgramGeometry(fig1_program("a", 64)))
    transformed = build_addg(ProgramGeometry(fig1_program("c", 64)))
    return Engine(original, transformed, registry=default_registry())


class TestMaximumMatching:
    def test_perfect_matching_found(self):
        compatibility = [
            [True, False, False],
            [False, True, False],
            [False, False, True],
        ]
        assert len(_maximum_matching(compatibility)) == 3

    def test_augmenting_path_needed(self):
        # row 0 can take either column, row 1 only column 0: Kuhn must re-route.
        compatibility = [
            [True, True],
            [True, False],
        ]
        matching = _maximum_matching(compatibility)
        assert len(matching) == 2
        assert dict((r, c) for r, c in matching) == {0: 1, 1: 0}

    def test_partial_matching(self):
        compatibility = [
            [True, False],
            [True, False],
        ]
        assert len(_maximum_matching(compatibility)) == 1

    def test_empty_matrix(self):
        assert _maximum_matching([]) == []


class TestTerms:
    def test_output_term_structure(self, engine):
        identity = Map.identity(("w0",), domain=parse_set("{ [k] : 0 <= k < 64 }"))
        term = engine.output_term(0, "C", identity)
        assert term.kind == Term.ARRAY
        assert term.display() == "C"
        assert term.path_text() == ("C",)
        assert term.path_arrays() == ("C",)
        assert term.path_statements() == ()

    def test_with_rel_preserves_identity_fields(self, engine):
        identity = Map.identity(("w0",), domain=parse_set("{ [k] : 0 <= k < 64 }"))
        term = engine.output_term(1, "C", identity)
        restricted = term.with_rel(identity.restrict_domain(parse_set("{ [k] : k < 8 }")))
        assert restricted.array == "C"
        assert restricted.side == 1
        assert restricted.rel.domain().count() == 8

    def test_term_keys_distinguish_relations(self, engine):
        small = Map.identity(("w0",), domain=parse_set("{ [k] : 0 <= k < 8 }"))
        large = Map.identity(("w0",), domain=parse_set("{ [k] : 0 <= k < 16 }"))
        key_small = engine._term_key(engine.output_term(0, "C", small))
        key_large = engine._term_key(engine.output_term(0, "C", large))
        assert key_small != key_large

    def test_term_keys_equal_for_equal_terms(self, engine):
        rel = Map.identity(("w0",), domain=parse_set("{ [k] : 0 <= k < 8 }"))
        assert engine._term_key(engine.output_term(0, "C", rel)) == engine._term_key(
            engine.output_term(0, "C", rel)
        )


class TestResolution:
    def test_resolving_output_reaches_operators(self, engine):
        identity = Map.identity(("w0",), domain=parse_set("{ [k] : 0 <= k < 64 }"))
        term = engine.output_term(0, "C", identity)
        pieces, ok = engine._resolve(term)
        assert ok
        assert pieces
        assert all(piece.kind == Term.OP for piece in pieces)

    def test_resolving_input_is_identity(self, engine):
        rel = parse_map("{ [k] -> [2k] : 0 <= k < 64 }")
        term = Term(Term.ARRAY, 0, rel, (("array", "A"),), array="A")
        pieces, ok = engine._resolve(term)
        assert ok and len(pieces) == 1 and pieces[0] is term

    def test_resolving_empty_relation_gives_no_pieces(self, engine):
        empty = Map.empty(("w0",), ("e0",))
        term = Term(Term.ARRAY, 0, empty, (("array", "tmp"),), array="tmp")
        pieces, ok = engine._resolve(term)
        assert ok and pieces == []

    def test_undefined_read_sets_flag_and_diagnostic(self, engine):
        # tmp in version (a) is defined on [0, 64); ask for elements beyond that.
        rel = parse_map("{ [k] -> [k + 60] : 0 <= k < 10 }")
        term = Term(Term.ARRAY, 0, rel, (("array", "tmp"),), array="tmp")
        pieces, ok = engine._resolve(term)
        assert not ok
        assert engine.diagnostics

    def test_compare_identical_terms_uses_table_on_repeat(self, engine):
        identity = Map.identity(("w0",), domain=parse_set("{ [k] : 0 <= k < 64 }"))
        term1 = engine.output_term(0, "C", identity)
        term2 = engine.output_term(1, "C", identity)
        assert engine.compare(term1, term2)
        hits_before = engine.stats.table_hits
        assert engine.compare(term1, term2)
        assert engine.stats.table_hits > hits_before


class TestEngineConfiguration:
    def test_invalid_method_rejected(self):
        addg = build_addg(ProgramGeometry(fig1_program("a", 16)))
        with pytest.raises(ValueError):
            Engine(addg, addg, method="fancy")

    def test_basic_method_ignores_registry(self):
        addg = build_addg(ProgramGeometry(fig1_program("a", 16)))
        engine = Engine(addg, addg, method="basic")
        assert not engine.properties("+").is_algebraic

    def test_extended_method_uses_registry(self):
        addg = build_addg(ProgramGeometry(fig1_program("a", 16)))
        engine = Engine(addg, addg, method="extended")
        assert engine.properties("+").associative and engine.properties("+").commutative
        assert not engine.properties("-").is_algebraic


class TestTablingUnderAssumptions:
    """A result that holds only under an outer inductive assumption is never tabled."""

    TWO_READS_RECURRENCE = """
    #define N 16
    f(int x[], int y[]) {
        int i, acc[N];
        for (i = 0; i < N; i++) {
            if (i == 0)
    p1:         acc[i] = x[i];
            else
    p2:         acc[i] = acc[i-1] - acc[i-1];
    p3:     y[i] = acc[i];
        }
    }
    """

    def test_second_sibling_discharging_through_the_same_assumption_is_not_tabled(self):
        addg = build_addg(ProgramGeometry(parse_program(self.TWO_READS_RECURRENCE)))
        engine = Engine(addg, addg)
        # Record the compares that discharge directly against the assumption
        # stack: their subtree asks no further compare.
        discharged = []
        inner = engine._compare_inner

        def recording(first, second):
            uses, calls = engine.stats.assumption_uses, engine.stats.compare_calls
            result = inner(first, second)
            if engine.stats.assumption_uses > uses and engine.stats.compare_calls == calls:
                discharged.append((engine._term_key(first), engine._term_key(second)))
            return result

        engine._compare_inner = recording
        domain = addg.written_set("y")
        identity = Map.identity(domain.names, domain=domain)
        assert engine.discharge(engine.output_term(0, "y", identity), engine.output_term(1, "y", identity))
        # The two operands of p2 are equal terms, each discharged through
        # the one assumption on (acc, acc) pushed above them.
        assert len(discharged) == 2 and discharged[0] == discharged[1]
        assert discharged[0] not in engine._table
        assert engine._assumption_mark == 0
