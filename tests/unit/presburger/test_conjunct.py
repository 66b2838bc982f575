"""Unit tests for the Conjunct container."""

import pytest

from repro.presburger.conjunct import Conjunct


class TestBasics:
    def test_universe_has_no_constraints(self):
        conjunct = Conjunct.universe(3)
        assert conjunct.is_universe()
        assert conjunct.const_col == 3

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(ValueError):
            Conjunct(2, 0, eqs=[(1, 2)])

    def test_eqs_and_ineqs_hold_the_constraints(self):
        conjunct = Conjunct(1, 0, eqs=[(1, 0)], ineqs=[(1, 5)])
        assert conjunct.eqs == ((1, 0),)
        assert conjunct.ineqs == ((1, 5),)
        assert not conjunct.is_universe()

    def test_involves_col(self):
        conjunct = Conjunct(2, 0, eqs=[(1, 0, 0)])
        assert conjunct.involves_col(0)
        assert not conjunct.involves_col(1)

    def test_equality_is_order_insensitive(self):
        a = Conjunct(1, 0, ineqs=[(1, 0), (-1, 5)])
        b = Conjunct(1, 0, ineqs=[(-1, 5), (1, 0)])
        assert a == b
        assert hash(a) == hash(b)


class TestStructuralOps:
    def test_with_constraints_appends(self):
        base = Conjunct.universe(1)
        extended = base.with_constraints(ineqs=[(1, 0)])
        assert base.is_universe()
        assert extended.ineqs == ((1, 0),)

    def test_add_divs_widens_vectors(self):
        conjunct = Conjunct(1, 0, eqs=[(1, -3)])
        widened = conjunct.add_divs(2)
        assert widened.n_div == 2
        assert widened.eqs == ((1, 0, 0, -3),)

    def test_drop_col_requires_zero_coefficients(self):
        conjunct = Conjunct(2, 0, eqs=[(1, 1, 0)])
        with pytest.raises(ValueError):
            conjunct.drop_col(1)

    def test_drop_col_shifts(self):
        conjunct = Conjunct(2, 1, eqs=[(1, 0, 2, -3)])
        dropped = conjunct.drop_col(1)
        assert dropped.n_vars == 1
        assert dropped.eqs == ((1, 2, -3),)

    def test_drop_constant_column_rejected(self):
        with pytest.raises(ValueError):
            Conjunct.universe(1).drop_col(1)

    def test_substitute_vars(self):
        conjunct = Conjunct(2, 1, ineqs=[(1, 2, 3, 4)])
        plugged = conjunct.substitute_vars([10, -1])
        assert plugged.n_vars == 0
        assert plugged.n_div == 1
        assert plugged.ineqs == ((3, 12),)

    def test_substitute_wrong_arity(self):
        with pytest.raises(ValueError):
            Conjunct.universe(2).substitute_vars([1])
