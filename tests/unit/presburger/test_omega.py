"""Unit tests for the Omega-test core: normalisation, elimination, feasibility, complement.

The exactness of these operations underpins the entire checker, so several
tests cross-validate the symbolic results against brute-force enumeration.
"""

import itertools

import pytest

from repro.presburger.conjunct import Conjunct
from repro.presburger import omega


def points_of(conjunct, ranges):
    """Brute-force enumeration of the public-dimension points of a conjunct."""
    result = set()
    for candidate in itertools.product(*ranges):
        plugged = conjunct.substitute_vars(list(candidate))
        if omega.is_feasible(plugged):
            result.add(candidate)
    return result


class TestModHat:
    def test_values(self):
        assert omega.mod_hat(5, 6) == -1
        assert omega.mod_hat(-5, 6) == 1
        assert omega.mod_hat(6, 6) == 0
        assert omega.mod_hat(7, 6) == 1

    def test_range_property(self):
        for a in range(-20, 21):
            for m in range(1, 8):
                value = omega.mod_hat(a, m)
                assert (a - value) % m == 0
                assert abs(2 * value) <= m

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            omega.mod_hat(3, 0)


class TestNormalize:
    def test_gcd_reduction_of_equality(self):
        conjunct = Conjunct(2, 0, eqs=[(2, -4, 6)])
        normalized = omega.normalize(conjunct)
        assert normalized is not None
        assert normalized.eqs == ((1, -2, 3),)

    def test_infeasible_equality_by_gcd(self):
        # 2x = 1 has no integer solution.
        conjunct = Conjunct(1, 0, eqs=[(2, -1)])
        assert omega.normalize(conjunct) is None

    def test_inequality_tightening(self):
        # 2x - 1 >= 0  =>  x >= 1  (tightened to x - 1 >= 0)
        conjunct = Conjunct(1, 0, ineqs=[(2, -1)])
        normalized = omega.normalize(conjunct)
        assert normalized.ineqs == ((1, -1),)

    def test_constant_contradiction(self):
        conjunct = Conjunct(1, 0, ineqs=[(0, -1)])
        assert omega.normalize(conjunct) is None

    def test_trivial_constraints_removed(self):
        conjunct = Conjunct(1, 0, eqs=[(0, 0)], ineqs=[(0, 5)])
        normalized = omega.normalize(conjunct)
        assert normalized.eqs == ()
        assert normalized.ineqs == ()

    def test_opposite_inequalities_promoted_to_equality(self):
        # x >= 3 and x <= 3  =>  x = 3
        conjunct = Conjunct(1, 0, ineqs=[(1, -3), (-1, 3)])
        normalized = omega.normalize(conjunct)
        assert len(normalized.eqs) == 1
        assert not normalized.ineqs

    def test_conflicting_bounds_detected(self):
        # x >= 4 and x <= 3
        conjunct = Conjunct(1, 0, ineqs=[(1, -4), (-1, 3)])
        assert omega.normalize(conjunct) is None


class TestEliminateCol:
    def test_unit_equality_substitution(self):
        # x = 2k - 2, 1 <= k <= 4 ; eliminate k (column 1)
        conjunct = Conjunct(2, 0, eqs=[(1, -2, 2)], ineqs=[(0, 1, -1), (0, -1, 4)])
        pieces = omega.eliminate_col(conjunct, 1)
        # Result should describe x in {0, 2, 4, 6}
        values = set()
        for piece in pieces:
            for x in range(-2, 10):
                if omega.is_feasible(piece.substitute_vars([x])):
                    values.add(x)
        assert values == {0, 2, 4, 6}

    def test_projection_keeps_divisibility(self):
        # exists k: x = 2k   ==> x even
        conjunct = Conjunct(2, 0, eqs=[(1, -2, 0)])
        pieces = omega.project_cols(conjunct, [1])
        assert pieces
        even = {x for x in range(-6, 7) if any(omega.is_feasible(p.substitute_vars([x])) for p in pieces)}
        assert even == {-6, -4, -2, 0, 2, 4, 6}

    def test_inequality_elimination_exact_case(self):
        # 0 <= y <= 5, x = some var with  y <= x <= y + 2 ; eliminate y
        conjunct = Conjunct(
            2,
            0,
            ineqs=[
                (0, 1, 0),    # y >= 0
                (0, -1, 5),   # y <= 5
                (1, -1, 0),   # x >= y
                (-1, 1, 2),   # x <= y + 2
            ],
        )
        pieces = omega.eliminate_col(conjunct, 1)
        values = {x for x in range(-3, 12) if any(omega.is_feasible(p.substitute_vars([x])) for p in pieces)}
        assert values == set(range(0, 8))

    def test_unbounded_direction(self):
        # x <= y (no lower bound on y): projection over x is everything
        conjunct = Conjunct(2, 0, ineqs=[(-1, 1, 0)])
        pieces = omega.eliminate_col(conjunct, 1)
        assert len(pieces) == 1
        assert pieces[0].is_universe()

    def test_non_unit_coefficient_equality(self):
        # 2x = y, eliminate x: y must be even.
        conjunct = Conjunct(2, 0, eqs=[(2, -1, 0)])
        pieces = omega.eliminate_col(conjunct, 0)
        values = {y for y in range(-6, 7) if any(omega.is_feasible(p.substitute_vars([y])) for p in pieces)}
        assert values == {-6, -4, -2, 0, 2, 4, 6}

    def test_inexact_inequality_elimination_against_bruteforce(self):
        # 3 <= 2y <= x with 0 <= x <= 9: the projection onto x needs dark shadow / splinters.
        conjunct = Conjunct(
            2,
            0,
            ineqs=[
                (0, 2, -3),   # 2y >= 3
                (1, -2, 0),   # x >= 2y
                (1, 0, 0),    # x >= 0
                (-1, 0, 9),   # x <= 9
            ],
        )
        expected = set()
        for x in range(0, 10):
            if any(2 * y >= 3 and x >= 2 * y for y in range(0, 10)):
                expected.add((x,))
        pieces = omega.eliminate_col(conjunct, 1)
        actual = set()
        for x in range(0, 10):
            if any(omega.is_feasible(p.substitute_vars([x])) for p in pieces):
                actual.add((x,))
        assert actual == expected


class TestFeasibility:
    def test_simple_feasible(self):
        conjunct = Conjunct(1, 0, ineqs=[(1, 0), (-1, 10)])
        assert omega.is_feasible(conjunct)

    def test_simple_infeasible(self):
        conjunct = Conjunct(1, 0, ineqs=[(1, -5), (-1, 3)])
        assert not omega.is_feasible(conjunct)

    def test_parity_infeasible(self):
        # x = 2a and x = 2b + 1 simultaneously
        conjunct = Conjunct(1, 2, eqs=[(1, -2, 0, 0), (1, 0, -2, -1)])
        assert not omega.is_feasible(conjunct)

    def test_needs_integer_reasoning(self):
        # 2 <= 3x <= 4 has the rational solution x = 1 (3*1=3); so feasible.
        conjunct = Conjunct(1, 0, ineqs=[(3, -2), (-3, 4)])
        assert omega.is_feasible(conjunct)
        # 4 <= 3x <= 5 has no integer solution although rationally feasible.
        conjunct = Conjunct(1, 0, ineqs=[(3, -4), (-3, 5)])
        assert not omega.is_feasible(conjunct)

    def test_zero_dimensional(self):
        assert omega.is_feasible(Conjunct(0, 0))
        assert not omega.is_feasible(Conjunct(0, 0, ineqs=[(-1,)]))

    @pytest.mark.parametrize("bound", [1, 2, 5, 17])
    def test_box_always_feasible(self, bound):
        conjunct = Conjunct(2, 0, ineqs=[(1, 0, 0), (-1, 0, bound), (0, 1, 0), (0, -1, bound)])
        assert omega.is_feasible(conjunct)


class TestComplement:
    def test_complement_of_interval(self):
        conjunct = Conjunct(1, 0, ineqs=[(1, 0), (-1, 5)])  # 0 <= x <= 5
        pieces = omega.complement(conjunct)
        inside = set(range(0, 6))
        for x in range(-10, 16):
            in_complement = any(omega.is_feasible(p.substitute_vars([x])) for p in pieces)
            assert in_complement == (x not in inside)

    def test_complement_of_divisibility(self):
        # x even (0 <= x <= 10)
        conjunct = Conjunct(1, 1, eqs=[(1, -2, 0)], ineqs=[(1, 0, 0), (-1, 0, 10)])
        pieces = omega.complement(conjunct)
        for x in range(-4, 15):
            in_original = (x % 2 == 0) and 0 <= x <= 10
            in_complement = any(omega.is_feasible(p.substitute_vars([x])) for p in pieces)
            assert in_complement == (not in_original), x

    def test_complement_of_universe_is_empty(self):
        assert omega.complement(Conjunct.universe(1)) == []

    def test_complement_of_empty_is_universe(self):
        conjunct = Conjunct(1, 0, ineqs=[(0, -1)])
        pieces = omega.complement(conjunct)
        assert len(pieces) == 1
        assert pieces[0].is_universe()

    def test_complement_of_equality(self):
        conjunct = Conjunct(1, 0, eqs=[(1, -3)])  # x = 3
        pieces = omega.complement(conjunct)
        for x in range(-2, 9):
            in_complement = any(omega.is_feasible(p.substitute_vars([x])) for p in pieces)
            assert in_complement == (x != 3)


class TestConjunctIntersect:
    """One trusted construction with the layout of add_divs + with_constraints."""

    @staticmethod
    def reference(first, second):
        shift = first.n_div

        def relocate(vec):
            n = second.n_vars
            return vec[:n] + (0,) * shift + vec[n:]

        return first.add_divs(second.n_div).with_constraints(
            eqs=[relocate(v) for v in second.eqs], ineqs=[relocate(v) for v in second.ineqs]
        )

    PLAIN = Conjunct(2, 0, eqs=[(1, -1, 0)], ineqs=[(1, 0, 0), (-1, 0, 9)])
    ONE_DIV = Conjunct(2, 1, eqs=[(1, 0, -2, 0)], ineqs=[(0, 1, 0, 1)])
    TWO_DIVS = Conjunct(2, 2, eqs=[(1, 0, -3, 0, 1), (0, 1, 0, -2, 0)], ineqs=[(0, 0, 1, 0, 4)])

    @pytest.mark.parametrize(
        "first, second",
        [
            (PLAIN, PLAIN),
            (PLAIN, ONE_DIV),
            (ONE_DIV, PLAIN),
            (ONE_DIV, TWO_DIVS),
            (TWO_DIVS, ONE_DIV),
        ],
        ids=["no-divs", "divs-right", "divs-left", "divs-both", "divs-both-swapped"],
    )
    def test_matches_widen_then_append(self, first, second):
        result = omega.conjunct_intersect(first, second)
        expected = self.reference(first, second)
        assert (result.n_vars, result.n_div, result.eqs, result.ineqs) == (
            expected.n_vars,
            expected.n_div,
            expected.eqs,
            expected.ineqs,
        )

    def test_rejects_different_public_arity(self):
        with pytest.raises(ValueError):
            omega.conjunct_intersect(self.PLAIN, Conjunct(1, 0))


class TestSimplify:
    def test_drop_unused_divs(self):
        conjunct = Conjunct(1, 2, ineqs=[(1, 0, 0, 0)])
        simplified = omega.simplify(conjunct)
        assert simplified.n_div == 0

    def test_substitute_unit_divs(self):
        # exists e: x = e and e <= 5  ==>  x <= 5
        conjunct = Conjunct(1, 1, eqs=[(1, -1, 0)], ineqs=[(0, -1, 5)])
        simplified = omega.simplify(conjunct)
        assert simplified.n_div == 0
        assert simplified.ineqs == ((-1, 5),)

    def test_div_canonicalisation_moves_bounds_to_public(self):
        # exists k: x = 2k - 2 and 1 <= k <= 4: the k-bounds must become x-bounds.
        conjunct = Conjunct(1, 1, eqs=[(1, -2, 2)], ineqs=[(0, 1, -1), (0, -1, 4)])
        simplified = omega.simplify(conjunct)
        # The div may remain (divisibility), but no inequality may involve it.
        for vec in simplified.ineqs:
            assert all(vec[c] == 0 for c in range(simplified.n_vars, simplified.const_col))

    def test_duplicate_divisibilities_are_merged(self):
        # two copies of "x even"
        conjunct = Conjunct(1, 2, eqs=[(1, -2, 0, 0), (1, 0, -2, 0)])
        simplified = omega.simplify(conjunct)
        assert simplified.n_div == 1

    def test_infeasible_detected(self):
        conjunct = Conjunct(1, 0, eqs=[(0, 3)])
        assert omega.simplify(conjunct) is None


class TestScaledSubstitution:
    def test_cancels_column(self):
        vec = (3, 4, 5, 6)
        eq = (1, 2, 0, 4)
        result = omega._scaled_substitution(vec, eq, 1)
        assert result[1] == 0

    def test_preserves_solutions(self):
        # eq: x - 2e = 0 ; vec (ineq): e - 1 >= 0  -> substituting gives x - 2 >= 0
        eq = (1, -2, 0)
        vec = (0, 1, -1)
        result = omega._scaled_substitution(vec, eq, 1)
        assert result == (1, 0, -2)
