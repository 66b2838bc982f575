"""The containment decision against the difference and a point oracle.

``_union_is_subset(a, b)`` decides whether ``a - b`` is empty without
building it: it drops the conjuncts *a* shares with *b*, subtracts every
conjunct of *b* but the last, and stops at the first feasible
``piece and negation`` of the last one.  These tests check it against
``not _union_subtract(a, b)`` and against the brute-force box oracle of
``test_kernel.py`` (:mod:`repro.solvers.enum_backend`, which shares no code
with the omega core) on random small unions of two-dimensional conjuncts:
multi-conjunct *b*, divisibility constraints (an existential column),
pinned coordinates, empty operands, shared conjuncts and unbounded sets.

The constraints have unit coefficients and constants in ``[-3, 3]``, so
every vertex of a difference piece lies within 8 of the origin and every
congruence repeats within 3; the box reaches 12 in each direction, which
makes the box comparison exact.  ``test_box_is_wide_enough`` checks that
claim on the cases themselves.
"""

import functools
import random

import pytest

from repro.presburger import Set, opcache, parse_set
from repro.presburger.conjunct import Conjunct
from repro.presburger.setmap import _union_is_subset, _union_subtract
from repro.solvers import enum_backend as oracle

NAMES = ("x", "y")
BOX = range(-12, 13)
WIDER = range(-16, 17)
SEEDS = (1, 2, 3)
PAIRS_PER_SEED = 60


def _unit(rng):
    return rng.choice((-1, 0, 0, 1))


def _random_conjunct(rng):
    """A random conjunct over ``[x, y]``; no inequality at all leaves it unbounded."""
    ineqs = [(_unit(rng), _unit(rng), rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))]
    eqs = []
    if rng.random() < 0.3:  # a pinned coordinate
        column = rng.randrange(2)
        eqs.append((1 - column, column, rng.randint(-3, 3)))
    if rng.random() < 0.3:  # modulus | a*x + b*y + c, through one existential
        modulus = rng.choice((2, 3))
        divisibility = (rng.choice((-1, 1)), _unit(rng), -modulus, rng.randint(0, modulus - 1))
        return Conjunct(2, 1, [_widen(v) for v in eqs] + [divisibility], [_widen(v) for v in ineqs])
    return Conjunct(2, 0, eqs, ineqs)


def _widen(vec):
    """*vec* with a zero coefficient for the existential column."""
    return vec[:2] + (0,) + vec[2:]


def _random_union(rng, low, high):
    return Set(NAMES, [_random_conjunct(rng) for _ in range(rng.randint(low, high))])


def _cases(seed):
    """Pairs ``(a, b)`` of conjunct tuples, each a cleaned :class:`Set`'s."""
    rng = random.Random(seed)
    cases = []
    for index in range(PAIRS_PER_SEED):
        b = _random_union(rng, 0 if index % 10 == 0 else 1, 3)
        a = _random_union(rng, 0 if index % 10 == 5 else 1, 2)
        a_conjuncts = a.conjuncts
        if b.conjuncts and index % 3 == 0:  # a shares conjuncts with b
            a_conjuncts = tuple(rng.sample(b.conjuncts, rng.randint(1, len(b.conjuncts)))) + a_conjuncts
        cases.append((a_conjuncts, b.conjuncts))
    return cases


@functools.lru_cache(maxsize=None)
def _conjunct_points(conjunct, box):
    return oracle.points(conjunct, box)


def _points(conjuncts, box=BOX):
    return frozenset().union(*(_conjunct_points(conjunct, box) for conjunct in conjuncts))


def _sweep(seed):
    decisions = []
    for a, b in _cases(seed):
        expected = _points(a) <= _points(b)
        label = (Set(NAMES, a, _clean_input=False), Set(NAMES, b, _clean_input=False))
        assert _union_is_subset(a, b) == expected, label
        assert (not _union_subtract(a, b)) == expected, label
        assert _union_is_subset(a, b) == expected, label  # a memo hit when the cache is on
        decisions.append(expected)
    return decisions


@pytest.mark.parametrize("seed", SEEDS)
def test_decision_matches_subtraction_and_oracle(seed):
    decisions = _sweep(seed)
    # Both answers occur, so neither a constant True nor a constant False passes.
    assert 0 < sum(decisions) < len(decisions)


@pytest.mark.parametrize("seed", SEEDS)
def test_decision_without_the_cache(seed):
    with opcache.disabled():
        _sweep(seed)


def test_cases_cover_the_shapes():
    cases = [case for seed in SEEDS for case in _cases(seed)]
    assert any(not a for a, _ in cases) and any(not b for _, b in cases)
    assert sum(len(b) > 1 for _, b in cases) > 20
    assert sum(any(c.n_div for c in a + b) for a, b in cases) > 20
    assert sum(bool(set(a) & set(b)) for a, b in cases) > 20
    unbounded = [
        conjunct
        for a, b in cases
        for conjunct in a + b
        if _points((conjunct,)) != _points((conjunct,), WIDER)
    ]
    assert len(unbounded) > 20


def test_box_is_wide_enough():
    for seed in SEEDS:
        for a, b in _cases(seed):
            assert (_points(a) <= _points(b)) == (_points(a, WIDER) <= _points(b, WIDER))


class TestHandPicked:
    @staticmethod
    def _decide(a_text, b_text):
        a, b = parse_set(a_text), parse_set(b_text)
        answer = _union_is_subset(a.conjuncts, b.conjuncts)
        assert answer == (not _union_subtract(a.conjuncts, b.conjuncts))
        return answer

    def test_unbounded_inside_unbounded(self):
        assert self._decide("{ [x] : x >= 0 }", "{ [x] : x >= -1 }")

    def test_unbounded_outside_bounded(self):
        assert not self._decide("{ [x] : x >= 0 }", "{ [x] : 0 <= x <= 100 }")

    def test_pinned_coordinate_differs(self):
        assert not self._decide("{ [x, y] : y = 5 and 0 <= x < 8 }", "{ [x, y] : y = 8 and 0 <= x < 8 }")

    def test_covered_only_by_the_union(self):
        assert self._decide(
            "{ [x] : 0 <= x < 10 }", "{ [x] : 0 <= x < 4; [x] : 4 <= x < 10 }"
        )

    def test_parity_split(self):
        assert self._decide(
            "{ [x] : 0 <= x < 10 }",
            "{ [x] : exists e : x = 2e; [x] : exists e : x = 2e + 1 }",
        )
        assert not self._decide("{ [x] : 0 <= x < 10 }", "{ [x] : exists e : x = 2e }")
