"""Property-based tests (hypothesis) for the Presburger set algebra.

Random small sets over a bounded box are generated both symbolically and as
explicit point sets; every algebraic operation must agree with Python set
semantics, and the usual lattice laws must hold.
"""

from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.presburger import LinExpr, Map, Set, eq_, ge_, le_
from repro.presburger.conjunct import Conjunct

BOX_LOW, BOX_HIGH = 0, 7
BOX = [(x,) for x in range(BOX_LOW, BOX_HIGH + 1)]


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
@st.composite
def conjunct_1d(draw) -> Conjunct:
    """A random 1-D conjunct with small coefficients inside the test box."""
    constraints = []
    count = draw(st.integers(min_value=0, max_value=3))
    for _ in range(count):
        a = draw(st.integers(min_value=-3, max_value=3))
        c = draw(st.integers(min_value=-8, max_value=8))
        is_eq = draw(st.booleans())
        constraints.append(((a, c), is_eq))
    eqs = [vec for vec, is_eq in constraints if is_eq]
    ineqs = [vec for vec, is_eq in constraints if not is_eq]
    # Always stay within the box so enumeration is cheap.
    ineqs.append((1, -BOX_LOW))
    ineqs.append((-1, BOX_HIGH))
    return Conjunct(1, 0, eqs, ineqs)


@st.composite
def set_1d(draw) -> Set:
    conjuncts = draw(st.lists(conjunct_1d(), min_size=1, max_size=3))
    return Set(["x"], conjuncts)


def explicit(s: Set) -> frozenset:
    return frozenset(p for p in BOX if s.contains(p))


# --------------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(set_1d(), set_1d())
def test_union_matches_point_semantics(a, b):
    assert explicit(a.union(b)) == explicit(a) | explicit(b)


@settings(max_examples=60, deadline=None)
@given(set_1d(), set_1d())
def test_intersection_matches_point_semantics(a, b):
    assert explicit(a.intersect(b)) == explicit(a) & explicit(b)


@settings(max_examples=60, deadline=None)
@given(set_1d(), set_1d())
def test_subtraction_matches_point_semantics(a, b):
    assert explicit(a.subtract(b)) == explicit(a) - explicit(b)


@settings(max_examples=60, deadline=None)
@given(set_1d(), set_1d())
def test_subset_matches_point_semantics(a, b):
    assert a.is_subset(b) == (explicit(a) <= explicit(b))


@settings(max_examples=60, deadline=None)
@given(set_1d())
def test_emptiness_matches_point_semantics(a):
    # The symbolic set may extend beyond the box only through the box bounds we
    # added, so emptiness must coincide with the explicit enumeration.
    assert a.is_empty() == (len(explicit(a)) == 0)


@settings(max_examples=40, deadline=None)
@given(set_1d(), set_1d(), set_1d())
def test_distributivity(a, b, c):
    left = a.intersect(b.union(c))
    right = a.intersect(b).union(a.intersect(c))
    assert left.is_equal(right)


@settings(max_examples=40, deadline=None)
@given(set_1d(), set_1d())
def test_subtract_then_union_recovers_superset(a, b):
    # (a - b) | (a & b) == a
    rebuilt = a.subtract(b).union(a.intersect(b))
    assert rebuilt.is_equal(a)


@settings(max_examples=40, deadline=None)
@given(set_1d())
def test_double_complement_within_box(a):
    box = Set.build(["x"], [ge_(LinExpr.var("x"), BOX_LOW), le_(LinExpr.var("x"), BOX_HIGH)])
    complement = box.subtract(a)
    double = box.subtract(complement)
    assert explicit(double) == explicit(a)


@settings(max_examples=40, deadline=None)
@given(set_1d())
def test_points_agree_with_contains(a):
    enumerated = set(a.points())
    for point in BOX:
        assert (point in enumerated) == a.contains(point)


# --------------------------------------------------------------------------- #
# Map properties
# --------------------------------------------------------------------------- #
@st.composite
def affine_map(draw) -> Map:
    """A random affine map k -> a*k + b restricted to the box."""
    a = draw(st.integers(min_value=-2, max_value=2))
    b = draw(st.integers(min_value=-3, max_value=3))
    k, o0 = LinExpr.var("k"), LinExpr.var("o0")
    return Map.build(
        ["k"], ["o0"], [eq_(o0, a * k + b), ge_(k, BOX_LOW), le_(k, BOX_HIGH)]
    )


@settings(max_examples=40, deadline=None)
@given(affine_map(), affine_map())
def test_composition_matches_pointwise(first, second):
    composed = first.compose(second)
    first_pairs = dict(first.pairs())
    second_pairs = dict(second.pairs())
    expected = {
        (x, second_pairs[y]) for x, y in first_pairs.items() if y in second_pairs
    }
    assert set(composed.pairs()) == expected


@settings(max_examples=40, deadline=None)
@given(affine_map())
def test_inverse_swaps_pairs(m):
    assert set(m.inverse().pairs()) == {(y, x) for x, y in m.pairs()}


@settings(max_examples=40, deadline=None)
@given(affine_map())
def test_affine_maps_are_single_valued(m):
    assert m.is_single_valued()


@settings(max_examples=40, deadline=None)
@given(affine_map())
def test_domain_range_consistency(m):
    pairs = list(m.pairs())
    assert set(m.domain().points()) == {x for x, _ in pairs}
    assert set(m.range().points()) == {y for _, y in pairs}
