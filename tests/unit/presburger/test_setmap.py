"""Unit tests for Set and Map (the user-facing Presburger API)."""

import re

import pytest

from repro.presburger import (
    LinExpr,
    Map,
    Set,
    SpaceMismatchError,
    UnboundedSetError,
    eq_,
    ge_,
    le_,
    parse_map,
    parse_set,
)


def _names(text):
    """The dimension names a rendered constraint or header mentions."""
    return set(re.findall(r"[A-Za-z_]\w*'?", text)) - {"and"}


def interval(name, low, high):
    return Set.build([name], [ge_(LinExpr.var(name), low), le_(LinExpr.var(name), high)])


class TestSetBasics:
    def test_universe_and_empty(self):
        assert Set.universe(["x"]).is_universe()
        assert Set.empty(["x"]).is_empty()

    def test_build_and_contains(self):
        s = interval("x", 0, 9)
        assert s.contains([0]) and s.contains([9])
        assert not s.contains([10]) and not s.contains([-1])

    def test_from_points_roundtrip(self):
        s = Set.from_points(["x", "y"], [(1, 2), (3, 4)])
        assert sorted(s.points()) == [(1, 2), (3, 4)]

    def test_points_and_count(self):
        s = interval("x", 2, 6)
        assert sorted(s.points()) == [(2,), (3,), (4,), (5,), (6,)]
        assert s.count() == 5

    def test_points_of_empty_set(self):
        assert list(Set.empty(["x"]).points()) == []

    def test_unbounded_enumeration_raises(self):
        s = Set.build(["x"], [ge_(LinExpr.var("x"), 0)])
        with pytest.raises(UnboundedSetError):
            list(s.points())

    def test_arity_mismatch_raises(self):
        with pytest.raises(SpaceMismatchError):
            interval("x", 0, 3).intersect(Set.universe(["a", "b"]))

    def test_zero_dimensional_set(self):
        s = Set.universe([])
        assert not s.is_empty()
        assert list(s.points()) == [()]


class TestSetAlgebra:
    def test_intersection(self):
        a = interval("x", 0, 10)
        b = interval("x", 5, 15)
        assert sorted(a.intersect(b).points()) == [(x,) for x in range(5, 11)]

    def test_union(self):
        a = interval("x", 0, 2)
        b = interval("x", 5, 6)
        union = a.union(b)
        assert sorted(union.points()) == [(0,), (1,), (2,), (5,), (6,)]

    def test_subtract(self):
        a = interval("x", 0, 9)
        b = interval("x", 3, 5)
        assert sorted(a.subtract(b).points()) == [(0,), (1,), (2,), (6,), (7,), (8,), (9,)]

    def test_subset_and_equality(self):
        a = interval("x", 0, 4)
        b = interval("x", 0, 9)
        assert a.is_subset(b)
        assert not b.is_subset(a)
        assert a.is_equal(interval("x", 0, 4))
        assert a != b

    def test_disjoint(self):
        assert interval("x", 0, 3).is_disjoint(interval("x", 5, 8))
        assert not interval("x", 0, 5).is_disjoint(interval("x", 5, 8))

    def test_subtract_with_divisibility(self):
        full = parse_set("{ [k] : 0 <= k < 12 }")
        even = parse_set("{ [k] : exists j : k = 2j and 0 <= k < 12 }")
        odd = full.subtract(even)
        assert sorted(odd.points()) == [(k,) for k in range(1, 12, 2)]
        assert even.union(odd).is_equal(full)

    def test_project_out(self):
        square = Set.build(
            ["x", "y"],
            [ge_(LinExpr.var("x"), 0), le_(LinExpr.var("x"), 3), ge_(LinExpr.var("y"), 0), le_(LinExpr.var("y"), 2)],
        )
        projected = square.project_out(["y"])
        assert sorted(projected.points()) == [(0,), (1,), (2,), (3,)]

    def test_union_with_a_contained_set_equals_the_larger(self):
        a = interval("x", 0, 9)
        b = interval("x", 2, 4)
        union = a.union(b)
        assert union.is_equal(a)
        assert sorted(union.points()) == [(x,) for x in range(10)]

    def test_operators(self):
        a, b = interval("x", 0, 5), interval("x", 3, 8)
        assert (a & b).is_equal(interval("x", 3, 5))
        assert ((a | b)).is_equal(interval("x", 0, 8))
        assert (a - b).is_equal(interval("x", 0, 2))


class TestMapBasics:
    def test_identity(self):
        ident = Map.identity(["x"])
        assert ident.contains([4], [4])
        assert not ident.contains([4], [5])

    def test_build_with_output_equalities(self):
        k, o = LinExpr.var("k"), LinExpr.var("o")
        m = Map.build(["k"], ["o"], [eq_(o, 2 * k), ge_(k, 0), le_(k, 3)])
        assert sorted(m.pairs()) == [((0,), (0,)), ((1,), (2,)), ((2,), (4,)), ((3,), (6,))]
        assert m.is_equal(parse_map("{ [k] -> [2k] : 0 <= k < 4 }"))

    def test_domain_and_range(self):
        m = parse_map("{ [k] -> [2k] : 0 <= k < 4 }")
        assert sorted(m.domain().points()) == [(0,), (1,), (2,), (3,)]
        assert sorted(m.range().points()) == [(0,), (2,), (4,), (6,)]

    def test_inverse(self):
        m = parse_map("{ [k] -> [k + 3] : 0 <= k < 3 }")
        assert sorted(m.inverse().pairs()) == [((3,), (0,)), ((4,), (1,)), ((5,), (2,))]

    def test_compose_paper_example(self):
        # Section 3.2: M_C,tmp . M_tmp,B1  =  {[k] -> [2k]}
        c_tmp = parse_map("{ [k] -> [k] : 0 <= k < 1024 }")
        tmp_b = parse_map("{ [k] -> [2k] : 0 <= k < 1024 }")
        composed = c_tmp.compose(tmp_b)
        assert composed.is_equal(parse_map("{ [k] -> [2k] : 0 <= k < 1024 }"))

    def test_compose_strided(self):
        first = parse_map("{ [k] -> [2k] : 0 <= k < 8 }")
        second = parse_map("{ [x] -> [x + 1] : exists j : x = 2j }")
        composed = first.compose(second)
        assert sorted(composed.pairs()) == [((k,), (2 * k + 1,)) for k in range(8)]

    def test_compose_arity_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            Map.identity(["x"]).compose(Map.identity(["a", "b"]))

    def test_apply_and_preimage(self):
        m = parse_map("{ [k] -> [2k] : 0 <= k < 8 }")
        image = m.apply(parse_set("{ [k] : 2 <= k <= 3 }"))
        assert sorted(image.points()) == [(4,), (6,)]
        pre = m.preimage(parse_set("{ [x] : 4 <= x <= 6 }"))
        assert sorted(pre.points()) == [(2,), (3,)]

    def test_restrict_domain_and_range(self):
        m = parse_map("{ [k] -> [k] : 0 <= k < 10 }")
        restricted = m.restrict_domain(parse_set("{ [k] : k >= 5 }"))
        assert sorted(restricted.domain().points()) == [(k,) for k in range(5, 10)]
        restricted = m.restrict_range(parse_set("{ [k] : k <= 2 }"))
        assert sorted(restricted.range().points()) == [(0,), (1,), (2,)]


class TestMapProperties:
    def test_single_valued_and_injective(self):
        doubling = parse_map("{ [k] -> [2k] : 0 <= k < 16 }")
        assert doubling.is_single_valued()
        assert doubling.is_injective()
        constant = parse_map("{ [k] -> [0] : 0 <= k < 16 }")
        assert constant.is_single_valued()
        assert not constant.is_injective()
        relation = parse_map("{ [k] -> [j] : 0 <= k < 4 and 0 <= j < 2 }")
        assert not relation.is_single_valued()

    def test_equality_of_piecewise_maps(self):
        split = parse_map("{ [k] -> [k] : 0 <= k < 4 ; [k] -> [k] : 4 <= k < 8 }")
        whole = parse_map("{ [k] -> [k] : 0 <= k < 8 }")
        assert split.is_equal(whole)

    def test_subtract_detects_difference_domain(self):
        double = parse_map("{ [x] -> [2x] : 0 <= x < 8 }")
        ident = parse_map("{ [x] -> [x] : 0 <= x < 8 }")
        difference = double.subtract(ident)
        # they agree only at x = 0
        assert sorted(difference.domain().points()) == [(x,) for x in range(1, 8)]

    def test_union_and_is_empty(self):
        m = Map.empty(["a"], ["b"])
        assert m.is_empty()
        assert not m.union(Map.identity(["a"])).is_empty()

    def test_rename_preserves_meaning(self):
        m = parse_map("{ [k] -> [2k] : 0 <= k < 4 }")
        renamed = m.rename(["i"], ["o"])
        assert renamed.is_equal(m)
        assert renamed.in_names == ("i",)

    def test_str_shows_image_form(self):
        m = parse_map("{ [k] -> [2k] : 0 <= k < 4 }")
        assert "2*k" in str(m)

    @pytest.mark.parametrize(
        "text",
        [
            "{ [k] -> [2k] : 0 <= k < 4 }",
            "{ [k] -> [j] : j = k and 0 <= k <= 7 and 0 <= j <= 7 }",
            "{ [k] -> [k] : 0 <= k <= 7 }",
            "{ [i, j] -> [a, b] : a = i and b = j and 0 <= j <= i < 4 and a + b <= 5 }",
            "{ [i] -> [o] : 0 <= i < 8 and 0 <= o < 8 }",
        ],
    )
    def test_str_names_every_body_variable_in_the_header(self, text):
        """The image form hides the output names, so it is used only when the
        body no longer mentions them."""
        rendered = str(parse_map(text))
        assert rendered.startswith("{ ") and rendered.endswith(" }")
        for piece in rendered[2:-2].split("; "):
            head, _, body = piece.partition(" : ")
            assert _names(body) <= _names(head), rendered

    @pytest.mark.parametrize(
        "text, rendered",
        [
            (
                "{ [k] -> [j] : j = k and 0 <= k <= 7 and 0 <= j <= 7 }",
                "{ [k] -> [k] : -k + 7 >= 0 and k >= 0 }",
            ),
            (
                "{ [i, j] -> [a, b] : a = i and b = j and 0 <= j <= i < 4 and a + b <= 5 }",
                "{ [i, j] -> [i, j] : -i - j + 5 >= 0 and -i + 3 >= 0 and j >= 0 and i - j >= 0 }",
            ),
            (
                "{ [k] -> [o] : o = 2k + 1 and 0 <= k and 3o <= 9 + k }",
                "{ [k] -> [2*k + 1] : -5*k + 6 >= 0 and k >= 0 }",
            ),
        ],
    )
    def test_str_substitutes_the_image_into_the_remaining_rows(self, text, rendered):
        """Bounds on an output that an equality defines are rewritten over the
        inputs, and the repeats this produces are dropped."""
        m = parse_map(text)
        assert str(m) == rendered
        assert parse_map(str(m)).is_equal(m)

    def test_str_does_no_presburger_work(self):
        from repro.presburger import opcache

        m = parse_map("{ [k] -> [j] : j = k and 0 <= k <= 7 and 0 <= j <= 7 }")
        with opcache.collect() as counts:
            assert str(m) == "{ [k] -> [k] : -k + 7 >= 0 and k >= 0 }"
        assert counts == opcache.OpCacheStats()

    @pytest.mark.parametrize("space", ["set", "map"])
    def test_str_does_not_depend_on_the_interned_row_order(self, space):
        """A relation prints the same whichever row order the process built first."""
        from repro.presburger import opcache
        from repro.presburger.conjunct import Conjunct

        a, b = (1, 0, 0), (-1, 0, 7)  # k >= 0, -k + 7 >= 0
        eq = (1, -1, 0)  # k = j

        def build(ineqs):
            if space == "set":
                return Set(["k", "j"], [Conjunct(2, 0, [eq], ineqs)])
            return Map(["k"], ["j"], [Conjunct(2, 0, [eq], ineqs)])

        opcache.reset()
        first = build([a, b])  # interns the conjunct with rows [a, b]
        with opcache.disabled():  # no pool: the rows keep the order [b, a]
            second = build([b, a])
        assert first.conjuncts[0].ineqs == (a, b)
        assert second.conjuncts[0].ineqs == (b, a)
        assert str(first) == str(second)
        parse = parse_set if space == "set" else parse_map
        assert parse(str(first)).is_equal(first)


def _power(relation, steps):
    """*relation* composed with itself, *steps* applications in all."""
    power = relation
    for _ in range(steps - 1):
        power = power.compose(relation)
    return power


class TestUniformRelationPowers:
    """Composition powers of the dependence relations recurrences produce."""

    def test_backward_chain_powers(self):
        relation = parse_map("{ [k] -> [k - 1] : 1 <= k < 8 }")
        for steps in range(1, 4):
            expected = {((i,), (i - steps,)) for i in range(steps, 8)}
            assert set(_power(relation, steps).pairs()) == expected

    def test_union_of_powers_reaches_every_earlier_element(self):
        relation = parse_map("{ [k] -> [k - 1] : 1 <= k < 8 }")
        reach = Map.empty(relation.in_names, relation.out_names)
        for steps in range(1, 8):
            reach = reach.union(_power(relation, steps))
        expected = {((i,), (j,)) for i in range(1, 8) for j in range(0, i)}
        assert set(reach.pairs()) == expected
        assert _power(relation, 8).is_empty()

    def test_forward_stride_powers(self):
        relation = parse_map("{ [k] -> [k + 2] : 0 <= k < 6 }")
        three_steps = _power(relation, 3)
        assert three_steps.contains([0], [6])
        assert not three_steps.contains([0], [4])
        assert set(three_steps.pairs()) == {((0,), (6,)), ((1,), (7,))}
        assert _power(relation, 4).is_empty()

    def test_two_dimensional_translation_power(self):
        relation = parse_map("{ [i, j] -> [i, j - 1] : 0 <= i < 3 and 1 <= j < 4 }")
        three_steps = _power(relation, 3)
        assert three_steps.contains([1, 3], [1, 0])
        assert not three_steps.contains([1, 3], [2, 0])
        assert set(three_steps.pairs()) == {((i, 3), (i, 0)) for i in range(3)}

    def test_power_of_the_empty_relation_is_empty(self):
        empty = Map.empty(["k"], ["k'"])
        assert _power(empty, 3).is_empty()

    def test_non_uniform_relation_powers(self):
        relation = parse_map("{ [k] -> [2k] : 1 <= k < 5 }")
        two_steps = _power(relation, 2)
        assert set(two_steps.pairs()) == {((1,), (4,)), ((2,), (8,))}
        assert set(_power(relation, 3).pairs()) == {((1,), (8,))}

    def test_acyclic_relation_powers_are_irreflexive(self):
        relation = parse_map("{ [k] -> [k - 1] : 1 <= k < 10 }")
        identity = parse_map("{ [k] -> [k] : 0 <= k < 10 }")
        for steps in range(1, 10):
            assert _power(relation, steps).intersect(identity).is_empty()
        assert _power(relation, 10).is_empty()


SHARED_BINARY_OPS = ("intersect", "union", "subtract", "is_subset", "is_equal", "is_disjoint")


def _keys(relation):
    return tuple(sorted(c.normalized_key() for c in relation.conjuncts))


class TestSharedAlgebraContract:
    """Set and Map share one union algebra; both must honour one contract."""

    SET = parse_set("{ [x] : 0 <= x < 4 }")
    MAP = parse_map("{ [k] -> [k + 1] : 0 <= k < 4 }")
    WIDER_SET = parse_set("{ [x, y] : 0 <= x < 4 and y = x }")
    WIDER_MAPS = (
        parse_map("{ [k] -> [k, k] : 0 <= k < 4 }"),
        parse_map("{ [i, j] -> [i] : 0 <= i < 4 and j = i }"),
    )

    @pytest.mark.parametrize("backend", ["omega", "crosscheck"])
    @pytest.mark.parametrize("op", SHARED_BINARY_OPS)
    def test_the_other_type_is_a_type_error(self, op, backend):
        from repro.solvers import use_backend

        with use_backend(backend):
            with pytest.raises(TypeError):
                getattr(self.SET, op)(self.MAP)
            with pytest.raises(TypeError):
                getattr(self.MAP, op)(self.SET)

    @pytest.mark.parametrize("backend", ["omega", "crosscheck"])
    @pytest.mark.parametrize("op", SHARED_BINARY_OPS)
    def test_an_arity_mismatch_is_a_space_error(self, op, backend):
        from repro.solvers import use_backend

        with use_backend(backend):
            with pytest.raises(SpaceMismatchError):
                getattr(self.SET, op)(self.WIDER_SET)
            for wider in self.WIDER_MAPS:
                with pytest.raises(SpaceMismatchError):
                    getattr(self.MAP, op)(wider)

    def test_a_set_never_equals_a_map(self):
        assert (self.SET == self.MAP) is False
        assert (self.MAP == self.SET) is False
        assert self.SET != self.MAP

    def test_equal_relations_built_differently_hash_alike(self):
        reordered = parse_set("{ [x] : x <= 3 and 2x >= 0 }")
        assert reordered == self.SET and hash(reordered) == hash(self.SET)
        assert hash(interval("x", 0, 3)) == hash(self.SET)
        k, o = LinExpr.var("k"), LinExpr.var("o")
        built = Map.build(["k"], ["o"], [eq_(o, k + 1), le_(k, 3), ge_(k, 0)])
        built = built.rename(["k"], self.MAP.out_names)
        assert built == self.MAP and hash(built) == hash(self.MAP)
        twice_inverted = self.MAP.inverse().inverse()
        assert twice_inverted == self.MAP and hash(twice_inverted) == hash(self.MAP)

    def test_hash_is_the_space_and_the_sorted_conjunct_keys(self):
        assert hash(self.SET) == hash((self.SET.names, _keys(self.SET)))
        m = self.MAP
        assert hash(m) == hash((m.in_names, m.out_names, _keys(m)))
