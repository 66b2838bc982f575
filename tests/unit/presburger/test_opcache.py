"""Differential and contract tests for the Presburger operation cache.

The cache layer (:mod:`repro.presburger.opcache`) must be a pure
optimization: every memoized operation has to return a value ``==`` to the
one the uncached code path computes, interning must preserve the
``__eq__`` / ``__hash__`` contracts exactly, and the LRU must stay within
its configured bound.  The tests run each operation twice — once against the
warm global cache, once inside ``opcache.disabled()`` — and compare.
"""

import sys
import threading

import pytest

from repro.checker import DiagnosticKind, check_equivalence
from repro.presburger import (
    Conjunct,
    LinExpr,
    Map,
    SpaceMismatchError,
    opcache,
    parse_map,
    parse_set,
)
from repro.verifier import Verifier
from repro.workloads.fig1 import fig1_original, fig1_ver1


@pytest.fixture(autouse=True)
def fresh_cache():
    """Start every test cold and leave the global cache clean afterwards."""
    opcache.reset()
    yield
    opcache.reset()
    opcache.cache().maxsize = opcache.DEFAULT_SIZE


MAP_SOURCES = [
    "{ [k] -> [2k - 2] : 1 <= k <= 64 }",
    "{ [k] -> [k + 1] : 0 <= k < 128 }",
    "{ [k] -> [k] : exists j : k = 2j and 0 <= k < 128 }",
    "{ [k] -> [2k] : 0 <= k < 32 ; [k] -> [2k] : 32 <= k < 64 }",
    "{ [i, j] -> [i, j - 1] : 0 <= i < 8 and 1 <= j < 8 }",
]

SET_SOURCES = [
    "{ [k] : 0 <= k < 128 }",
    "{ [k] : exists j : k = 2j and 0 <= k < 128 }",
    "{ [k] : 10 <= k < 40 }",
    "{ [i, j] : 0 <= i < 8 and 0 <= j < 8 }",
]


def _composable(left, right):
    return left.n_out == right.n_in


class TestMemoizedEqualsUncached:
    """Property-style sweep: cached result == uncached result, per operation."""

    @pytest.mark.parametrize("left_source", MAP_SOURCES)
    @pytest.mark.parametrize("right_source", MAP_SOURCES)
    def test_compose(self, left_source, right_source):
        left, right = parse_map(left_source), parse_map(right_source)
        if not _composable(left, right):
            pytest.skip("arity mismatch")
        cached = left.compose(right)
        again = left.compose(right)
        with opcache.disabled():
            uncached = left.compose(right)
        assert cached.is_equal(uncached)
        assert again is cached  # the second call is a cache hit returning the same object

    @pytest.mark.parametrize("source", MAP_SOURCES)
    def test_inverse(self, source):
        relation = parse_map(source)
        cached = relation.inverse()
        with opcache.disabled():
            uncached = relation.inverse()
        assert cached.is_equal(uncached)
        assert cached.inverse().is_equal(relation)

    @pytest.mark.parametrize(
        "source",
        [
            "{ [k] -> [k + 1] : 0 <= k < 32 }",
            "{ [i, j] -> [i, j - 1] : 0 <= i < 8 and 1 <= j < 8 }",
        ],
    )
    def test_composition_power(self, source):
        step = parse_map(source)

        def power_and_reach():
            power = step
            for _ in range(3):
                power = power.compose(step)
            return power, power.domain(), step.inverse().range()

        cached_power, cached_domain, cached_reach = power_and_reach()
        with opcache.disabled():
            uncached_power, uncached_domain, uncached_reach = power_and_reach()
        assert cached_power.is_equal(uncached_power)
        assert cached_domain.is_equal(uncached_domain)
        assert cached_reach.is_equal(uncached_reach)
        assert cached_domain.is_subset(cached_reach)
        assert power_and_reach()[0] is cached_power

    @pytest.mark.parametrize("left_source", SET_SOURCES)
    @pytest.mark.parametrize("right_source", SET_SOURCES)
    def test_intersect_and_subtract(self, left_source, right_source):
        left, right = parse_set(left_source), parse_set(right_source)
        if left.arity != right.arity:
            pytest.skip("arity mismatch")
        cached_and = left.intersect(right)
        cached_sub = left.subtract(right)
        with opcache.disabled():
            uncached_and = left.intersect(right)
            uncached_sub = left.subtract(right)
        assert cached_and.is_equal(uncached_and)
        assert cached_sub.is_equal(uncached_sub)

    @pytest.mark.parametrize("left_source", SET_SOURCES)
    @pytest.mark.parametrize("right_source", SET_SOURCES)
    def test_feasibility_queries(self, left_source, right_source):
        left, right = parse_set(left_source), parse_set(right_source)
        if left.arity != right.arity:
            pytest.skip("arity mismatch")
        cached = (left.is_empty(), left.is_subset(right), left.is_disjoint(right))
        with opcache.disabled():
            uncached = (left.is_empty(), left.is_subset(right), left.is_disjoint(right))
        assert cached == uncached

    @pytest.mark.parametrize("source", MAP_SOURCES)
    def test_domain_and_range(self, source):
        relation = parse_map(source)
        cached = (relation.domain(), relation.range())
        with opcache.disabled():
            uncached = (relation.domain(), relation.range())
        for warm, cold in zip(cached, uncached):
            assert warm.names == cold.names and warm.conjuncts == cold.conjuncts
            assert warm.is_equal(cold)

    @pytest.mark.parametrize("source", SET_SOURCES)
    def test_project_out(self, source):
        domain = parse_set(source)
        for name in domain.names:
            cached = domain.project_out([name])
            with opcache.disabled():
                uncached = domain.project_out([name])
            assert cached.names == uncached.names and cached.conjuncts == uncached.conjuncts
            assert cached.is_equal(uncached)

    @pytest.mark.parametrize(
        "map_source,set_source",
        [
            (map_source, set_source)
            for map_source in MAP_SOURCES
            for set_source in SET_SOURCES
            if parse_map(map_source).n_in == parse_set(set_source).arity
        ],
    )
    def test_restriction_apply_and_preimage(self, map_source, set_source):
        relation, domain = parse_map(map_source), parse_set(set_source)

        def results():
            return (
                relation.restrict_domain(domain),
                relation.restrict_range(domain),
                relation.apply(domain),
                relation.preimage(domain),
            )

        cached = results()
        with opcache.disabled():
            uncached = results()
        for warm, cold in zip(cached, uncached):
            assert warm.conjuncts == cold.conjuncts
            assert warm.is_equal(cold)

    def test_repeated_projection_and_restriction_hit(self):
        relation, domain = parse_map(MAP_SOURCES[1]), parse_set(SET_SOURCES[2])
        first = (relation.domain(), relation.restrict_domain(domain))
        with opcache.collect() as counts:
            second = (relation.domain(), relation.restrict_domain(domain))
        assert counts.per_op["project"] == (1, 0)
        assert counts.per_op["restrict"] == (1, 0)
        assert second[0].conjuncts is first[0].conjuncts
        assert second[1].conjuncts is first[1].conjuncts

    def test_restriction_sides_do_not_collide(self):
        relation, domain = parse_map(MAP_SOURCES[1]), parse_set(SET_SOURCES[2])
        at_input = relation.restrict_domain(domain)
        at_output = relation.restrict_range(domain)
        assert opcache.stats().per_op["restrict"] == (0, 2)
        assert not at_input.is_equal(at_output)

    def test_projected_columns_do_not_collide(self):
        box = parse_set("{ [i, j] : 0 <= i < 8 and 0 <= j < 4 }")
        without_i = box.project_out(["i"])
        without_j = box.project_out(["j"])
        assert opcache.stats().per_op["project"] == (0, 2)
        assert not without_i.rename(["k"]).is_equal(without_j.rename(["k"]))

    def test_fresh_parses_share_cached_results(self):
        """Structural keys mean a re-parsed relation hits the warm cache."""
        first = parse_map(MAP_SOURCES[0]).compose(parse_map(MAP_SOURCES[1]))
        with opcache.collect() as counts:
            second = parse_map(MAP_SOURCES[0]).compose(parse_map(MAP_SOURCES[1]))
        assert second is first
        assert counts.per_op.get("compose", (0, 0))[0] >= 1


class TestInterning:
    def test_conjunct_interning_preserves_eq_and_hash(self):
        original = Conjunct(1, 0, [(1, -4)], [(1, 0), (-1, 10)])
        twin = Conjunct(1, 0, [(1, -4)], [(-1, 10), (1, 0)])  # reordered ineqs
        canonical = opcache.intern_conjunct(original)
        canonical_twin = opcache.intern_conjunct(twin)
        assert canonical is opcache.intern_conjunct(original)
        assert canonical_twin is canonical  # same normalized key -> same object
        assert canonical == original and hash(canonical) == hash(original)
        assert canonical == twin and hash(canonical) == hash(twin)

    def test_linexpr_interning_preserves_eq_and_hash(self):
        built = 2 * LinExpr.var("k") - 2
        rebuilt = LinExpr({"k": 2}, -2)
        assert built.interned() is rebuilt.interned()
        assert built.interned() == rebuilt and hash(built.interned()) == hash(rebuilt)

    def test_var_and_constant_constructors_are_interned(self):
        assert LinExpr.var("k") is LinExpr.var("k")
        assert LinExpr.constant(7) is LinExpr.constant(7)
        assert LinExpr.var("k") is not LinExpr.var("j")

    def test_interning_disabled_is_identity(self):
        expr = LinExpr.var("z")
        with opcache.disabled():
            fresh = LinExpr({"z": 1}, 0)
            assert fresh.interned() is fresh

    def test_set_membership_after_interning(self):
        conjuncts = {opcache.intern_conjunct(Conjunct(1, 0, [(1, -i)], [])) for i in range(4)}
        assert Conjunct(1, 0, [(1, -2)], []) in conjuncts


class TestCacheMechanics:
    def test_lru_respects_maxsize(self):
        opcache.cache().maxsize = 4
        for i in range(32):
            parse_set(f"{{ [k] : 0 <= k < {i + 1} }}").is_empty()
        assert len(opcache.cache()) <= 4
        assert opcache.stats().evictions > 0

    def test_cache_is_bounded_by_the_fixed_default_size(self):
        assert opcache.DEFAULT_SIZE == 8192
        assert opcache.cache().maxsize == opcache.DEFAULT_SIZE
        opcache.reset()
        assert opcache.cache().maxsize == opcache.DEFAULT_SIZE

    def test_disable_switch_stops_hits(self):
        relation = parse_map(MAP_SOURCES[0])
        relation.inverse()
        with opcache.collect() as counts, opcache.disabled():
            relation.inverse()
            relation.inverse()
        assert counts.hits == 0 and counts.misses == 0

    @staticmethod
    def _even_interval():
        return Conjunct(1, 1, eqs=[(1, -2, 0)], ineqs=[(1, 0, 0), (-1, 0, 10)])

    def test_complement_is_kept_on_the_conjunct(self):
        from repro.presburger import omega

        conjunct = self._even_interval()
        first = omega.complement(conjunct)
        assert conjunct._negations is not None
        with opcache.disabled():
            fresh = omega.complement(self._even_interval())
        assert omega.complement(conjunct) == first == fresh
        assert list(conjunct._negations) == fresh
        omega.complement(conjunct).clear()  # callers get a copy
        assert omega.complement(conjunct) == fresh

    def test_disable_switch_neither_reads_nor_writes_kept_negations(self):
        from repro.presburger import omega

        conjunct = self._even_interval()
        with opcache.disabled():
            computed = omega.complement(conjunct)
            assert conjunct._negations is None  # not written
            conjunct._negations = ("stale",)
            assert omega.complement(conjunct) == computed  # not read
        assert conjunct._negations == ("stale",)

    def test_compose_arity_error_names_both_spaces(self):
        left = parse_map("{ [i, j] -> [i, j] : 0 <= i < 4 and 0 <= j < 4 }")
        right = parse_map("{ [k] -> [k] : 0 <= k < 4 }")
        with pytest.raises(SpaceMismatchError) as excinfo:
            left.compose(right)
        message = str(excinfo.value)
        assert "[i, j]" in message and "[k]" in message
        assert "output space" in message and "input space" in message

    def test_compose_arity_error_with_set_derived_map(self):
        """The Map.identity of a Set's space composes; a mismatched one explains itself."""
        domain = parse_set("{ [a, b] : 0 <= a < 4 and 0 <= b < 4 }")
        identity = Map.identity(domain.names, domain=domain)
        one_dim = parse_map("{ [k] -> [k] : 0 <= k < 4 }")
        with pytest.raises(SpaceMismatchError) as excinfo:
            one_dim.compose(identity)
        message = str(excinfo.value)
        assert "[a, b]" in message and "[k]" in message


class TestConcurrentMemoization:
    def test_two_threads_racing_hits_against_evictions(self):
        """A key evicted by another thread between lookup and LRU bump is still a hit."""
        cache = opcache.OpCache(maxsize=2)
        errors = []

        def worker(stride):
            try:
                for step in range(50000):
                    key = (step * stride) % 4
                    assert cache.memoized("op", key, lambda: key) == key
            except Exception as error:  # noqa: BLE001 - collected and asserted below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(stride,)) for stride in (1, 2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(previous)
        assert errors == []
        assert len(cache) <= 2


class TestCheckerIntegration:
    def test_fig1_check_reports_cache_hits(self):
        result = check_equivalence(fig1_original(), fig1_ver1())
        assert result.equivalent
        assert result.stats.opcache_hits > 0
        assert result.stats.intern_hits > 0
        assert result.stats.opcache_misses > 0

    def test_checkstats_roundtrip_includes_opcache_fields(self):
        result = check_equivalence(fig1_original(), fig1_ver1())
        data = result.stats.to_dict()
        assert data["opcache_hits"] == result.stats.opcache_hits
        restored = type(result.stats).from_dict(data)
        assert restored == result.stats

    @staticmethod
    def _check_and_process_delta(original, transformed):
        opcache.reset()
        result = Verifier().check(original, transformed)
        process = opcache.stats()
        counters = (result.stats.opcache_hits, result.stats.opcache_misses, result.stats.intern_hits)
        return result, counters, (process.hits, process.misses, process.intern_hits)

    def test_check_counters_cover_the_frontend(self):
        """The check's counters are all the process did for it, compile included."""
        result, counters, process = self._check_and_process_delta(fig1_original(), fig1_ver1())
        assert result.equivalent
        assert counters == process

    def test_a_precondition_failure_fills_the_counters(self):
        use_before_def = """
        f(int A[], int C[])
        {
            int k, t[8];
            for (k = 0; k < 8; k++)
        s1:     C[k] = t[k];
            for (k = 0; k < 8; k++)
        s2:     t[k] = A[k];
        }
        """
        result, counters, process = self._check_and_process_delta(use_before_def, use_before_def)
        assert {d.kind for d in result.diagnostics} == {DiagnosticKind.PRECONDITION}
        assert result.stats.opcache_misses > 0
        assert counters == process

    def test_verdict_is_cache_independent(self):
        cached = check_equivalence(fig1_original(), fig1_ver1())
        with opcache.disabled():
            uncached = check_equivalence(fig1_original(), fig1_ver1())
        assert cached.equivalent == uncached.equivalent
        assert cached.stats.compare_calls == uncached.stats.compare_calls
        assert uncached.stats.opcache_hits == 0


class TestWorkCounts:
    """``OpCacheStats`` owns the omega core's work counts (always on)."""

    def _cold_check_delta(self):
        from repro.verifier import Verifier

        with opcache.collect() as counts:
            assert Verifier().check(fig1_original(), fig1_ver1()).equivalent
        return counts

    def test_cold_check_counts_eliminations_and_feasibility_tests(self):
        delta = self._cold_check_delta()
        assert delta.fm_eliminations > 0
        assert delta.feasibility_checks > 0

    def test_reset_zeroes_the_work_counts(self):
        self._cold_check_delta()
        opcache.reset()
        assert opcache.stats().fm_eliminations == 0
        assert opcache.stats().feasibility_checks == 0

    def test_merge_round_trips_an_as_dict_delta(self):
        delta = self._cold_check_delta()
        assert delta.per_op
        merged = opcache.OpCacheStats()
        merged.merge(delta.as_dict())
        assert merged == delta
        merged.merge(delta.as_dict())
        assert merged.fm_eliminations == 2 * delta.fm_eliminations
        op, (hits, misses) = next(iter(delta.per_op.items()))
        assert merged.per_op[op] == (2 * hits, 2 * misses)

    def test_copy_is_independent_of_the_live_counts(self):
        """``stats()`` copies the totals; later writes do not reach the copy."""
        self._cold_check_delta()
        copied = opcache.stats()
        assert copied == opcache.stats()
        opcache.cache().count("fm_eliminations")
        opcache.cache().count("feasibility_checks")
        assert copied.fm_eliminations == opcache.stats().fm_eliminations - 1
        assert copied.feasibility_checks == opcache.stats().feasibility_checks - 1

    def test_nested_collectors_add_into_the_enclosing_one(self):
        with opcache.collect() as outer:
            opcache.cache().count("fm_eliminations", 3)
            with opcache.collect() as inner:
                opcache.cache().count("fm_eliminations", 7)
                opcache.cache().record("compose", hit=True)
                assert outer.fm_eliminations == 3  # nothing passes on before the exit
            assert opcache.stats() == opcache.OpCacheStats()
        assert (inner.fm_eliminations, inner.per_op) == (7, {"compose": (1, 0)})
        assert (outer.fm_eliminations, outer.per_op) == (10, {"compose": (1, 0)})
        assert opcache.stats() == outer  # the outermost collector lands in the totals

    def test_as_dict_carries_the_work_counts(self):
        data = opcache.OpCacheStats(
            fm_eliminations=2, dark_shadow_splinters=1, feasibility_checks=9
        ).as_dict()
        assert data["fm_eliminations"] == 2
        assert data["dark_shadow_splinters"] == 1
        assert data["feasibility_checks"] == 9
        assert data["per_op"] == {}

    def test_merge_of_an_empty_payload_changes_nothing(self):
        delta = self._cold_check_delta()
        merged = opcache.OpCacheStats()
        merged.merge(delta.as_dict())
        merged.merge({})
        assert merged == delta

    def test_feasibility_decisions_are_counted(self):
        from repro.presburger import omega

        with opcache.collect() as counts:
            assert omega.is_feasible(Conjunct(1, 0, ineqs=[(1, 0), (-1, 7)]))
        assert counts.feasibility_checks >= 1

    def test_dark_shadow_splinters_are_counted(self):
        from repro.presburger import omega

        # 3a <= i <= 3a + 1 with 0 <= i <= 11: projecting out a is inexact.
        conjunct = Conjunct(1, 1, ineqs=[(1, -3, 0), (-1, 3, 1), (1, 0, 0), (-1, 0, 11)])
        with opcache.collect() as delta:
            assert omega.eliminate_col(conjunct, 1)
        assert delta.fm_eliminations >= 1
        assert delta.dark_shadow_splinters > 0

    def test_work_counts_tick_with_memoization_off(self):
        with opcache.disabled():
            delta = self._cold_check_delta()
        assert delta.hits == delta.misses == 0
        assert delta.fm_eliminations > 0
        assert delta.feasibility_checks > 0
