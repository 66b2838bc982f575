"""Differential tests for the flat-matrix constraint kernel.

The kernel (:mod:`repro.presburger.kernel`) is an execution strategy, not a
semantics: every operation must produce results bit-for-bit identical to
the original object-at-a-time code.  These tests sweep the FM /stride/
dark-shadow corpus from the solver differential suite under both modes and
assert exact equality — of normal forms, elimination results, simplified
sets, set-algebra verdicts and feasibility.

They also gate the two interning invariants this PR fixed:

* every vector of every normalized conjunct is the pooled instance
  (``intern_vector(v) is v``) — the leak in ``normalize()``'s
  tightest-inequality rebuild and opposite-pair promotion silently broke
  hash-consing for any set that passed through those branches;
* ``normalize`` is idempotent object-identically on kernel output (the
  ``_normed`` fast path), which is only sound given the interning fix.
"""

import os
import subprocess
import sys

import pytest

from repro.presburger import opcache, parse_set
from repro.presburger import kernel, omega
from repro.presburger.conjunct import Conjunct

from tests.unit.solvers.test_differential import CORPUS


def corpus_sets():
    return [parse_set(text) for text in CORPUS]


def corpus_conjuncts():
    seen = []
    for integer_set in corpus_sets():
        seen.extend(integer_set.conjuncts)
    # Include raw (pre-normalisation) conjuncts too: Set construction
    # already simplifies, and normalize must agree on both.
    seen.append(Conjunct(2, 0, eqs=[(2, -4, 6)], ineqs=[(3, 0, 12), (0, 2, 5)]))
    seen.append(Conjunct(1, 1, ineqs=[(1, -3, 0), (-1, 3, 1), (1, 0, 0), (-1, 0, 11)]))
    seen.append(Conjunct(1, 0, ineqs=[(2, 7), (-2, -7)]))  # promotes then refutes
    seen.append(Conjunct(1, 0, ineqs=[(3, 6), (-3, -6)]))  # promotes to an equality
    return seen


class TestModeSelection:
    def test_default_mode_is_flat(self):
        env = os.environ.get("REPRO_KERNEL", "").strip().lower()
        expected = env if env in ("flat", "object") else "flat"
        assert kernel._env_mode() == expected

    def test_configure_and_use(self):
        assert kernel.active_mode() in ("flat", "object")
        before = kernel.active_mode()
        with kernel.use("object"):
            assert kernel.active_mode() == "object"
            assert kernel.FLAT is False
            with kernel.use("flat"):
                assert kernel.active_mode() == "flat"
            assert kernel.active_mode() == "object"
        assert kernel.active_mode() == before

    def test_configure_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            kernel.configure("vectorised")

    def test_env_selection(self):
        code = (
            "from repro.presburger import kernel; "
            "import sys; sys.exit(0 if kernel.active_mode() == 'object' else 1)"
        )
        env = dict(os.environ, REPRO_KERNEL="object")
        proc = subprocess.run([sys.executable, "-c", code], env=env)
        assert proc.returncode == 0

    def test_fingerprint_is_mode_independent(self):
        with kernel.use("flat"):
            flat = kernel.fingerprint()
        with kernel.use("object"):
            obj = kernel.fingerprint()
        assert flat == obj == f"kernel-v{kernel.KERNEL_VERSION}"


class TestNormalizeDifferential:
    def test_normal_forms_identical(self):
        for conjunct in corpus_conjuncts():
            with kernel.use("flat"):
                flat = omega.normalize(conjunct)
            with kernel.use("object"):
                obj = omega.normalize(conjunct)
            if obj is None:
                assert flat is None, conjunct
                continue
            assert flat is not None, conjunct
            assert flat.eqs == obj.eqs, conjunct
            assert flat.ineqs == obj.ineqs, conjunct
            assert (flat.n_vars, flat.n_div) == (obj.n_vars, obj.n_div)

    def test_normed_fast_path_returns_same_object(self):
        with kernel.use("flat"):
            for conjunct in corpus_conjuncts():
                normalized = omega.normalize(conjunct)
                if normalized is None:
                    continue
                assert normalized._normed
                assert omega.normalize(normalized) is normalized

    def test_object_path_is_idempotent_by_value(self):
        with kernel.use("object"):
            for conjunct in corpus_conjuncts():
                normalized = omega.normalize(conjunct)
                if normalized is None:
                    continue
                again = omega.normalize(normalized)
                assert again is not None
                assert again.eqs == normalized.eqs
                assert again.ineqs == normalized.ineqs


class TestInterningInvariant:
    """Satellite of the bugfix: no uninterned vector may survive normalize.

    Before the fix, the tightest-inequality rebuild (``key + (constant,)``)
    and the opposite-pair promotion appended freshly built tuples, so two
    structurally equal conjuncts could disagree on vector identity and the
    intern pool stopped deduplicating exactly the constraints the hot path
    touches most.
    """

    @pytest.mark.parametrize("mode", ["flat", "object"])
    def test_every_normalized_vector_is_interned(self, mode):
        with kernel.use(mode):
            for conjunct in corpus_conjuncts():
                normalized = omega.normalize(conjunct)
                if normalized is None:
                    continue
                for vector in normalized.eqs + normalized.ineqs:
                    assert opcache.intern_vector(vector) is vector, (
                        mode,
                        conjunct,
                        vector,
                    )

    @pytest.mark.parametrize("mode", ["flat", "object"])
    def test_set_construction_stores_interned_vectors(self, mode):
        with kernel.use(mode):
            for text in CORPUS:
                for conjunct in parse_set(text).conjuncts:
                    for vector in conjunct.eqs + conjunct.ineqs:
                        assert opcache.intern_vector(vector) is vector, (mode, text)

    @pytest.mark.parametrize("mode", ["flat", "object"])
    def test_elimination_output_is_interned(self, mode):
        with kernel.use(mode):
            for conjunct in corpus_conjuncts():
                normalized = omega.normalize(conjunct)
                if normalized is None or normalized.const_col == 0:
                    continue
                col = omega._choose_elimination_col(normalized)
                for piece in omega.eliminate_col(normalized, col):
                    for vector in piece.eqs + piece.ineqs:
                        assert opcache.intern_vector(vector) is vector, (mode, conjunct)


class TestEliminationDifferential:
    def test_eliminate_col_identical(self):
        for conjunct in corpus_conjuncts():
            normalized = omega.normalize(conjunct)
            if normalized is None or normalized.const_col == 0:
                continue
            col = omega._choose_elimination_col(normalized)
            opcache.reset()
            with kernel.use("flat"):
                flat = omega.eliminate_col(normalized, col)
            opcache.reset()
            with kernel.use("object"):
                obj = omega.eliminate_col(normalized, col)
            assert len(flat) == len(obj), conjunct
            for left, right in zip(flat, obj):
                assert left.eqs == right.eqs, conjunct
                assert left.ineqs == right.ineqs, conjunct

    def test_simplify_identical(self):
        for conjunct in corpus_conjuncts():
            opcache.reset()
            with kernel.use("flat"):
                flat = omega.simplify(conjunct)
            opcache.reset()
            with kernel.use("object"):
                obj = omega.simplify(conjunct)
            if obj is None:
                assert flat is None, conjunct
                continue
            assert flat is not None, conjunct
            assert flat.eqs == obj.eqs, conjunct
            assert flat.ineqs == obj.ineqs, conjunct

    def test_feasibility_identical(self):
        for conjunct in corpus_conjuncts():
            opcache.reset()
            with kernel.use("flat"):
                flat = omega.is_feasible(conjunct)
            opcache.reset()
            with kernel.use("object"):
                obj = omega.is_feasible(conjunct)
            assert flat == obj, conjunct


class TestSetAlgebraDifferential:
    def verdicts(self):
        sets = corpus_sets()
        table = []
        for a in sets:
            table.append(("empty", str(a), a.is_empty()))
            for b in sets:
                if a.arity != b.arity:
                    continue
                table.append(("subset", (str(a), str(b)), a.is_subset(b)))
                table.append(("equal", (str(a), str(b)), a == b))
                union = a.union(b)
                meet = a.intersect(b)
                diff = a.subtract(b)
                table.append(("union", (str(a), str(b)), str(union)))
                table.append(("intersect", (str(a), str(b)), str(meet)))
                table.append(("subtract", (str(a), str(b)), str(diff)))
        return table

    def test_full_sweep_identical(self):
        opcache.reset()
        with kernel.use("flat"):
            flat = self.verdicts()
        opcache.reset()
        with kernel.use("object"):
            obj = self.verdicts()
        assert flat == obj


class TestFeasibleMany:
    def test_matches_serial_is_feasible(self):
        conjuncts = [c for c in corpus_conjuncts()]
        with kernel.use("flat"):
            batched = kernel.feasible_many(conjuncts)
            serial = [omega.is_feasible(c) for c in conjuncts]
        assert batched == serial

    def test_empty_input(self):
        assert kernel.feasible_many([]) == []

    def test_cached_batch_accounting_matches_serial(self):
        """The batched Set._clean path must record the same opcache
        hit/miss counts as one-at-a-time memoization (the BENCH
        deterministic counters depend on it)."""
        from repro.presburger import setmap

        conjuncts = [
            c
            for text in CORPUS
            for c in parse_set(text).conjuncts
        ]
        opcache.reset()
        setmap._cached_feasible_many(conjuncts)
        first = opcache.stats()
        opcache.reset()
        for conjunct in conjuncts:
            opcache.memoized(
                "feasible", conjunct, lambda c=conjunct: omega.is_feasible(c)
            )
        second = opcache.stats()
        assert (first.hits, first.misses) == (second.hits, second.misses)


class TestFmCombine:
    LOWERS = [(1, 2, 0, 0), (2, 0, 1, 3)]
    UPPERS = [(-1, 1, 0, 7), (-3, 0, 2, 11), (-2, 2, 2, 5)]

    def test_python_matches_legacy_semantics(self):
        real, dark, all_exact = kernel.fm_combine(
            self.LOWERS, self.UPPERS, 0, False
        )
        assert len(real) == len(self.LOWERS) * len(self.UPPERS)
        # lower-major order: first row pairs lowers[0] with uppers[0]
        b, a = self.LOWERS[0][0], -self.UPPERS[0][0]
        expected = tuple(
            b * u + a * l for u, l in zip(self.UPPERS[0], self.LOWERS[0])
        )
        assert real[0] == expected
        assert dark[0] == expected[:-1] + (expected[-1] - (a - 1) * (b - 1),)
        assert all_exact is False

    def test_unit_bounds_skip_dark_shadow(self):
        real, dark, all_exact = kernel.fm_combine(
            [(1, 0, 0)], [(-1, 0, 9)], 0, True
        )
        assert real == [(0, 0, 9)]
        assert dark == []
        assert all_exact is True

    def test_big_coefficients_stay_exact(self):
        huge = 1 << 40
        lowers = [(huge, 0, 1)] * 4
        uppers = [(-huge, 1, 2)] * 4
        real, dark, all_exact = kernel.fm_combine(lowers, uppers, 0, False)
        expected = tuple(
            huge * u + huge * l for u, l in zip(uppers[0], lowers[0])
        )
        assert real[0] == expected
        assert real[0][0] == 0
        # Python ints: no fixed-width wraparound anywhere
        assert all(row[1] == huge for row in real)

    def test_substitute_drop_matches_manual(self):
        eq = (1, -2, 0, 3)  # x0 = 2*x1 - 3
        rows = [(4, 1, 1, 0), (0, 5, 0, 1)]
        out = kernel.substitute_drop(rows, eq, 0)
        assert out[0] == (1 + 4 * 2, 1, 0 + 4 * -3)
        assert out[1] == (5, 0, 1)

    def test_drop_rows(self):
        assert kernel.drop_rows([(1, 0, 2, 3)], 1) == [(1, 2, 3)]
