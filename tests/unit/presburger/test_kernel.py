"""Tests for the flat-matrix constraint kernel against a point oracle.

The kernel (:mod:`repro.presburger.kernel`) and the algorithms built on it
(:mod:`repro.presburger.omega`) must preserve integer point sets exactly.
These tests sweep the FM / stride / dark-shadow corpus of the solver
differential suite and compare every result with the brute-force oracle of
:mod:`repro.solvers.enum_backend` (the crosscheck partner of the omega
core), which shares no code with the kernel: normal forms, simplification, elimination (against the projection of
the input's points), feasibility and the set-algebra operations.  The
bounds decision that ``is_feasible`` tries before any elimination is also
checked on random bounded conjuncts.  The oracle abstains only by raising,
so an abstention fails the test instead of passing it vacuously.

They also gate the two interning invariants of the kernel:

* every vector of every normalized conjunct is the pooled instance
  (``intern_vector(v) is v``), so structurally equal conjuncts share rows
  and equality tests stay identity-fast;
* ``normalize`` is idempotent object-identically on kernel output (the
  ``_normed`` fast path), which is only sound given interning.
"""

import itertools
import random

import pytest

from repro.presburger import opcache, parse_set
from repro.presburger import kernel, omega
from repro.presburger.conjunct import Conjunct

from repro.solvers import enum_backend as oracle
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
    # 0 public dims, 2 existentials: 2e1 = 3e2 and 0 <= e1 <= 8.  Needs the
    # oracle's repeated bounding (e2 is bounded only through e1).
    seen.append(Conjunct(0, 2, eqs=[(2, -3, 0)], ineqs=[(1, 0, 0), (-1, 0, 8)]))
    return seen


def by_predicate(predicate, arity, box=oracle.BOX):
    """The box points satisfying a plain Python predicate."""
    return frozenset(p for p in itertools.product(box, repeat=arity) if predicate(*p))


def optional_points(conjunct):
    return frozenset() if conjunct is None else oracle.points(conjunct)


def test_fingerprint_names_the_kernel_version():
    assert kernel.fingerprint() == f"kernel-v{kernel.KERNEL_VERSION}"


class TestOracleSelfCheck:
    """The oracle against hand-written predicates, so it cannot pass vacuously."""

    CASES = [
        (Conjunct(1, 0, ineqs=[(1, 0), (-1, 7)]), lambda i: 0 <= i < 8),
        (
            Conjunct(1, 1, eqs=[(1, -2, 0)], ineqs=[(1, 0, 0), (-1, 0, 15)]),
            lambda i: i % 2 == 0 and 0 <= i < 16,
        ),
        (  # dark shadow: 3a <= i <= 3a + 1 skips every third value
            Conjunct(1, 1, ineqs=[(1, -3, 0), (-1, 3, 1), (1, 0, 0), (-1, 0, 11)]),
            lambda i: i % 3 != 2 and 0 <= i < 12,
        ),
        (  # two strides at once: i = 2a and i = 3b
            Conjunct(
                1, 2, eqs=[(1, -2, 0, 0), (1, 0, -3, 0)], ineqs=[(1, 0, 0, 0), (-1, 0, 0, 17)]
            ),
            lambda i: i % 6 == 0 and 0 <= i < 18,
        ),
        (
            Conjunct(2, 0, ineqs=[(1, 0, 0), (0, -1, 3), (-1, 1, 0)]),
            lambda i, j: 0 <= i <= j <= 3,
        ),
        (  # i + j = 2a: parity of a sum
            Conjunct(
                2,
                1,
                eqs=[(1, 1, -2, 0)],
                ineqs=[(1, 0, 0, 0), (-1, 0, 0, 3), (0, 1, 0, 0), (0, -1, 0, 3)],
            ),
            lambda i, j: (i + j) % 2 == 0 and 0 <= i < 4 and 0 <= j < 4,
        ),
        (Conjunct(1, 1, eqs=[(2, -2, 1)]), lambda i: False),  # 2i + 1 = 2a
        (Conjunct(1, 0, eqs=[(1, -30)]), lambda i: False),  # i = 30, outside the box
    ]

    @pytest.mark.parametrize("index", range(len(CASES)))
    def test_points_match_predicate(self, index):
        conjunct, predicate = self.CASES[index]
        expected = by_predicate(predicate, conjunct.n_vars)
        assert oracle.points(conjunct) == expected

    def test_projection_hides_a_public_column(self):
        # { [i, j] : j = 2i and 0 <= j < 10 } projected onto j: even j.
        conjunct = Conjunct(2, 0, eqs=[(2, -1, 0)], ineqs=[(0, 1, 0), (0, -1, 9)])
        assert oracle.points(conjunct, hidden=[0]) == by_predicate(
            lambda j: j % 2 == 0 and 0 <= j < 10, 1
        )

    def test_feasibility_outside_the_box(self):
        assert oracle.feasible(Conjunct(1, 0, eqs=[(1, -30)]))
        # 2i + 1 = 2a with 0 <= i < 40: a parity clash the box cannot refute
        # alone, decided by hiding i and enumerating its bounded range.
        assert not oracle.feasible(Conjunct(1, 1, eqs=[(2, -2, 1)], ineqs=[(1, 0, 0), (-1, 0, 39)]))
        assert oracle.feasible(Conjunct(0, 2, eqs=[(2, -3, 0)], ineqs=[(1, 0, 0), (-1, 0, 8)]))

    def test_abstains_on_an_unbounded_column(self):
        # exists e : i <= e has no bound on e from above.
        with pytest.raises(oracle.Abstain):
            oracle.points(Conjunct(1, 1, ineqs=[(-1, 1, 0)]))
        # 2i + 1 = 2a alone bounds neither column once i is hidden.
        with pytest.raises(oracle.Abstain):
            oracle.feasible(Conjunct(1, 1, eqs=[(2, -2, 1)]))

    def test_imports_nothing_from_the_algorithms_it_checks(self):
        import ast
        import inspect

        modules = set()
        for node in ast.walk(ast.parse(inspect.getsource(oracle))):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                modules.add("." * node.level + (node.module or ""))
        # Only the stdlib and the backend protocol (`Abstain`, `SolverBackend`).
        assert modules <= {"__future__", "itertools", "typing", ".base"}


class TestNormalize:
    def test_point_sets_preserved(self):
        for conjunct in corpus_conjuncts():
            normalized = omega.normalize(conjunct)
            assert optional_points(normalized) == oracle.points(conjunct), conjunct
            if normalized is not None:
                assert (normalized.n_vars, normalized.n_div) == (conjunct.n_vars, conjunct.n_div)

    def test_normed_fast_path_returns_same_object(self):
        for conjunct in corpus_conjuncts():
            normalized = omega.normalize(conjunct)
            if normalized is None:
                continue
            assert normalized._normed
            assert omega.normalize(normalized) is normalized


class TestInterningInvariant:
    """No uninterned vector may survive normalize, Set construction or
    elimination: the tightest-inequality rebuild (``key + (constant,)``) and
    the opposite-pair promotion build fresh tuples that must be re-pooled."""

    def test_every_normalized_vector_is_interned(self):
        for conjunct in corpus_conjuncts():
            normalized = omega.normalize(conjunct)
            if normalized is None:
                continue
            for vector in normalized.eqs + normalized.ineqs:
                assert opcache.intern_vector(vector) is vector, (conjunct, vector)

    def test_set_construction_stores_interned_vectors(self):
        for text in CORPUS:
            for conjunct in parse_set(text).conjuncts:
                for vector in conjunct.eqs + conjunct.ineqs:
                    assert opcache.intern_vector(vector) is vector, text

    def test_elimination_output_is_interned(self):
        for conjunct in corpus_conjuncts():
            normalized = omega.normalize(conjunct)
            if normalized is None or normalized.const_col == 0:
                continue
            col = omega._choose_elimination_col(normalized)
            for piece in omega.eliminate_col(normalized, col):
                for vector in piece.eqs + piece.ineqs:
                    assert opcache.intern_vector(vector) is vector, conjunct


class TestElimination:
    def test_eliminate_col_is_the_exact_projection(self):
        """Every column of every corpus conjunct, not only the heuristic's pick."""
        checked = 0
        for conjunct in corpus_conjuncts():
            normalized = omega.normalize(conjunct)
            if normalized is None:
                continue
            for col in range(normalized.const_col):
                hidden = [col] if col < normalized.n_vars else []
                expected = oracle.points(normalized, hidden=hidden)
                pieces = omega.eliminate_col(normalized, col)
                assert oracle.union_points(pieces) == expected, (conjunct, col)
                checked += 1
        assert checked > 20

    def test_simplify_preserves_points(self):
        for conjunct in corpus_conjuncts():
            simplified = omega.simplify(conjunct)
            assert optional_points(simplified) == oracle.points(conjunct), conjunct

    def test_feasibility_matches_oracle(self):
        for conjunct in corpus_conjuncts():
            assert omega.is_feasible(conjunct) == oracle.feasible(conjunct), conjunct


def random_bounded_conjunct(rng):
    """A random conjunct whose every column has a small explicit box.

    The box rows (possibly with a non-unit coefficient) keep the oracle
    from abstaining; the extra rows mix the shapes the bounds decision
    handles (unit two-column equalities, pinned columns, contradictions)
    with the ones it must hand back (two-column inequalities, equalities
    without a unit coefficient).
    """
    n_vars = rng.randint(0, 3)
    n_div = rng.randint(0, 1)
    width = n_vars + n_div

    def row(coeffs, constant):
        vec = [0] * (width + 1)
        for col, value in coeffs.items():
            vec[col] = value
        vec[-1] = constant
        return tuple(vec)

    eqs, ineqs = [], []
    for col in range(width):
        a = rng.choice([1, 1, 2, 3])
        low = rng.randint(-3, 8)
        high = low + rng.randint(-1, 7)  # -1: an empty box
        ineqs.append(row({col: a}, -a * low + rng.randint(0, a - 1)))  # a*x >= a*low - r
        ineqs.append(row({col: -a}, a * high + rng.randint(0, a - 1)))  # a*x <= a*high + r
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(["unit-eq", "pin", "eq", "ineq1", "ineq2", "false"])
        cols = rng.sample(range(width), min(width, 2))
        coeffs = {col: rng.choice([-3, -2, -1, 1, 2, 3]) for col in cols}
        if kind == "unit-eq" and cols:
            coeffs[cols[0]] = rng.choice([-1, 1])
        elif kind == "pin" and cols:
            coeffs = {cols[0]: rng.choice([-2, -1, 1, 2, 3])}
        elif kind == "ineq1" and cols:
            coeffs = {cols[0]: coeffs[cols[0]]}
        elif kind == "false":
            coeffs = {}
        constant = rng.randint(-6, 6)
        if kind in ("unit-eq", "pin", "eq", "false"):
            eqs.append(row(coeffs, constant if kind != "false" else rng.choice([-1, 1])))
        else:
            ineqs.append(row(coeffs, constant))
    rng.shuffle(ineqs)
    return Conjunct(n_vars, n_div, eqs, ineqs)


class TestDecideByBounds:
    """The exact bounds decision that runs before any elimination."""

    def test_agrees_with_the_oracle_on_random_bounded_conjuncts(self):
        rng = random.Random(31)
        outcomes = {True: 0, False: 0, None: 0}
        for _ in range(1500):
            conjunct = random_bounded_conjunct(rng)
            for candidate in (conjunct, omega.normalize(conjunct)):
                if candidate is None:
                    continue
                decided = omega._decide_by_bounds(candidate)
                outcomes[decided] += 1
                if decided is not None:
                    assert decided == oracle.feasible(candidate), candidate
        assert min(outcomes.values()) > 100, outcomes

    def test_feasibility_through_the_decision_matches_the_oracle(self):
        rng = random.Random(32)
        for _ in range(300):
            conjunct = random_bounded_conjunct(rng)
            assert omega.is_feasible(conjunct) == oracle.feasible(conjunct), conjunct

    @pytest.mark.parametrize(
        "conjunct, expected",
        [
            # 3x >= 1 and 3x <= 2: the rational interval holds no integer
            (Conjunct(1, 0, ineqs=[(3, -1), (-3, 2)]), False),
            (Conjunct(1, 0, ineqs=[(3, -1), (-3, 3)]), True),
            # 2x = 3 pins nothing: a contradiction
            (Conjunct(1, 0, eqs=[(2, -3)]), False),
            # x = y + 1, y = 2 and x <= 2: pinned through a substitution
            (Conjunct(2, 0, eqs=[(1, -1, -1), (0, 1, -2)], ineqs=[(-1, 0, 2)]), False),
            (Conjunct(2, 0, eqs=[(1, -1, -1), (0, 1, -2)], ineqs=[(-1, 0, 3)]), True),
            # no columns at all: only the constants decide
            (Conjunct(0, 0, eqs=[(0,)], ineqs=[(-1,)]), False),
        ],
    )
    def test_decides(self, conjunct, expected):
        assert omega._decide_by_bounds(conjunct) is expected
        assert oracle.feasible(conjunct) is expected

    @pytest.mark.parametrize(
        "conjunct",
        [
            Conjunct(2, 0, ineqs=[(1, 1, 0), (1, 0, 0), (-1, 0, 3)]),  # x + y >= 0
            Conjunct(2, 0, eqs=[(2, 3, -1)], ineqs=[(1, 0, 0), (-1, 0, 3)]),  # 2x + 3y = 1
        ],
        ids=["two-column-inequality", "equality-without-unit-coefficient"],
    )
    def test_hands_other_shapes_back(self, conjunct):
        assert omega._decide_by_bounds(conjunct) is None


class TestSetAlgebra:
    def test_corpus_lies_inside_the_box(self):
        """The decision checks below compare box points, which is exact only
        when no corpus set reaches the box edge."""
        wider = range(oracle.BOX.start - 5, oracle.BOX.stop + 5)
        for integer_set in corpus_sets():
            assert oracle.union_points(integer_set.conjuncts) == oracle.union_points(
                integer_set.conjuncts, wider
            ), str(integer_set)

    def test_full_sweep_matches_oracle(self):
        sets = corpus_sets()
        points = [oracle.union_points(s.conjuncts) for s in sets]
        pairs = 0
        for a, pa in zip(sets, points):
            assert a.is_empty() == (not pa), str(a)
            for b, pb in zip(sets, points):
                if a.arity != b.arity:
                    continue
                label = (str(a), str(b))
                assert oracle.union_points(a.union(b).conjuncts) == pa | pb, label
                assert oracle.union_points(a.intersect(b).conjuncts) == pa & pb, label
                difference = a.subtract(b)
                assert oracle.union_points(difference.conjuncts) == pa - pb, label
                for conjunct in difference.conjuncts:
                    assert oracle.feasible(conjunct), label  # no empty pieces kept
                assert a.is_subset(b) == (pa <= pb), label
                assert (a == b) == (pa == pb), label
                pairs += 1
        assert pairs == 104


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
