"""Differential property sweep: the omega core and the enumeration partner
must agree on every decision query, over a corpus of hand-picked hard cases
and over the full registered kernel workload.  Real SMT solvers join in when
their binaries are on PATH.

The hard cases deliberately include the Fourier–Motzkin dark-shadow and
splinter territory — strided (divisibility-constrained) sets with
non-unit coefficients, where naive real-shadow reasoning over- or
under-approximates and an integer-exactness bug in either backend would
surface as a verdict flip.
"""

import shutil

import pytest

from repro.presburger import parse_set
from repro.solvers import CrossCheckBackend, OmegaBackend, SmtLibBackend
from repro.solvers.enum_backend import EnumBackend
from repro.verifier import Verifier
from repro.verifier.options import CheckOptions
from repro.workloads import SMALL_KERNEL_PARAMS, kernel_names, kernel_pair

# Dense bounded sets plus FM hard cases: strides, dark-shadow style gaps,
# multi-conjunct unions, multi-dimensional couplings, empty sets.
CORPUS = [
    "{ [i] : 0 <= i < 8 }",
    "{ [i] : 0 <= i < 4 ; [i] : 6 <= i < 10 }",
    "{ [i] : exists a : i = 2a and 0 <= i < 16 }",
    "{ [i] : exists a : i = 2a + 1 and 0 <= i < 16 }",
    "{ [i] : exists a : i = 3a and 0 <= i < 16 }",
    "{ [i] : exists a : i = 6a and 0 <= i < 16 }",
    # Dark shadow: 3a <= i <= 3a + 1 leaves every third value uncovered; the
    # real shadow of the projection is the full interval.
    "{ [i] : exists a : 3a <= i and i <= 3a + 1 and 0 <= i < 12 }",
    # Splinter-style tight stride: only exact integer reasoning keeps the
    # single residue class.
    "{ [i] : exists a : 2i = 4a + 2 and 0 <= i < 12 }",
    "{ [i, j] : 0 <= i < 4 and 0 <= j < 4 and i <= j }",
    "{ [i, j] : exists a : i + j = 2a and 0 <= i < 4 and 0 <= j < 4 }",
    "{ [i] : 0 <= i and i < 0 }",
    "{ [i] : exists a : i = 2a and exists b : i = 3b and 0 <= i < 18 }",
]


def backends():
    return OmegaBackend(), EnumBackend()


def pairs(dimension):
    sets = [parse_set(text) for text in CORPUS]
    return [
        (a, b)
        for a in sets
        for b in sets
        if a.arity == dimension and b.arity == dimension
    ]


class TestCorpusSweep:
    @pytest.mark.parametrize("dimension", [1, 2])
    def test_binary_queries_agree(self, dimension):
        omega, enum = backends()
        for a, b in pairs(dimension):
            for kind in ("is_subset", "is_equal", "is_disjoint"):
                first = getattr(omega, kind)(a.conjuncts, b.conjuncts)
                second = getattr(enum, kind)(a.conjuncts, b.conjuncts)
                assert first == second, (kind, str(a), str(b))

    def test_feasibility_agrees(self):
        omega, enum = backends()
        for text in CORPUS:
            for conjunct in parse_set(text).conjuncts:
                assert omega.is_feasible(conjunct) == enum.is_feasible(conjunct), text

    def test_sample_points_are_members(self):
        omega, enum = backends()
        for text in CORPUS:
            integer_set = parse_set(text)
            if integer_set.is_empty():
                continue
            for backend in (omega, enum):
                point = backend.sample_point(integer_set)
                assert integer_set.contains(list(point)), (text, backend.name, point)

    def test_crosscheck_sweep_has_no_disagreements(self):
        backend = CrossCheckBackend(*backends())
        for a, b in pairs(1):
            backend.is_subset(a.conjuncts, b.conjuncts)
            backend.is_equal(a.conjuncts, b.conjuncts)
            backend.is_disjoint(a.conjuncts, b.conjuncts)
        counts = backend.query_counts
        assert counts["crosscheck.agreements"] > 0
        assert "crosscheck.disagreements" not in counts
        assert "crosscheck.abstentions" not in counts


class TestKernelSweep:
    """Verdict identity end to end: every registered workload kernel checks
    to the same verdict under omega and under the crosscheck, whose every
    query the enumeration partner confirms or abstains on."""

    @pytest.mark.parametrize("name", kernel_names())
    def test_kernel_verdicts_identical(self, name):
        pair = kernel_pair(name, **SMALL_KERNEL_PARAMS.get(name, {}))
        omega_result = Verifier(options=CheckOptions()).check(
            pair.original, pair.transformed
        )
        crosscheck_result = Verifier(options=CheckOptions(backend="crosscheck")).check(
            pair.original, pair.transformed
        )
        assert omega_result.equivalent == crosscheck_result.equivalent
        assert omega_result.equivalent  # the registered pairs are equivalent
        assert crosscheck_result.stats.backend == "crosscheck"
        counts = crosscheck_result.stats.solver_queries
        assert counts.get("crosscheck.agreements", 0) > 0
        assert counts.get("crosscheck.disagreements", 0) == 0
        assert omega_result.stats.backend == "omega"
        assert omega_result.stats.solver_queries == {}

    def test_crosscheck_on_buggy_pair_still_agrees(self):
        # A non-equivalent pair: both backends must agree on the *negative*
        # verdict too (divergence would raise BackendDisagreement here).
        from repro.workloads import fig1_original, fig1_ver3_erroneous

        result = Verifier(options=CheckOptions(backend="crosscheck")).check(
            fig1_original(), fig1_ver3_erroneous()
        )
        assert not result.equivalent
        assert result.stats.backend == "crosscheck"
        counts = result.stats.solver_queries
        assert counts.get("crosscheck.agreements", 0) > 0
        assert counts.get("crosscheck.disagreements", 0) == 0


@pytest.mark.skipif(shutil.which("z3") is None, reason="z3 binary not on PATH")
class TestRealZ3Binary:
    def test_corpus_agrees_through_z3(self):
        omega, z3_backend = OmegaBackend(), SmtLibBackend("z3")
        for a, b in pairs(1)[:20]:
            assert omega.is_subset(a.conjuncts, b.conjuncts) == z3_backend.is_subset(
                a.conjuncts, b.conjuncts
            )


@pytest.mark.skipif(shutil.which("cvc5") is None, reason="cvc5 binary not on PATH")
class TestRealCvc5Binary:
    def test_corpus_agrees_through_cvc5(self):
        omega, cvc5_backend = OmegaBackend(), SmtLibBackend("cvc5 --lang smt2")
        for a, b in pairs(1)[:20]:
            assert omega.is_subset(a.conjuncts, b.conjuncts) == cvc5_backend.is_subset(
                a.conjuncts, b.conjuncts
            )
