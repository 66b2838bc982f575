"""Backend protocol, selection, routing and options/stats plumbing tests."""

import shutil

import pytest

from repro.checker.result import CheckStats
from repro.presburger import parse_set
from repro.presburger import hooks
from repro.solvers import (
    OmegaBackend,
    SolverUnavailableError,
    available_backends,
    get_backend,
    use_backend,
)
from repro.verifier.options import BACKEND_NAMES, CheckOptions

NO_SMT_SOLVER = shutil.which("z3") is None and shutil.which("cvc5") is None


class TestSelection:
    def test_get_backend_names(self):
        assert get_backend("omega").name == "omega"
        crosscheck = get_backend("crosscheck")
        assert crosscheck.name == "crosscheck"
        assert crosscheck.primary.name == "omega"
        assert crosscheck.secondary.name == "enum"

    def test_smt_solver_does_not_change_the_crosscheck_partner(self):
        assert get_backend("crosscheck", "cvc5 --lang smt2").secondary.name == "enum"

    def test_missing_solver_binary_is_unavailable(self):
        with pytest.raises(SolverUnavailableError, match="nosuchsolver"):
            get_backend("smtlib", "nosuchsolver")

    @pytest.mark.skipif(not NO_SMT_SOLVER, reason="an SMT solver is on PATH")
    def test_smtlib_needs_a_solver_on_path(self):
        with pytest.raises(SolverUnavailableError, match="z3 or cvc5"):
            get_backend("smtlib")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            get_backend("simplex")

    def test_available_backends_always_include_stdlib_ones(self):
        names = available_backends()
        for name in ("omega", "crosscheck"):
            assert name in names
        assert ("smtlib" in names) == (not NO_SMT_SOLVER)
        assert set(names) <= set(BACKEND_NAMES)


class TestOmegaBackend:
    def test_decisions_match_set_api(self):
        small = parse_set("{ [i] : 0 <= i < 4 }")
        big = parse_set("{ [i] : 0 <= i < 8 }")
        other = parse_set("{ [i] : 10 <= i < 12 }")
        backend = OmegaBackend()
        assert backend.is_subset(small.conjuncts, big.conjuncts)
        assert not backend.is_subset(big.conjuncts, small.conjuncts)
        assert backend.is_equal(small.conjuncts, small.conjuncts)
        assert backend.is_disjoint(small.conjuncts, other.conjuncts)
        assert backend.is_feasible(small.conjuncts[0])
        assert backend.sample_point(small) in {(i,) for i in range(4)}

    def test_query_counters(self):
        backend = OmegaBackend()
        small = parse_set("{ [i] : 0 <= i < 4 }")
        backend.is_subset(small.conjuncts, small.conjuncts)
        backend.is_subset(small.conjuncts, small.conjuncts)
        backend.is_equal(small.conjuncts, small.conjuncts)
        assert backend.query_counts == {"omega.is_subset": 2, "omega.is_equal": 1}


class TestRouting:
    def test_omega_installs_nothing(self):
        # The default backend IS the inline path: nothing on the hook, no
        # counters, byte-identical behaviour.
        with use_backend("omega") as backend:
            assert backend is None
            assert hooks.active_backend() is None

    def test_crosscheck_routes_set_queries(self):
        small = parse_set("{ [i] : 0 <= i < 4 }")
        big = parse_set("{ [i] : 0 <= i < 8 }")
        with use_backend("crosscheck") as backend:
            assert hooks.active_backend() is backend
            assert small.is_subset(big)
            assert small.contains([2])
        assert hooks.active_backend() is None
        assert backend.query_counts["enum.is_subset"] == 1
        assert backend.query_counts["enum.is_feasible"] == 1

    def test_backend_reentry_is_suspended(self):
        # sample_point's fallback re-enters the Set API; the hook must be
        # suspended there or a routing backend would recurse into itself.
        small = parse_set("{ [i] : 0 <= i < 4 }")
        with use_backend("crosscheck"):
            point = small.sample_point()
        assert point in {(i,) for i in range(4)}


class TestOptionsPlumbing:
    def test_backend_validated(self):
        with pytest.raises(ValueError):
            CheckOptions(backend="simplex")

    def test_backend_in_fingerprint(self):
        default = CheckOptions()
        assert default.fingerprint() != CheckOptions(backend="smtlib").fingerprint()
        # ... but the concrete solver binary is excluded, like timeout: any
        # sound solver must compute the same verdict.
        assert (
            CheckOptions(backend="smtlib", smt_solver="z3").fingerprint()
            == CheckOptions(backend="smtlib", smt_solver="cvc5").fingerprint()
        )

    def test_roundtrip(self):
        options = CheckOptions(backend="smtlib", smt_solver="cvc5 --lang smt2")
        again = CheckOptions.from_dict(options.to_dict())
        assert again == options

    def test_from_dict_tolerates_pre_backend_payloads(self):
        options = CheckOptions.from_dict({"method": "basic"})
        assert options.backend == "omega"
        assert options.smt_solver is None


class TestCheckStatsPlumbing:
    def test_default_backend_field(self):
        stats = CheckStats()
        assert stats.backend == "omega"
        assert stats.solver_queries == {}

    def test_roundtrip(self):
        stats = CheckStats(backend="crosscheck", solver_queries={"omega.is_equal": 3})
        again = CheckStats.from_dict(stats.as_dict())
        assert again.backend == "crosscheck"
        assert again.solver_queries == {"omega.is_equal": 3}

    def test_from_dict_tolerates_pre_backend_payloads(self):
        stats = CheckStats.from_dict({"elapsed_seconds": 1.0})
        assert stats.backend == "omega"
        assert stats.solver_queries == {}
