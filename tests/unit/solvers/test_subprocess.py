"""The subprocess path of :class:`SmtLibBackend`, driven by a stub solver.

``stub_solver.py`` answers like a solver binary (a fixed verdict, and a
model on request), so the tempfile handoff, the stdout parsing and the
model extraction run exactly as they would for z3 or cvc5, with neither
installed.
"""

import os
import sys

import pytest

from repro.presburger import parse_set
from repro.solvers import SolverError, SolverUnavailableError
from repro.solvers.smtlib import SmtLibBackend, parse_sexprs

STUB = os.path.join(os.path.dirname(os.path.abspath(__file__)), "stub_solver.py")


def stub(*args):
    return SmtLibBackend(" ".join([sys.executable, STUB, *args]))


class TestParseSexprs:
    def test_nesting(self):
        assert parse_sexprs("(a (b 1) 2) (c)") == [["a", ["b", "1"], "2"], ["c"]]

    def test_comments_are_stripped(self):
        assert parse_sexprs("(a 1) ; trailing comment (not a form)\n(b)") == [["a", "1"], ["b"]]

    @pytest.mark.parametrize("text", ["(a (b)", "(a))"])
    def test_unbalanced_parens_rejected(self, text):
        with pytest.raises(SolverError):
            parse_sexprs(text)


class TestStubSolver:
    def test_sat_with_a_model(self):
        backend = stub("sat", "2", "-3")
        assert backend.is_feasible(parse_set("{ [i] : 0 <= i < 4 }").conjuncts[0])
        assert backend.sample_point(parse_set("{ [i, j] : i = 2 and j = -3 }")) == (2, -3)

    def test_unsat(self):
        backend = stub("unsat")
        a = parse_set("{ [i] : 0 <= i < 4 }").conjuncts
        b = parse_set("{ [i] : 0 <= i < 8 }").conjuncts
        assert backend.is_subset(a, b)  # no counterexample
        assert backend.is_disjoint(a, b)  # no common point
        assert not backend.is_feasible(a[0])

    def test_no_verdict_is_a_solver_error(self):
        with pytest.raises(SolverError, match="no verdict"):
            stub("mute").is_feasible(parse_set("{ [i] : 0 <= i < 4 }").conjuncts[0])

    def test_missing_binary_is_unavailable(self):
        with pytest.raises(SolverUnavailableError, match="no-such-solver"):
            SmtLibBackend("no-such-solver --smt2")
