"""Unit tests for the SMT-LIB2 emission layer of :mod:`repro.solvers.smtlib`."""

import itertools

import pytest

from repro.presburger import parse_set
from repro.presburger.conjunct import Conjunct
from repro.solvers import enum_backend
from repro.solvers.smtlib import (
    conjunct_formula,
    disjoint_scripts,
    feasibility_script,
    parse_sexprs,
    subset_scripts,
)

from tests.unit.solvers.test_differential import CORPUS


def conjunct_of(text):
    (conjunct,) = parse_set(text).conjuncts
    return conjunct


class TestConjunctFormula:
    def test_simple_bounds(self):
        body, divs = conjunct_formula(conjunct_of("{ [i] : 0 <= i < 8 }"), ["x0"])
        assert divs == []
        assert "x0" in body
        assert body.startswith("(and ") or body.startswith("(>= ")

    def test_negative_literals_are_prefix_form(self):
        # SMT-LIB has no -5 literal: negatives must render as (- 5).
        body, _ = conjunct_formula(conjunct_of("{ [i] : i <= -5 }"), ["x0"])
        assert "(- 5)" in body
        assert "-5" not in body.replace("(- 5)", "")

    def test_divisibility_becomes_witness_column(self):
        conjunct = conjunct_of("{ [i] : exists a : i = 2a and 0 <= i < 8 }")
        assert conjunct.n_div == 1
        body, divs = conjunct_formula(conjunct, ["x0"])
        assert divs == ["d0"]
        assert "d0" in body

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            conjunct_formula(conjunct_of("{ [i, j] : i = j }"), ["x0"])

    def test_empty_conjunct_is_true(self):
        body, divs = conjunct_formula(Conjunct(1, 0), ["x0"])
        assert body == "true"
        assert divs == []


class TestScripts:
    def test_feasibility_script_shape(self):
        script = feasibility_script(conjunct_of("{ [i] : 0 <= i < 8 }"))
        assert "(set-logic LIA)" in script
        assert "(declare-const x0 Int)" in script
        assert script.rstrip().endswith("(check-sat)")

    def test_feasibility_script_model_extraction(self):
        script = feasibility_script(conjunct_of("{ [i] : 0 <= i < 8 }"), get_model=True)
        assert "(set-option :produce-models true)" in script
        assert "(get-value (x0))" in script

    def test_commands_false_omits_check_sat(self):
        script = feasibility_script(conjunct_of("{ [i] : 0 <= i < 8 }"), commands=False)
        assert "(check-sat)" not in script
        assert "(assert " in script

    def test_subset_one_script_per_left_conjunct(self):
        a = parse_set("{ [i] : 0 <= i < 4 ; [i] : 6 <= i < 8 }").conjuncts
        b = parse_set("{ [i] : 0 <= i < 10 }").conjuncts
        scripts = subset_scripts(a, b)
        assert len(scripts) == len(a)
        # Subset is an UNSAT check of Ai /\ not(exists B1) /\ ...
        assert all("(assert (not " in s for s in scripts)

    def test_subset_negated_conjunct_quantifies_divs(self):
        a = parse_set("{ [i] : 0 <= i < 8 }").conjuncts
        b = parse_set("{ [i] : exists e : i = 2e and 0 <= i < 8 }").conjuncts
        (script,) = subset_scripts(a, b)
        # The negated right-hand conjunct must bind its witness with exists,
        # not leak it as a free constant (which would flip the semantics).
        assert "(exists ((e0 Int))" in script
        assert "(declare-const e0 Int)" not in script

    def test_disjoint_one_script_per_pair(self):
        a = parse_set("{ [i] : 0 <= i < 4 ; [i] : 6 <= i < 8 }").conjuncts
        b = parse_set("{ [i] : 4 <= i < 6 ; [i] : 8 <= i < 9 }").conjuncts
        scripts = disjoint_scripts(a, b)
        assert len(scripts) == len(a) * len(b)

    def test_disjoint_keeps_witnesses_apart(self):
        # Both sides carry a divisibility witness; the emitted script must
        # give them distinct prefixes (d* vs e*) so they stay independent.
        a = parse_set("{ [i] : exists k : i = 2k and 0 <= i < 8 }").conjuncts
        b = parse_set("{ [i] : exists k : i = 2k + 1 and 0 <= i < 8 }").conjuncts
        (script,) = disjoint_scripts(a, b)
        assert "(declare-const d0 Int)" in script
        assert "(declare-const e0 Int)" in script


# --------------------------------------------------------------------------- #
# Semantics: the emitted assertions hold exactly at the conjuncts' points
# --------------------------------------------------------------------------- #
_OPS = {
    "=": lambda x, y: x == y,
    ">=": lambda x, y: x >= y,
    ">": lambda x, y: x > y,
    "<=": lambda x, y: x <= y,
    "<": lambda x, y: x < y,
    "*": lambda x, y: x * y,
}


def _value(expr, env):
    if isinstance(expr, str):
        if expr == "true":
            return True
        return env[expr] if expr in env else int(expr)
    op, *args = expr
    values = [_value(arg, env) for arg in args]
    if op == "and":
        return all(values)
    if op == "not":
        return not values[0]
    if op == "+":
        return sum(values)
    if op == "-":
        return -values[0] if len(values) == 1 else values[0] - sum(values[1:])
    return _OPS[op](*values)


def holds(script, point):
    """Whether every assertion of *script* is true with ``x<k> = point[k]``."""
    env = {f"x{k}": value for k, value in enumerate(point)}
    return all(
        _value(form[1], env) for form in parse_sexprs(script) if form[0] == "assert"
    )


def flat_conjuncts(arity):
    """The corpus conjuncts without existential columns, plus negative
    literals and non-unit coefficients on both sides of the box."""
    texts = CORPUS + [
        "{ [i] : -2 <= i <= 5 }",
        "{ [i, j] : 2i - 3j >= -4 and 0 <= i < 6 and -2 <= j < 5 }",
    ]
    return [
        conjunct
        for text in texts
        for conjunct in parse_set(text).conjuncts
        if conjunct.n_div == 0 and conjunct.n_vars == arity
    ]


class TestScriptSemantics:
    """Evaluates the emitted scripts at every box point of the enumeration
    backend and compares with its point sets, so emission keeps a semantic
    test that needs no solver."""

    @pytest.mark.parametrize("arity", [1, 2])
    def test_scripts_hold_exactly_at_the_points(self, arity):
        conjuncts = flat_conjuncts(arity)
        assert len(conjuncts) >= 2
        box = list(itertools.product(enum_backend.BOX, repeat=arity))
        points = [enum_backend.points(conjunct) for conjunct in conjuncts]
        for left, left_points in zip(conjuncts, points):
            script = feasibility_script(left)
            assert [holds(script, p) for p in box] == [p in left_points for p in box], left
            for right, right_points in zip(conjuncts, points):
                (subset,) = subset_scripts([left], [right])
                (disjoint,) = disjoint_scripts([left], [right])
                for p in box:
                    inside = p in left_points
                    assert holds(subset, p) == (inside and p not in right_points), (left, right, p)
                    assert holds(disjoint, p) == (inside and p in right_points), (left, right, p)
