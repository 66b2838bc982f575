"""Integration test E12: cycles in the ADDG (recurrences).

The paper handles cycles through the transitive closure of the cycle's
dependence mapping.  This reproduction does not compute closures: the
checker discharges a cycle during traversal with an inductive assumption
(the correspondence of each compared array pair is assumed while its cycle
is re-entered).  The element-level well-foundedness that a closure would
certify, namely that no element depends on itself or on a later value, is
the def-use order check's job; see the self-read case of
``TestDefUseOrderLevels`` in ``tests/unit/analysis/test_dataflow.py``.
These tests check cycle detection, the element-level order of the
recurrences' self-dependences, and the end-to-end behaviour on recurrence
kernels.
"""

import pytest

from repro.addg import build_addg
from repro.analysis import ProgramGeometry, check_def_use_order, dependency_map, statement_contexts
from repro.checker import check_equivalence
from repro.lang import parse_program
from repro.lang.ast import array_reads
from repro.presburger import Map, parse_map
from repro.workloads import kernel_pair

RECURRENCE_KERNELS = ("prefix_sum", "fir", "matvec", "sad")


class TestCycleDetection:
    def test_cyclic_arrays_of_recurrence_kernels(self):
        for name in RECURRENCE_KERNELS:
            pair = kernel_pair(name)
            addg = build_addg(ProgramGeometry(pair.original))
            assert "acc" in addg.cyclic_arrays, name


class TestRecurrenceWellFoundedness:
    """The paper's computability condition, checked without a closure."""

    def test_self_dependence_is_irreflexive_and_strictly_decreasing(self):
        dependence = _self_dependence("prefix_sum", "p2", n=32)
        identity = Map.identity(dependence.in_names, domain=dependence.domain())
        assert dependence.intersect(identity).is_empty()
        assert dependence.is_subset(parse_map("{ [k] -> [j] : j < k }"))
        # Every chain of the recurrence ends: the 32nd step has nowhere to go.
        power = dependence
        for _ in range(31):
            assert power.intersect(identity).is_empty()
            power = power.compose(dependence)
        assert power.is_empty()

    def test_two_dimensional_recurrence_steps_along_one_row(self):
        dependence = _self_dependence("fir", "f2", n=16, taps=4)
        assert dependence.contains([3, 3], [3, 2])
        assert not dependence.contains([3, 3], [2, 2])
        three_steps = dependence.compose(dependence).compose(dependence)
        assert three_steps.contains([3, 3], [3, 0])
        assert not three_steps.contains([3, 3], [2, 0])
        assert three_steps.compose(dependence).is_empty()

    @pytest.mark.parametrize("side", ["original", "transformed"])
    @pytest.mark.parametrize("name", RECURRENCE_KERNELS)
    def test_recurrence_kernels_read_only_earlier_values(self, name, side):
        program = getattr(kernel_pair(name), side)
        assert check_def_use_order(ProgramGeometry(program)) == []

    def test_recurrence_reading_a_later_element_is_flagged(self):
        program = parse_program(
            """
            #define N 16
            f(int x[], int y[]) {
                int i, acc[N];
                for (i = 0; i < N; i++) {
                    if (i == N - 1)
            p1:         acc[i] = x[i];
                    else
            p2:         acc[i] = acc[i+1] + x[i];
            p3:     y[i] = acc[i];
                }
            }
            """
        )
        issues = check_def_use_order(ProgramGeometry(program))
        assert any("p2" in issue and "acc" in issue for issue in issues)


class TestRecurrenceEquivalence:
    def test_prefix_sum_is_proven_with_constant_work(self):
        small = check_equivalence(*_pair("prefix_sum", n=16))
        large = check_equivalence(*_pair("prefix_sum", n=512))
        assert small.equivalent and large.equivalent
        assert large.stats.assumption_uses >= 1
        # The traversal must not unroll the recurrence: the amount of work is
        # independent of the number of iterations.
        assert large.stats.compare_calls == small.stats.compare_calls

    def test_fir_accumulation_is_proven(self):
        result = check_equivalence(*_pair("fir", n=24, taps=5))
        assert result.equivalent

    def test_matvec_accumulation_is_proven(self):
        result = check_equivalence(*_pair("matvec", rows=8, cols=5))
        assert result.equivalent

    def test_misaligned_recurrence_is_rejected(self):
        original = parse_program(
            """
            #define N 32
            f(int x[], int y[]) {
                int i, acc[N];
                for (i = 0; i < N; i++) {
                    if (i == 0)
            p1:         acc[i] = x[0];
                    else
            p2:         acc[i] = acc[i-1] + x[i];
            p3:     y[i] = acc[i];
                }
            }
            """
        )
        broken = parse_program(
            """
            #define N 32
            f(int x[], int y[]) {
                int i, acc[N];
                for (i = 0; i < N; i++) {
                    if (i == 0)
            q1:         acc[i] = x[0];
                    else
            q2:         acc[i] = acc[i-1] + x[i-1];
            q3:     y[i] = acc[i];
                }
            }
            """
        )
        result = check_equivalence(original, broken)
        assert not result.equivalent

    def test_recurrence_with_different_base_case_is_rejected(self):
        good = kernel_pair("prefix_sum", n=32)
        broken = parse_program(
            """
            #define N 32
            prefix(int x[], int y[]) {
                int i, acc[N];
                for (i = 0; i < N; i++) {
                    if (i == 0)
            q1:         acc[i] = x[1];
                    else
            q2:         acc[i] = x[i] + acc[i-1];
                }
                for (i = 0; i < N; i++)
            q3:     y[i] = acc[i];
            }
            """
        )
        result = check_equivalence(good.original, broken)
        assert not result.equivalent


def _self_dependence(name, label, **params):
    """The dependency mapping of statement *label*'s read of its own ``acc``."""
    pair = kernel_pair(name, **params)
    contexts = {c.label: c for c in statement_contexts(pair.original)}
    recurrence = contexts[label]
    [self_read] = [r for r in array_reads(recurrence.assignment.rhs) if r.name == "acc"]
    return dependency_map(recurrence, self_read)


def _pair(name, **params):
    pair = kernel_pair(name, **params)
    return pair.original, pair.transformed
