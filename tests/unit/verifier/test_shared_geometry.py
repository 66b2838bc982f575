"""One geometric analysis per program, shared by every consumer.

A :class:`~repro.verifier.CompiledProgram` derives its statement contexts,
access maps, defined sets and per-array written sets once
(:class:`~repro.analysis.ProgramGeometry`); the def-use checks, the ADDG
extractor and the traversal all read the same objects.  These tests pin that
sharing: derivation counts over the kernel registry, object identity between
the ADDG and the contexts, no attribute added or rebound by a check, and equal
results when threads share one compiled pair.
"""

import collections
import sys
import threading

import pytest

from repro.analysis import domains
from repro.lang import parse_program, program_to_text
from repro.lang.ast import array_reads
from repro.presburger import Map, Set
from repro.verifier import CompiledProgram, Verifier
from repro.workloads import SMALL_KERNEL_PARAMS, fig1_program, kernel_names, kernel_pair


def _summary(result, compiled_pair):
    return (
        result.equivalent,
        [diagnostic.format() for diagnostic in result.diagnostics],
        [compiled.dataflow_issues for compiled in compiled_pair],
    )


@pytest.fixture
def derivations(monkeypatch):
    """Count statement-context runs, access-map builds, and ranges / unions taken."""
    counts = {"contexts": 0, "access_maps": collections.Counter(), "ranges": [], "unions": []}

    original_contexts = domains.statement_contexts
    original_access_map = domains.StatementContext._access_map
    original_range = Map.range
    original_union = Set.union

    def statement_contexts(program):
        counts["contexts"] += 1
        return original_contexts(program)

    def access_map(context, ref, prefix):
        counts["access_maps"][(context, prefix, ref)] += 1
        return original_access_map(context, ref, prefix)

    def map_range(relation):
        counts["ranges"].append(relation)  # kept alive, so identity tests below are exact
        return original_range(relation)

    def set_union(left, right):
        counts["unions"].append(right)
        return original_union(left, right)

    monkeypatch.setattr(domains, "statement_contexts", statement_contexts)
    monkeypatch.setattr(domains.StatementContext, "_access_map", access_map)
    monkeypatch.setattr(Map, "range", map_range)
    monkeypatch.setattr(Set, "union", set_union)
    return counts


@pytest.mark.parametrize("name", kernel_names())
def test_each_derivation_runs_once_per_check(name, derivations):
    pair = kernel_pair(name, **SMALL_KERNEL_PARAMS[name])
    verifier = Verifier()
    compiled = [verifier.compile(pair.original), verifier.compile(pair.transformed)]
    verifier.check(*compiled)

    assert derivations["contexts"] == 2  # once per program
    expected = collections.Counter()
    for side in compiled:
        geometry = side.geometry
        inputs = set(side.program.input_arrays())
        for context in geometry.contexts:
            expected[(context, "w", context.assignment.target)] = 1
            for ref in array_reads(context.assignment.rhs):
                if ref.name not in inputs:
                    expected[(context, "e", ref)] = 1
            # the defined set is the range of the write map, taken once
            assert sum(relation is context.write_map for relation in derivations["ranges"]) == 1
        for array, writers in geometry.writers.items():
            defined = [writer.defined for writer in writers]
            folded = sum(any(right is d for d in defined) for right in derivations["unions"])
            assert folded <= len(writers) - 1  # the written set is built at most once
    assert derivations["access_maps"] == expected


def test_addg_statements_share_the_contexts_maps():
    compiled = CompiledProgram(kernel_pair("fir", **SMALL_KERNEL_PARAMS["fir"]).original)
    compiled.dataflow_issues
    addg = compiled.addg
    assert addg.geometry is compiled.geometry
    for statement, context in zip(addg.statements, compiled.geometry.contexts):
        assert statement.context is context
        assert statement.write_map is context.write_map
        assert statement.written is context.defined
    for array in addg.definitions:
        assert addg.written_set(array) is compiled.geometry.written_set(array)


def _programs(name):
    if name == "fig1-buggy":  # the paper's erroneous pair: diagnostics to compare
        return fig1_program("a", 32), fig1_program("d", 32)
    pair = kernel_pair(name, **SMALL_KERNEL_PARAMS[name])
    return pair.original, pair.transformed


@pytest.mark.parametrize("name", ["fig1-buggy", "prefix_sum"])
def test_two_threads_on_one_cold_compiled_pair(name):
    original, transformed = _programs(name)
    serial_pair = [CompiledProgram(original), CompiledProgram(transformed)]
    expected = _summary(Verifier().check(*serial_pair), serial_pair)

    shared = [CompiledProgram(original), CompiledProgram(transformed)]
    results, errors = [None, None], []
    start = threading.Barrier(2)

    def worker(slot):
        try:
            start.wait()
            results[slot] = _summary(Verifier().check(*shared), shared)
        except Exception as error:  # noqa: BLE001 - collected and asserted below
            errors.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(previous)

    assert errors == []
    assert results == [expected, expected]
    for compiled in shared:
        for statement in compiled.addg.statements:
            assert statement.write_map is statement.context.write_map


def _attributes(obj):
    """The instance attributes of *obj* by name, slots included."""
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        names.update(getattr(cls, "__slots__", ()))
    return {name: getattr(obj, name) for name in names if hasattr(obj, name)}


def _artifacts(compiled):
    """Every attribute reachable from *compiled*'s frontend objects, and every dict entry of one.

    Keys are paths; values are the objects themselves, kept alive so that a
    later ``is`` comparison cannot be fooled by a reused ``id``.
    """
    owners = [("compiled", compiled), ("geometry", compiled.geometry), ("addg", compiled.addg)]
    owners += [(("context", index), context) for index, context in enumerate(compiled.geometry.contexts)]
    found = {}
    for owner, obj in owners:
        for name, value in _attributes(obj).items():
            found[(owner, name)] = value
            if isinstance(value, dict):
                for key, item in value.items():
                    found[(owner, name, key)] = item
    return found


@pytest.mark.parametrize("name", ["fig1-buggy"] + kernel_names())
def test_check_and_diagnose_add_or_rebind_nothing(name):
    compiled = [CompiledProgram(program) for program in _programs(name)]
    before = [_artifacts(side) for side in compiled]

    verifier = Verifier()
    result = verifier.check(*compiled)
    verifier.diagnose(*compiled, result=result)
    verifier.diagnose(*compiled)

    for side, recorded in zip(compiled, before):
        after = _artifacts(side)
        assert after.keys() == recorded.keys()
        rebound = [path for path, value in after.items() if value is not recorded[path]]
        assert rebound == []


@pytest.mark.parametrize("name", ["fig1-buggy"] + kernel_names())
def test_session_threads_share_the_one_published_compiled_pair(name):
    sources = [program_to_text(program) for program in _programs(name)]
    serial_pair = [CompiledProgram(parse_program(source)) for source in sources]
    expected = _summary(Verifier().check(*serial_pair), serial_pair)

    session = Verifier()
    held, results, errors = [None] * 3, [None] * 3, []
    start = threading.Barrier(3)

    def worker(slot):
        try:
            start.wait()
            held[slot] = [session.compile(source) for source in sources]
            results[slot] = _summary(session.check(*held[slot]), held[slot])
        except Exception as error:  # noqa: BLE001 - collected and asserted below
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert errors == []
    assert results == [expected] * 3
    published = [session.compile(source) for source in sources]
    for pair in held:
        assert all(mine is one for mine, one in zip(pair, published))
