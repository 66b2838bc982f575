"""Deep inputs: long chains check to the end, and an overflowing one fails cleanly.

The traversal recurses and has no depth cap of its own.  A chain of a few
hundred operands checks against itself, and a chain deep enough to reach the
interpreter's recursion limit gives NOT EQUIVALENT with one UNSUPPORTED
diagnostic through every front door (``Verifier.check``, the CLI and the
server), never an escaping ``RecursionError``.
"""

import pytest

from repro.addg import build_addg
from repro.analysis import ProgramGeometry
from repro.checker import DiagnosticKind
from repro.checker.engine import Engine
from repro.cli import main
from repro.lang import parse_program
from repro.presburger import Map
from repro.server import ServerClient, ServerConfig, ServerThread
from repro.service import JobStatus, VerificationJob
from repro.verifier import Verifier
from repro.workloads import chain_source

# Deep enough to overflow the default recursion limit from any caller.
OVERFLOWING_STAGES = 300


def _minus_pipeline(stages: int) -> str:
    """``t_s = t_{s-1} - A[k + s]``: a chain that flattening cannot shorten."""
    return chain_source("pipeline", range(stages)).replace(" + A[", " - A[")


def _with_second_output(source: str, expression: str) -> str:
    """*source* with a second output ``other[k] = expression`` in the same loop."""
    source = source.replace("int out[32])", "int out[32], int other[32])")
    return source.replace("\n    }\n}\n", f"\n        x0: other[k] = {expression};\n    }}\n}}\n")


def _assert_one_overflow(diagnostics):
    [unsupported] = [d for d in diagnostics if d.kind == DiagnosticKind.UNSUPPORTED]
    assert "recursion limit" in unsupported.message
    return unsupported


class TestLongChainsAreEquivalentToThemselves:
    @pytest.mark.parametrize(
        "shape,length", [("sum", 120), ("sum", 200), ("pipeline", 100), ("pipeline", 150)]
    )
    def test_check_p_p(self, shape, length):
        source = chain_source(shape, range(length))
        result = Verifier().check(source, source)
        assert result.equivalent
        assert result.diagnostics == []
        assert result.stats.compare_calls == length + 1


class TestOverflow:
    def test_verifier_check_reports_one_unsupported_diagnostic(self):
        source = _minus_pipeline(OVERFLOWING_STAGES)
        result = Verifier().check(source, source)
        assert not result.equivalent
        [diagnostic] = result.diagnostics
        assert diagnostic is _assert_one_overflow(result.diagnostics)
        assert diagnostic.output_array == "out"

    def test_cli_check_exits_1_without_a_traceback(self, tmp_path, capsys):
        path = tmp_path / "deep.c"
        path.write_text(_minus_pipeline(OVERFLOWING_STAGES))
        assert main(["check", str(path), str(path)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "recursion limit" in captured.out

    def test_server_check_is_a_verdict_not_an_error(self):
        source = _minus_pipeline(OVERFLOWING_STAGES)
        job = VerificationJob(name="deep", original_source=source, transformed_source=source)
        with ServerThread(ServerConfig(port=0, workers=1)) as handle:
            with ServerClient(handle.address) as client:
                outcome = client.check_job(job, timeout=120.0)
        assert outcome.status == JobStatus.OK
        assert outcome.equivalent is False
        _assert_one_overflow(outcome.result.diagnostics)

    def test_the_other_output_gets_its_own_verdict(self):
        # The deep output overflows inside a trial compare of the `*` group
        # (both products read an intermediate, so they have no key).  The
        # diagnostic suppression of that trial must unwind: the second output
        # is still checked and its mismatch is reported.
        deep = _minus_pipeline(OVERFLOWING_STAGES).replace(
            f"out[k] = t{OVERFLOWING_STAGES - 1}[k];",
            f"out[k] = t{OVERFLOWING_STAGES - 1}[k] * 2 + t{OVERFLOWING_STAGES - 1}[k] * 3;",
        )
        original = _with_second_output(deep, "t0[k] + A[k + 1]")
        equal = Verifier().check(original, original)
        assert [(r.array, r.equivalent) for r in equal.outputs] == [("out", False), ("other", True)]
        _assert_one_overflow(equal.diagnostics)

        broken = Verifier().check(original, _with_second_output(deep, "A[k + 2] + t0[k]"))
        assert [(r.array, r.equivalent) for r in broken.outputs] == [("out", False), ("other", False)]
        assert _assert_one_overflow(broken.diagnostics).output_array == "out"
        [mismatch] = [d for d in broken.diagnostics if d.output_array == "other"]
        assert mismatch.kind == DiagnosticKind.MAPPING_MISMATCH

    def test_the_engine_state_unwinds(self):
        addg = build_addg(ProgramGeometry(parse_program(_minus_pipeline(OVERFLOWING_STAGES))))
        engine = Engine(addg, addg)
        domain = addg.written_set("out")
        identity = Map.identity(domain.names, domain=domain)
        assert not engine.discharge(
            engine.output_term(0, "out", identity), engine.output_term(1, "out", identity)
        )
        assert engine._suppress == 0
        assert engine._assumptions == []
        assert engine._assumption_mark == 0
        _assert_one_overflow(engine.diagnostics)
