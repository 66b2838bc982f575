"""Unit tests for the command-line driver."""

import os
import subprocess
import sys

import pytest

from repro.cli import build_arg_parser, main
from repro.workloads import FIG1_SOURCES


@pytest.fixture
def fig1_files(tmp_path):
    paths = {}
    for version, source in FIG1_SOURCES.items():
        # shrink N to keep the CLI tests fast
        text = (
            source.replace("#define N 1024", "#define N 32")
            .replace("k<512", "k<16")
            .replace("k < 512", "k < 16")
        )
        path = tmp_path / f"fig1_{version}.c"
        path.write_text(text)
        paths[version] = str(path)
    return paths


class TestArgumentParser:
    def test_defaults(self):
        args = build_arg_parser().parse_args(["orig.c", "trans.c"])
        assert args.method == "extended"
        assert not args.quiet

    def test_method_choice_validated(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args(["a.c", "b.c", "--method", "wrong"])


class TestMain:
    def test_equivalent_pair_exits_zero(self, fig1_files, capsys):
        status = main([fig1_files["a"], fig1_files["c"]])
        assert status == 0
        out = capsys.readouterr().out
        assert "EQUIVALENT" in out

    def test_inequivalent_pair_exits_one(self, fig1_files, capsys):
        status = main([fig1_files["a"], fig1_files["d"]])
        assert status == 1
        out = capsys.readouterr().out
        assert "NOT PROVEN EQUIVALENT" in out
        assert "mapping" in out

    def test_quiet_mode(self, fig1_files, capsys):
        status = main(["--quiet", fig1_files["a"], fig1_files["b"]])
        assert status == 0
        assert capsys.readouterr().out.strip() == "Equivalent"

    def test_basic_method_fails_on_algebraic_pair(self, fig1_files):
        assert main(["--quiet", "--method", "basic", fig1_files["a"], fig1_files["c"]]) == 1
        assert main(["--quiet", "--method", "basic", fig1_files["a"], fig1_files["b"]]) == 0

    def test_focused_output_option(self, fig1_files):
        assert main(["--quiet", "--output", "C", fig1_files["a"], fig1_files["b"]]) == 0

    def test_dump_addg(self, fig1_files, tmp_path):
        orig_dot = str(tmp_path / "orig.dot")
        trans_dot = str(tmp_path / "trans.dot")
        status = main(["--quiet", "--dump-addg", orig_dot, trans_dot, fig1_files["a"], fig1_files["b"]])
        assert status == 0
        assert os.path.exists(orig_dot) and os.path.exists(trans_dot)
        assert "digraph" in open(orig_dot).read()

    def test_missing_file_reports_error(self, capsys):
        status = main(["/nonexistent/a.c", "/nonexistent/b.c"])
        assert status == 2
        assert "error" in capsys.readouterr().err

    def test_declare_op_and_correspond_options(self, fig1_files):
        status = main([
            "--quiet",
            "--declare-op", "foo:AC",
            "--correspond", "tmp=tmp",
            fig1_files["a"], fig1_files["b"],
        ])
        assert status == 0

    def test_bad_correspond_syntax(self, fig1_files):
        with pytest.raises(SystemExit):
            main(["--correspond", "broken", fig1_files["a"], fig1_files["b"]])


class TestTelemetryFlags:
    def test_check_trace_and_metrics_files(self, fig1_files, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.jsonl"
        status = main([
            "check", "--quiet",
            "--trace", str(trace_path),
            "--metrics", str(metrics_path),
            fig1_files["a"], fig1_files["b"],
        ])
        assert status == 0

        payload = json.loads(trace_path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        names = {event.get("name") for event in payload["traceEvents"]}
        assert "verifier.check" in names
        assert "frontend.parse_program" in names
        assert "engine.traverse" in names

        rows = [json.loads(line) for line in metrics_path.read_text().splitlines()]
        assert rows[-1]["type"] == "opcache"
        assert any(row.get("type") == "counter" for row in rows)

        # The phase summary lands on stderr, not stdout.
        err = capsys.readouterr().err
        assert "telemetry" in err or "phase" in err

    def test_trace_flag_leaves_telemetry_disabled_afterwards(self, fig1_files, tmp_path):
        from repro.telemetry import METRICS, TRACER

        main(["check", "--quiet", "--trace", str(tmp_path / "t.json"),
              fig1_files["a"], fig1_files["b"]])
        assert TRACER.enabled is False
        assert METRICS.enabled is False
        assert TRACER.records() == []

    def test_legacy_invocation_accepts_trace_flag(self, fig1_files, tmp_path):
        trace_path = tmp_path / "legacy.json"
        assert main(["--quiet", "--trace", str(trace_path),
                     fig1_files["a"], fig1_files["b"]]) == 0
        assert trace_path.exists()

    def test_no_flags_produces_no_files(self, fig1_files, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["check", "--quiet", fig1_files["a"], fig1_files["b"]]) == 0
        assert list(tmp_path.glob("*.json")) == []


class TestImportWeight:
    def test_cli_import_leaves_numpy_unloaded(self):
        # A one-shot check pays for every module `repro.cli` pulls in, so a
        # heavy eager import must not creep back onto that path.
        code = (
            "import sys, repro.cli; "
            "sys.exit(1 if 'numpy' in sys.modules else 0)"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ))
        assert proc.returncode == 0
