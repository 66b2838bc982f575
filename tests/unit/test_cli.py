"""Unit tests for the command-line driver."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_arg_parser, build_cli_parser, main
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

    @pytest.mark.parametrize(
        "command",
        [["check", "a.c", "b.c"], ["batch"], ["fuzz"], ["serve"]],
        ids=["check", "batch", "fuzz", "serve"],
    )
    @pytest.mark.parametrize("value", ["-1", "inf", "1e12"])
    def test_malformed_budget_is_a_usage_error(self, capsys, command, value):
        # Beyond threading.TIMEOUT_MAX the watchdog timer thread dies and the
        # check would run unbudgeted with a thread traceback on stderr.
        with pytest.raises(SystemExit) as excinfo:
            build_cli_parser().parse_args(command + ["--timeout", value])
        assert excinfo.value.code == 2
        assert "finite, non-negative number of seconds" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, report",
        [("batch", "eqcheck_report.jsonl"), ("fuzz", "fuzz_report.jsonl")],
    )
    def test_run_arguments_keep_each_command_default(self, command, report):
        args = build_cli_parser().parse_args([command])
        assert args.report == report
        assert args.workers == 1
        assert args.timeout is None
        assert args.quiet is False

    @pytest.mark.parametrize(
        "command, workers_for, noun",
        [("batch", "cache misses", "job"), ("fuzz", "the verification batch", "pair")],
    )
    def test_run_arguments_help_names_the_command(self, capsys, command, workers_for, noun):
        with pytest.raises(SystemExit):
            build_cli_parser().parse_args([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"worker processes for {workers_for}" in text
        assert f"no per-{noun} lines" in text
        assert "then an aggregate opcache row" in text
        assert "gauges" not in text


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

    @pytest.mark.parametrize(
        "subcommand", [[], ["check"], ["diagnose"]], ids=["default", "check", "diagnose"]
    )
    @pytest.mark.parametrize(
        "body",
        ["b[0] = ;", "b[0] = " + "(" * 400 + "a[0]" + ")" * 400 + ";"],
        ids=["malformed", "too-deep"],
    )
    def test_malformed_input_is_a_usage_error(self, tmp_path, capsys, subcommand, body):
        """Exit 2 (usage error) with the offending file named, not exit 1
        ("not proven") with a traceback."""
        bad = tmp_path / "bad.c"
        bad.write_text("f(int a[], int b[])\n{\n    " + body + "\n}\n")
        status = main(subcommand + [str(bad), str(bad)])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "entry",
        [{"options": "basic"}, {"timeout": "soon"}, {"timeout": float("inf")}, {"timeout": 1e12}],
        ids=["options-str", "timeout-str", "timeout-inf", "timeout-1e12"],
    )
    def test_malformed_job_file_entry_is_a_usage_error(self, tmp_path, capsys, entry):
        """A wrong-typed job entry fails at load time with its position named,
        not as a traceback or as an ERROR row once the batch runs."""
        source = "f(int a[], int b[])\n{\n    b[0] = a[0];\n}\n"
        job_file = tmp_path / "jobs.json"
        job_file.write_text(
            json.dumps([{"original_source": source, "transformed_source": source, **entry}])
        )
        status = main(["batch", "--jobs", str(job_file), "--no-cache", "--report", "-", "--quiet"])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: job #0 in {str(job_file)!r} is malformed: ")
        assert "Traceback" not in err

    def test_frontend_error_after_parsing_is_a_usage_error(self, tmp_path, capsys):
        source = (
            "#define N 8\nf(int A[], int B[])\n{\n    int k;\n"
            "    for (k = 0; k < N; k++)\ns1:     B[k*k] = A[k];\n}\n"
        )
        path = tmp_path / "nonaffine.c"
        path.write_text(source)
        assert main([str(path), str(path)]) == 2
        assert "non-linear" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["check", "diagnose"])
    @pytest.mark.parametrize(
        "flags",
        [
            ["--backend", "smtlib", "--smt-solver", "nosuchsolver"],
            ["--backend", "smtlib"],
        ],
        ids=["no-such-binary", "no-solver-on-path"],
    )
    def test_unavailable_backend_is_a_usage_error(
        self, fig1_files, tmp_path, capsys, monkeypatch, subcommand, flags
    ):
        """A backend that cannot run here is `error: ...` and exit 2, not a traceback."""
        monkeypatch.setenv("PATH", str(tmp_path))  # no solver binary to find
        status = main([subcommand, "--quiet", *flags, fig1_files["a"], fig1_files["c"]])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("subcommand", ["check", "diagnose"])
    def test_removed_z3_backend_is_an_invalid_choice(self, fig1_files, capsys, subcommand):
        with pytest.raises(SystemExit) as excinfo:
            main([subcommand, "--quiet", "--backend", "z3", fig1_files["a"], fig1_files["c"]])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'z3'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "entry", [{"backend": "z3"}, {"options": {"backend": "z3"}}], ids=["flat", "options"]
    )
    def test_job_file_naming_removed_z3_backend_is_malformed(self, tmp_path, capsys, entry):
        source = "f(int a[], int b[])\n{\n    b[0] = a[0];\n}\n"
        job_file = tmp_path / "jobs.json"
        job_file.write_text(
            json.dumps([{"original_source": source, "transformed_source": source, **entry}])
        )
        status = main(["batch", "--jobs", str(job_file), "--no-cache", "--report", "-", "--quiet"])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: job #0 in {str(job_file)!r} is malformed: ")
        assert "unknown backend 'z3'" in err

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

    @pytest.mark.parametrize(
        "flags",
        [["--backend", "crosscheck"], ["--smt-solver", "z3"]],
        ids=["backend", "smt-solver"],
    )
    def test_job_file_warns_about_ignored_backend_flags(self, tmp_path, capsys, flags):
        source = "f(int a[], int b[])\n{\n    b[0] = a[0];\n}\n"
        job_file = tmp_path / "jobs.json"
        job_file.write_text(
            json.dumps([{"name": "j", "original_source": source, "transformed_source": source}])
        )
        status = main(
            ["batch", "--jobs", str(job_file), "--no-cache", "--report", "-", "--quiet"] + flags
        )
        assert status == 0
        captured = capsys.readouterr()
        assert f"warning: {flags[0]} ignored with --jobs" in captured.err
        # The job's own (default) backend ran: no solvers block.
        assert "solvers" not in captured.out

    def test_persist_dir_attaches_the_store(self, fig1_files, tmp_path):
        from repro.presburger import opcache
        from repro.presburger.persist import PersistentStore

        path = str(tmp_path / "persist")
        argv = ["check", "--quiet", "--persist-dir", path, fig1_files["a"], fig1_files["c"]]
        opcache.reset()
        try:
            assert main(argv) == 0
            store = PersistentStore(path)
            assert store.entry_count() > 0
            store.close()
            # The run's store is released with the run ...
            assert opcache.persistent_store() is None
            # ... and a second run with a cold memory tier starts warm from it.
            opcache.reset()
            assert main(argv) == 0
            assert opcache.stats().disk_hits > 0
        finally:
            opcache.reset()


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

    def test_metrics_rows_are_presburger_counters_then_opcache(self, fig1_files, tmp_path):
        import json

        from repro.presburger import opcache

        opcache.reset()  # a cold check, so the omega core does some work
        metrics_path = tmp_path / "metrics.jsonl"
        assert main(["check", "--quiet", "--metrics", str(metrics_path),
                     fig1_files["a"], fig1_files["b"]]) == 0
        rows = [json.loads(line) for line in metrics_path.read_text().splitlines()]
        *counters, opcache_row = rows
        assert opcache_row["type"] == "opcache"
        assert all(row["type"] == "counter" for row in counters)
        by_name = {row["name"]: row["value"] for row in counters}
        assert all(name.startswith("presburger.") for name in by_name)
        # The counter rows and the opcache row read the same owner.
        assert by_name["presburger.fm_eliminations"] == opcache_row["fm_eliminations"] > 0
        assert by_name["presburger.feasibility_checks"] == opcache_row["feasibility_checks"] > 0

    def test_trace_flag_leaves_telemetry_disabled_afterwards(self, fig1_files, tmp_path):
        from repro.telemetry import TRACER

        main(["check", "--quiet", "--trace", str(tmp_path / "t.json"),
              fig1_files["a"], fig1_files["b"]])
        assert TRACER.enabled is False
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

    def test_check_leaves_the_batch_service_unloaded(self, fig1_files):
        # `check --timeout` needs only the watchdog, which lives in a leaf
        # module; the batch service package stays off the one-shot path.
        code = (
            "import sys; from repro.cli import main; "
            f"code = main(['check', '--quiet', '--timeout', '60', {fig1_files['a']!r}, "
            f"{fig1_files['b']!r}]); "
            "sys.exit(3 if 'repro.service' in sys.modules else code)"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ))
        assert proc.returncode == 0
