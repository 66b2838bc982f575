"""Unit tests for the command-line driver."""

import argparse
import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
import tempfile

import pytest

from repro.cli import build_cli_parser, main
from repro.lang.errors import LangError, ProgramClassError
from repro.verifier import CheckOptions, Verifier
from repro.workloads import FIG1_SOURCES


NON_AFFINE_BOUND = """f(int A[], int C[][16])
{
    int i, j;
    for (i = 0; i < 4; i++)
        for (j = 0; j < i*i; j++)
            s1: C[i][j] = A[j];
}
"""

# s1 reads t before s2 writes it: a def-use violation, still in the program class.
USE_BEFORE_DEF = """f(int A[], int C[])
{
    int k, t[8];
    for (k = 0; k < 8; k++)
        s1: C[k] = t[k];
    for (k = 0; k < 8; k++)
        s2: t[k] = A[k];
}
"""


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
        args = build_cli_parser().parse_args(["check", "orig.c", "trans.c"])
        assert args.method == "extended"
        assert not args.quiet

    def test_method_choice_validated(self):
        with pytest.raises(SystemExit):
            build_cli_parser().parse_args(["check", "a.c", "b.c", "--method", "wrong"])

    def test_pair_without_a_subcommand_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["a.c", "b.c"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'a.c'" in capsys.readouterr().err

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
        "argv, message",
        [
            (["fuzz", "--pairs", "-1"], "expected an integer >= 1, got '-1'"),
            (["fuzz", "--pairs", "0"], "expected an integer >= 1, got '0'"),
            (["fuzz", "--max-depth", "0"], "expected an integer >= 1, got '0'"),
            (["fuzz", "--size", "two"], "expected an integer >= 1, got 'two'"),
            (["batch", "--workers", "-2"], "expected an integer >= 1, got '-2'"),
            (["batch", "--generated", "-1"], "expected an integer >= 0, got '-1'"),
            (["batch", "--stages", "0"], "expected an integer >= 1, got '0'"),
            (["serve", "--workers", "0"], "expected an integer >= 1, got '0'"),
            (["serve", "--port", "-1"], "expected an integer >= 0, got '-1'"),
            (["fuzz", "--mutation-rate", "7"], "expected a probability in [0, 1], got '7'"),
            (["fuzz", "--mutation-rate", "nan"], "expected a probability in [0, 1], got 'nan'"),
            (["serve", "--slow-threshold", "nan"], "finite, non-negative number of seconds"),
            (["serve", "--slow-threshold", "-1"], "finite, non-negative number of seconds"),
        ],
    )
    def test_out_of_range_number_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert message in err

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
        status = main(["check", fig1_files["a"], fig1_files["c"]])
        assert status == 0
        out = capsys.readouterr().out
        assert "EQUIVALENT" in out

    def test_inequivalent_pair_exits_one(self, fig1_files, capsys):
        status = main(["check", fig1_files["a"], fig1_files["d"]])
        assert status == 1
        out = capsys.readouterr().out
        assert "NOT PROVEN EQUIVALENT" in out
        assert "mapping" in out

    def test_quiet_mode(self, fig1_files, capsys):
        status = main(["check", "--quiet", fig1_files["a"], fig1_files["b"]])
        assert status == 0
        assert capsys.readouterr().out.strip() == "Equivalent"

    def test_basic_method_fails_on_algebraic_pair(self, fig1_files):
        assert main(["check", "--quiet", "--method", "basic", fig1_files["a"], fig1_files["c"]]) == 1
        assert main(["check", "--quiet", "--method", "basic", fig1_files["a"], fig1_files["b"]]) == 0

    def test_focused_output_option(self, fig1_files):
        assert main(["check", "--quiet", "--output", "C", fig1_files["a"], fig1_files["b"]]) == 0

    def test_dump_addg(self, fig1_files, tmp_path):
        orig_dot = str(tmp_path / "orig.dot")
        trans_dot = str(tmp_path / "trans.dot")
        status = main(["check", "--quiet", "--dump-addg", orig_dot, trans_dot, fig1_files["a"], fig1_files["b"]])
        assert status == 0
        assert os.path.exists(orig_dot) and os.path.exists(trans_dot)
        assert "digraph" in open(orig_dot).read()

    def test_missing_file_reports_error(self, capsys):
        status = main(["check", "/nonexistent/a.c", "/nonexistent/b.c"])
        assert status == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", [["check"], ["diagnose"]], ids=["check", "diagnose"])
    @pytest.mark.parametrize(
        "body",
        ["b[0] = ;", "b[0] = " + "(" * 400 + "a[0]" + ")" * 400 + ";", "b[0] = a[0] + \u00b2;"],
        ids=["malformed", "too-deep", "non-ascii-digit"],
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
        assert main(["check", str(path), str(path)]) == 2
        assert "non-linear" in capsys.readouterr().err

    def test_non_affine_loop_bound_gets_the_program_class_report(self, tmp_path, capsys):
        """The class check runs before the geometric analysis reads the bound,
        with or without the def-use prerequisites."""
        path = tmp_path / "square.c"
        path.write_text(NON_AFFINE_BOUND)
        reports = []
        for flags in ([], ["--no-preconditions"]):
            assert main(["check"] + flags + [str(path), str(path)]) == 2
            reports.append(capsys.readouterr().err)
        assert reports[0] == reports[1]
        assert reports[0].startswith("error: program 'f' is outside the allowed program class:")
        assert "loop bound: not affine" in reports[0]

    @pytest.mark.parametrize("check_preconditions", [True, False])
    def test_non_affine_loop_bound_raises_program_class_error(self, check_preconditions):
        options = CheckOptions(check_preconditions=check_preconditions)
        with pytest.raises(LangError) as raised:
            Verifier(options).check(NON_AFFINE_BOUND, NON_AFFINE_BOUND)
        assert type(raised.value) is ProgramClassError

    def test_no_preconditions_skips_the_def_use_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "use_before_def.c"
        path.write_text(USE_BEFORE_DEF)
        assert main(["check", str(path), str(path)]) == 1
        out = capsys.readouterr().out
        assert out.count("[precondition]") == 2
        assert "def-use prerequisites" in out

        assert main(["check", "--no-preconditions", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "[precondition]" not in out
        assert "output C: ok" in out
        assert "1 path(s)" in out

    def test_def_use_violation_prints_in_image_form(self, tmp_path, capsys):
        from repro.analysis import ProgramGeometry
        from repro.analysis.dataflow import _order_violations
        from repro.lang import parse_program
        from repro.presburger import parse_map

        path = tmp_path / "use_before_def.c"
        path.write_text(USE_BEFORE_DEF)
        assert main(["check", str(path), str(path)]) == 1
        printed = re.findall(r"violating instances: (\{.*\})\)", capsys.readouterr().out)
        assert len(printed) == 2 and printed[0] == printed[1]
        assert printed[0] == "{ [k] -> [k] : -k + 7 >= 0 and k >= 0 }"

        [(_, _, _, violation)] = _order_violations(ProgramGeometry(parse_program(USE_BEFORE_DEF)))
        assert str(violation) == printed[0]
        assert parse_map(str(violation)).is_equal(violation)

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
            "check", "--quiet",
            "--declare-op", "foo:AC",
            "--correspond", "tmp=tmp",
            fig1_files["a"], fig1_files["b"],
        ])
        assert status == 0

    def test_bad_correspond_syntax(self, fig1_files):
        with pytest.raises(SystemExit):
            main(["check", "--correspond", "broken", fig1_files["a"], fig1_files["b"]])

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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_untraced_batch_summary_carries_the_full_opcache_block(self, workers, tmp_path, capsys):
        from repro.presburger import opcache

        opcache.reset()  # cold, so the batch interns and computes
        report = tmp_path / "report.jsonl"
        argv = ["batch", "--kernel", "fir", "--kernel", "sad", "--workers", workers, "--no-cache"]
        assert main(argv + ["--report", str(report), "--quiet"]) == 0
        opcache_line = next(
            line for line in capsys.readouterr().out.splitlines() if line.startswith("opcache")
        )
        assert "eviction(s)" in opcache_line
        summary = [json.loads(line) for line in report.read_text().splitlines()][-1]
        assert summary["type"] == "summary"
        block = summary["opcache"]
        assert {"evictions", "intern_misses", "per_op"} <= set(block)
        assert block["per_op"] and block["intern_misses"] > 0


def _report_rows(path):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    return [row for row in rows if row["type"] == "result"], rows[-1]


class TestCorpusAndAblationFlags:
    def test_no_tabling_turns_table_hits_off(self, tmp_path):
        hits = []
        for flags in ([], ["--no-tabling"]):
            report = tmp_path / "report.jsonl"
            argv = ["batch", "--kernel", "wavelet_lift", "--no-cache", "--quiet"]
            assert main(argv + flags + ["--report", str(report)]) == 0
            (row,), _ = _report_rows(report)
            hits.append(row["result"]["stats"]["table_hits"])
        assert hits == [6, 0]

    @pytest.mark.parametrize("stages", [2, 4])
    def test_stages_shapes_every_generated_program(self, tmp_path, stages):
        report = tmp_path / "report.jsonl"
        argv = ["batch", "--generated", "2", "--buggy", "1", "--size", "12"]
        argv += ["--transform-steps", "1", "--stages", str(stages), "--no-cache", "--quiet"]
        assert main(argv + ["--report", str(report)]) == 0
        rows, _ = _report_rows(report)
        assert len(rows) == 3
        assert [row["metadata"]["stages"] for row in rows] == [stages] * 3

    def test_strict_fails_on_incompleteness(self, tmp_path):
        report = tmp_path / "report.jsonl"
        argv = ["fuzz", "--pairs", "6", "--size", "12", "--method", "basic", "--no-diagnose"]
        argv += ["--quiet", "--report", str(report)]
        assert main(argv) == 0
        _, summary = _report_rows(report)
        assert summary["scenarios"]["incompleteness"] == ["scenario/0001"]
        assert main(argv + ["--strict"]) == 1


class TestServeFlags:
    @pytest.fixture
    def served_config(self, monkeypatch):
        """Run ``main(["serve", ...])`` without binding; return its ServerConfig."""
        import repro.server

        configs = []
        monkeypatch.setattr(
            repro.server, "run_server", lambda config, ready=None: configs.append(config)
        )

        def serve(*flags):
            assert main(["serve", *flags]) == 0
            (config,) = configs
            configs.clear()
            return config

        return serve

    def test_defaults_bind_loopback_tcp_only(self, served_config):
        config = served_config()
        assert (config.host, config.port, config.unix_socket) == ("127.0.0.1", 8571, None)
        assert config.max_timeout is None

    def test_every_config_field_is_set_by_a_flag(self, served_config, tmp_path):
        from repro.server import ServerConfig

        config = served_config(
            "--host", "0.0.0.0", "--port", "0", "--unix-socket", str(tmp_path / "s.sock"),
            "--workers", "3", "--cache-dir", str(tmp_path / "cache"), "--no-cache",
            "--timeout", "5", "--max-timeout", "9", "--backend", "crosscheck",
            "--smt-solver", "cvc5", "--persist-dir", str(tmp_path / "persist"),
            "--log", str(tmp_path / "log.jsonl"), "--log-level", "debug",
            "--slow-threshold", "0.5",
        )
        default = ServerConfig()
        unset = [
            field.name
            for field in dataclasses.fields(ServerConfig)
            if getattr(config, field.name) == getattr(default, field.name)
        ]
        assert unset == []
        assert config.host == "0.0.0.0"
        assert config.unix_socket == str(tmp_path / "s.sock")
        assert (config.default_timeout, config.max_timeout) == (5.0, 9.0)

    def test_no_tcp_drops_the_tcp_listener(self, served_config, tmp_path):
        path = str(tmp_path / "s.sock")
        config = served_config("--no-tcp", "--unix-socket", path)
        assert (config.host, config.unix_socket) == (None, path)

    def test_no_tcp_without_unix_socket_is_a_usage_error(self, served_config, capsys):
        assert main(["serve", "--no-tcp"]) == 2
        assert capsys.readouterr().err == "error: --no-tcp requires --unix-socket\n"

    def test_unix_socket_only_daemon_answers_and_drains(self):
        from repro.server import ServerClient

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # A short directory: unix socket paths are limited to ~100 bytes.
        with tempfile.TemporaryDirectory(prefix="eqsock-") as directory:
            path = os.path.join(directory, "s.sock")
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--no-tcp", "--unix-socket", path],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
            )
            try:
                assert process.stdout.readline() == f"listening on unix:{path}\n"
                with ServerClient(f"unix:{path}") as client:
                    assert client.ping()["pong"] is True
                process.send_signal(signal.SIGTERM)
                assert process.wait(timeout=30) == 0
                assert process.stdout.read() == ""
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=10)
                process.stdout.close()
                process.stderr.close()


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


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_every_flag_is_exercised():
    """Every option of every subcommand appears in a test or in a CI step."""
    texts = []
    for directory, _, files in os.walk(os.path.join(REPO_ROOT, "tests")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), encoding="utf-8") as handle:
                    texts.append(handle.read())
    with open(os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml"), encoding="utf-8") as handle:
        texts.append(handle.read())
    corpus = "\n".join(texts)

    parser = build_cli_parser()
    (subcommands,) = [
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    ]
    unexercised = []
    for command, subparser in subcommands.choices.items():
        for action in subparser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            for flag in action.option_strings:
                # Whole-flag match: `--log` must not count a `--log-level` use.
                if not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", corpus):
                    unexercised.append(f"{command} {flag}")
    assert unexercised == []
