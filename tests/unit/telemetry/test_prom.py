"""Unit tests for :mod:`repro.telemetry.prom` (exposition format 0.0.4).

Every rendering is additionally run through ``tools/prom_lint.py`` — the
same regex validator CI applies to a live server's ``stats --prom`` output —
so the unit suite and the smoke job enforce one grammar.
"""

import importlib.util
import os

from repro.telemetry.metrics import Histogram
from repro.telemetry.prom import (
    CONTENT_TYPE,
    escape_help,
    escape_label_value,
    render_server_snapshot,
    sanitize_metric_name,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))


def _load_lint():
    spec = importlib.util.spec_from_file_location(
        "prom_lint", os.path.join(REPO_ROOT, "tools", "prom_lint.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LINT = _load_lint()


def assert_clean(text: str) -> None:
    problems = LINT.validate(text)
    assert not problems, "\n".join(problems)


class TestEscaping:
    def test_metric_name_sanitized(self):
        assert sanitize_metric_name("cache.hit-rate") == "cache_hit_rate"
        assert sanitize_metric_name("9lives") == "_9lives"
        assert sanitize_metric_name("ok_name:sub") == "ok_name:sub"

    def test_label_value_escapes(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_help_escapes_newline_and_backslash(self):
        assert escape_help("why\nnot\\now") == "why\\nnot\\\\now"

    def test_content_type_pins_the_format_version(self):
        assert "0.0.4" in CONTENT_TYPE


class TestRenderServerSnapshot:
    SNAPSHOT = {
        "requests": 12,
        "checks_executed": 5,
        "cache_hits": 3,
        "cache_hit_rate": 0.375,
        "uptime_seconds": 4.5,
        "pid": 4242,
        "draining": False,
        "latency": {
            "request_seconds": Histogram("request_seconds").snapshot(),
        },
        "opcache": {
            "hits": 10,
            "misses": 2,
            "fm_eliminations": 7,
            "dark_shadow_splinters": 0,
            "feasibility_checks": 11,
            "per_op": {"compose": {"hits": 4, "misses": 1}},
        },
        "solver_queries": {"omega": 9},
        "by_status": {"ok": 5},
        "persist": {"attached": False, "path": None, "disabled": None},
        "address": "127.0.0.1:1",  # strings are skipped, never rendered
    }

    def test_renders_and_validates(self):
        text = render_server_snapshot(self.SNAPSHOT)
        assert_clean(text)

    def test_counter_vs_gauge_classification(self):
        text = render_server_snapshot(self.SNAPSHOT)
        assert "# TYPE repro_server_requests counter" in text
        assert "# TYPE repro_server_cache_hit_rate gauge" in text
        assert "# TYPE repro_server_uptime_seconds gauge" in text

    def test_labelled_expansion(self):
        text = render_server_snapshot(self.SNAPSHOT)
        assert 'repro_server_solver_queries{kind="omega"} 9' in text
        assert 'repro_server_opcache_per_op_hits{op="compose"} 4' in text
        assert 'repro_server_by_status{status="ok"} 5' in text

    def test_booleans_render_as_01(self):
        text = render_server_snapshot(self.SNAPSHOT)
        assert "repro_server_draining 0" in text
        assert "repro_server_persist_attached 0" in text

    def test_strings_and_nones_are_skipped(self):
        text = render_server_snapshot(self.SNAPSHOT)
        assert "address" not in text
        assert "persist_path" not in text

    def test_empty_histogram_still_valid(self):
        text = render_server_snapshot(
            {"latency": {"request_seconds": Histogram("request_seconds").snapshot()}}
        )
        assert_clean(text)
        assert 'repro_server_latency_request_seconds_bucket{le="+Inf"} 0' in text

    def test_presburger_work_counts_are_counters(self):
        text = render_server_snapshot(self.SNAPSHOT)
        for name in ("fm_eliminations", "dark_shadow_splinters", "feasibility_checks"):
            assert f"# TYPE repro_server_opcache_{name} counter" in text
        assert "repro_server_opcache_fm_eliminations 7" in text

    def test_histogram_buckets_are_cumulative(self):
        histogram = Histogram("depth")
        for value in (0.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        text = render_server_snapshot({"depth": histogram.snapshot()}, namespace="repro")
        assert_clean(text)
        lines = [line for line in text.splitlines() if "_bucket" in line]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert lines[-1].startswith('repro_depth_bucket{le="+Inf"}')
        assert counts[-1] == 4
        assert "repro_depth_count 4" in text

    def test_weird_label_values_survive_the_validator(self):
        text = render_server_snapshot(
            {"solver_queries": {'om"ega\n\\': 7}}, namespace="repro_server"
        )
        assert_clean(text)
        assert '\\"' in text and "\\n" in text


class TestValidatorItself:
    # The gate must actually bite — feed it the classic breakages.
    def test_rejects_noncumulative_histogram(self):
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\nh_count 3\n"
        )
        assert LINT.validate(bad)

    def test_rejects_missing_inf_bucket(self):
        bad = '# TYPE h histogram\nh_bucket{le="1"} 1\nh_sum 1\nh_count 1\n'
        assert any("+Inf" in problem for problem in LINT.validate(bad))

    def test_rejects_bad_metric_name(self):
        assert LINT.validate("bad-name 1\n")

    def test_rejects_unescaped_label_quote(self):
        assert LINT.validate('m{l="a"b"} 1\n')

    def test_rejects_type_after_sample(self):
        assert LINT.validate("m 1\n# TYPE m counter\n")

    def test_accepts_special_values(self):
        assert not LINT.validate("m 1\nn +Inf\no NaN\np -3e-5\n")
