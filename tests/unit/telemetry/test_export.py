"""Unit tests: exporters — Chrome trace JSON, metrics JSONL, phase aggregation."""

import json

from repro import telemetry
from repro.telemetry import (
    TRACER,
    SpanRecord,
    aggregate_phase_seconds,
    chrome_trace,
    format_phase_summary,
    write_chrome_trace,
    write_metrics_jsonl,
)


def _span(name, category, start_us, duration_us, pid=1, tid=1, span_id=1, parent_id=None):
    return SpanRecord(
        name=name,
        category=category,
        start_us=start_us,
        duration_us=duration_us,
        pid=pid,
        tid=tid,
        span_id=span_id,
        parent_id=parent_id,
    )


class TestChromeTrace:
    def test_empty_records_yield_a_valid_empty_trace(self):
        assert chrome_trace([]) == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_complete_events_carry_normalised_timestamps(self):
        records = [
            _span("late", "engine", start_us=2_000, duration_us=10, span_id=2),
            _span("early", "frontend", start_us=1_000, duration_us=500, span_id=1),
        ]
        payload = chrome_trace(records)
        events = {e["name"]: e for e in payload["traceEvents"] if e["ph"] == "X"}
        assert events["early"]["ts"] == 0  # origin-shifted
        assert events["late"]["ts"] == 1_000
        assert events["early"]["dur"] == 500
        assert events["early"]["cat"] == "frontend"

    def test_zero_duration_spans_become_instant_events(self):
        payload = chrome_trace([_span("hit", "engine", start_us=5, duration_us=0)])
        (event,) = [e for e in payload["traceEvents"] if e["ph"] != "M"]
        assert event["ph"] == "i"
        assert event["s"] == "t"
        assert "dur" not in event

    def test_one_process_name_row_per_pid(self):
        records = [
            _span("a", "service", 0, 1, pid=100, span_id=1),
            _span("b", "service", 0, 1, pid=200, span_id=2),
        ]
        payload = chrome_trace(records)
        metadata = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        names = {e["pid"]: e["args"]["name"] for e in metadata}
        assert names[100] == "repro-eqcheck"  # first pid is the main process
        assert names[200] == "worker-200"

    def test_trace_is_json_serialisable_end_to_end(self, tmp_path):
        telemetry.enable()
        with TRACER.span("outer", "engine", note="x"):
            pass
        target = tmp_path / "trace.json"
        write_chrome_trace(str(target), TRACER.records())
        data = json.loads(target.read_text())
        assert any(e["name"] == "outer" for e in data["traceEvents"])


class TestPhaseAggregation:
    def test_nested_same_category_counts_once(self):
        records = [
            _span("traverse", "engine", 0, 1_000_000, span_id=1),
            _span("output", "engine", 0, 600_000, span_id=2, parent_id=1),
            _span("op", "presburger", 0, 250_000, span_id=3, parent_id=2),
        ]
        phases = aggregate_phase_seconds(records)
        assert phases["engine"] == 1.0  # the nested output span is not added
        assert phases["presburger"] == 0.25

    def test_grandparent_of_same_category_suppresses_too(self):
        records = [
            _span("a", "engine", 0, 1_000_000, span_id=1),
            _span("b", "presburger", 0, 500_000, span_id=2, parent_id=1),
            _span("c", "engine", 0, 100_000, span_id=3, parent_id=2),
        ]
        phases = aggregate_phase_seconds(records)
        # "c" nests (through a presburger span) inside engine span "a".
        assert phases["engine"] == 1.0

    def test_unknown_categories_are_ignored(self):
        records = [
            _span("check", "verifier", 0, 1_000_000, span_id=1),
            _span("lex", "frontend", 0, 200_000, span_id=2, parent_id=1),
        ]
        phases = aggregate_phase_seconds(records)
        assert "verifier" not in phases
        assert phases["frontend"] == 0.2

    def test_workers_with_same_span_ids_do_not_collide(self):
        # Two workers can both record span_id 1; the (pid, id) key keeps
        # their parent chains separate.
        records = [
            _span("job", "service", 0, 1_000_000, pid=10, span_id=1),
            _span("job", "service", 0, 2_000_000, pid=20, span_id=1),
            _span("traverse", "engine", 0, 400_000, pid=20, span_id=2, parent_id=1),
        ]
        phases = aggregate_phase_seconds(records)
        assert phases["service"] == 3.0
        assert phases["engine"] == 0.4


class TestSummariesAndJsonl:
    def test_format_phase_summary_lists_phases_and_counters(self):
        text = format_phase_summary(
            {"frontend": 0.5, "engine": 1.5, "presburger": 0.4},
            span_count=42,
            counters={"presburger.fm_eliminations": 7},
        )
        assert "frontend" in text
        assert "engine" in text
        assert "nested inside" in text  # presburger is flagged as nested
        assert "42" in text
        assert "presburger.fm_eliminations" in text

    def test_write_metrics_jsonl_appends_extra_rows(self, tmp_path):
        target = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(
            str(target),
            [{"type": "counter", "name": "a", "value": 1}],
            extra_rows=[{"type": "opcache", "hits": 5}],
        )
        rows = [json.loads(line) for line in target.read_text().splitlines()]
        assert rows[0]["name"] == "a"
        assert rows[-1] == {"type": "opcache", "hits": 5}
