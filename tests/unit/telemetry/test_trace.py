"""Unit tests: the span tracer — nesting, threads, serialization, no-op mode."""

import asyncio
import os
import threading

import pytest

from repro import telemetry
from repro.telemetry import TRACER, SpanRecord
from repro.telemetry.trace import _NOOP_SPAN


def _by_name(records):
    return {record.name: record for record in records}


class TestSpanNesting:
    def test_nested_spans_link_to_their_parents(self):
        telemetry.enable()
        with TRACER.span("outer", "engine"):
            with TRACER.span("middle", "engine"):
                with TRACER.span("inner", "presburger"):
                    pass
        spans = _by_name(TRACER.records())
        assert spans["outer"].parent_id is None
        assert spans["middle"].parent_id == spans["outer"].span_id
        assert spans["inner"].parent_id == spans["middle"].span_id

    def test_siblings_share_a_parent(self):
        telemetry.enable()
        with TRACER.span("parent"):
            with TRACER.span("first"):
                pass
            with TRACER.span("second"):
                pass
        spans = _by_name(TRACER.records())
        assert spans["first"].parent_id == spans["parent"].span_id
        assert spans["second"].parent_id == spans["parent"].span_id

    def test_span_records_pid_tid_and_duration(self):
        telemetry.enable()
        with TRACER.span("work", "engine", items=3):
            pass
        (record,) = TRACER.records()
        assert record.pid == os.getpid()
        assert record.tid == threading.get_ident()
        assert record.duration_us >= 0
        assert record.args == {"items": 3}
        assert record.category == "engine"

    def test_exception_annotates_and_still_records(self):
        telemetry.enable()
        with pytest.raises(ValueError):
            with TRACER.span("fails"):
                raise ValueError("boom")
        (record,) = TRACER.records()
        assert record.args["error"] == "ValueError"
        # The stack must be unwound: the next span is a root again.
        with TRACER.span("after"):
            pass
        assert _by_name(TRACER.records())["after"].parent_id is None

    def test_set_attaches_args_on_the_live_span(self):
        telemetry.enable()
        with TRACER.span("job") as span:
            span.set(status="ok", jobs=2)
        (record,) = TRACER.records()
        assert record.args == {"status": "ok", "jobs": 2}

    def test_event_is_an_instant_child_of_the_open_span(self):
        telemetry.enable()
        with TRACER.span("outer"):
            TRACER.event("hit", "engine", key=1)
        spans = _by_name(TRACER.records())
        assert spans["hit"].duration_us == 0
        assert spans["hit"].parent_id == spans["outer"].span_id

    def test_spans_on_different_threads_do_not_nest_across_threads(self):
        telemetry.enable()
        ready = threading.Barrier(2)

        def worker(name):
            ready.wait()
            with TRACER.span(name):
                pass

        threads = [threading.Thread(target=worker, args=(f"t{i}",)) for i in range(2)]
        with TRACER.span("main-span"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        spans = _by_name(TRACER.records())
        # The worker spans opened while "main-span" was live on the main
        # thread, but their stacks are thread-local: they are roots.
        assert spans["t0"].parent_id is None
        assert spans["t1"].parent_id is None
        assert spans["t0"].tid != spans["main-span"].tid


class TestDisabledMode:
    def test_span_returns_the_shared_noop_object(self):
        assert TRACER.span("anything") is _NOOP_SPAN
        assert TRACER.span("other", "cat", x=1) is _NOOP_SPAN

    def test_noop_span_supports_the_full_protocol(self):
        with TRACER.span("ignored") as span:
            span.set(key="value")
        TRACER.event("ignored")
        assert TRACER.records() == []

    def test_disable_stops_recording_and_keeps_what_was_recorded(self):
        telemetry.enable()
        with TRACER.span("kept", "frontend"):
            pass
        telemetry.disable()
        with TRACER.span("dropped", "frontend"):
            pass
        TRACER.event("dropped-event")
        (record,) = telemetry.spans()
        assert record.name == "kept"
        assert record.category == "frontend"
        telemetry.reset()
        assert telemetry.spans() == []


class TestCollection:
    def test_collector_takes_the_spans_instead_of_the_buffer(self):
        telemetry.enable()
        with TRACER.span("before"):
            pass
        with TRACER.collect() as collected:
            with TRACER.span("inside"):
                TRACER.event("tick")
        assert [record.name for record in collected] == ["tick", "inside"]
        assert [record.name for record in TRACER.records()] == ["before"]

    def test_innermost_collector_takes_the_spans(self):
        telemetry.enable()
        with TRACER.collect() as outer:
            with TRACER.span("outer-span"):
                pass
            with TRACER.collect() as inner:
                with TRACER.span("inner-span"):
                    pass
            with TRACER.span("outer-again"):
                pass
        assert [record.name for record in inner] == ["inner-span"]
        assert [record.name for record in outer] == ["outer-span", "outer-again"]
        assert TRACER.records() == []

    def test_threads_collect_only_their_own_spans(self):
        telemetry.enable()
        barrier = threading.Barrier(2, timeout=10)
        collected = {}

        def work(name):
            with TRACER.collect() as spans:
                barrier.wait()  # both collectors are open at once
                with TRACER.span(name):
                    barrier.wait()
            collected[name] = [record.name for record in spans]

        threads = [threading.Thread(target=work, args=(name,)) for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert collected == {"a": ["a"], "b": ["b"]}
        assert TRACER.records() == []

    def test_asyncio_tasks_collect_and_nest_only_their_own_spans(self):
        telemetry.enable()

        async def work(name):
            with TRACER.collect() as spans:
                with TRACER.span(name):
                    await asyncio.sleep(0)  # let the other task interleave
                TRACER.event(f"{name}-done")
            return spans

        async def main():
            return await asyncio.gather(work("a"), work("b"))

        collected = asyncio.run(main())
        assert [[record.name for record in spans] for spans in collected] == [
            ["a", "a-done"],
            ["b", "b-done"],
        ]
        # Both spans are roots, and so are the events after them: the open
        # span of one task is never the parent of another task's span.
        assert all(record.parent_id is None for spans in collected for record in spans)
        assert TRACER.records() == []

    def test_thread_started_inside_a_collector_records_to_the_buffer(self):
        telemetry.enable()

        def work():
            with TRACER.span("foreign"):
                pass

        with TRACER.collect() as collected:
            thread = threading.Thread(target=work)
            thread.start()
            thread.join(10)
        assert not thread.is_alive()
        assert collected == []
        assert [record.name for record in TRACER.records()] == ["foreign"]

    def test_ingest_lands_in_the_enclosing_collector_or_the_buffer(self):
        telemetry.enable()
        with TRACER.collect() as outer:
            with TRACER.collect() as inner:
                with TRACER.span("kept"):
                    pass
            assert TRACER.ingest(inner) == 1
        assert [record.name for record in outer] == ["kept"]
        assert TRACER.records() == []
        assert TRACER.ingest([record.to_dict() for record in outer]) == 1
        assert [record.name for record in TRACER.records()] == ["kept"]

    def test_serialization_round_trip_preserves_identity(self):
        telemetry.enable()
        with TRACER.span("outer", "service"):
            with TRACER.span("inner", "engine"):
                pass
        originals = TRACER.records()
        restored = [SpanRecord.from_dict(record.to_dict()) for record in originals]
        for original, copy in zip(originals, restored):
            assert copy.name == original.name
            assert copy.pid == original.pid
            assert copy.tid == original.tid
            assert copy.span_id == original.span_id
            assert copy.parent_id == original.parent_id
            assert copy.start_us == original.start_us
            assert copy.duration_us == original.duration_us

    def test_ingest_merges_foreign_spans_verbatim(self):
        telemetry.enable()
        foreign = SpanRecord(
            name="worker-span",
            category="service",
            start_us=123,
            duration_us=45,
            pid=99999,
            tid=7,
            span_id=1,
            parent_id=None,
        )
        count = telemetry.ingest_spans([foreign.to_dict()])
        assert count == 1
        (record,) = TRACER.records()
        assert record.pid == 99999  # the worker's pid survives the merge
        assert record.tid == 7
        assert record.name == "worker-span"

    def test_clear_drops_records_and_restamps_pid(self):
        telemetry.enable()
        with TRACER.span("gone"):
            pass
        TRACER.clear()
        assert TRACER.records() == []
        assert TRACER.pid == os.getpid()
