"""Unit tests: disabled telemetry must be (nearly) free.

The hard <2% end-to-end budget is owned by ``benchmarks/bench_telemetry.py``;
these tests pin down the *mechanisms* that budget relies on — no allocation,
no recording, and a generous absolute bound that catches gross regressions
(an accidental lock acquisition or record append on the disabled path)
without being flaky on slow CI machines.
"""

import time

from repro import telemetry
from repro.telemetry import TRACER
from repro.telemetry.trace import _NOOP_SPAN


class TestDisabledIsFree:
    def test_disabled_span_is_the_shared_singleton(self):
        # No allocation per call: every disabled span() is the same object.
        spans = {id(TRACER.span(f"name-{i}")) for i in range(100)}
        assert spans == {id(_NOOP_SPAN)}

    def test_disabled_paths_record_nothing(self):
        with TRACER.span("a", "engine", key=1):
            TRACER.event("b")
        assert TRACER.records() == []

    def test_disabled_span_call_is_cheap(self):
        # 100k no-op spans in well under a second even on a loaded machine;
        # the real budget (<2% on an end-to-end check) lives in
        # benchmarks/bench_telemetry.py.
        started = time.perf_counter()
        for _ in range(100_000):
            with TRACER.span("hot", "presburger"):
                pass
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"disabled span path took {elapsed:.3f} s for 100k calls"

    def test_disabled_guard_is_a_single_attribute(self):
        # Instrumentation sites bind the singletons at import time and guard
        # on `.enabled`; the flag must be a plain attribute, not a property
        # doing work.
        assert "enabled" not in type(TRACER).__dict__ or not isinstance(
            type(TRACER).__dict__.get("enabled"), property
        )
        assert TRACER.enabled is False

    def test_enable_disable_round_trip_keeps_data(self):
        telemetry.enable()
        with TRACER.span("kept"):
            pass
        telemetry.disable()
        assert [record.name for record in telemetry.spans()] == ["kept"]
        # Disabled again: nothing further records.
        with TRACER.span("dropped"):
            pass
        assert len(telemetry.spans()) == 1
