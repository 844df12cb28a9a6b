"""Request-tracing primitives: TraceContext activation, trace_id stamping,
per-record pid, and the disabled-path overhead contract."""

from __future__ import annotations

import os
import threading
from time import perf_counter

from repro.trace.spans import TraceContext, Tracer, new_trace_id


class TestTraceContext:
    def test_new_trace_id_shape_and_uniqueness(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 16 for i in ids)
        assert all(int(i, 16) >= 0 for i in ids)


class TestActivation:
    def test_spans_and_events_stamped_with_trace_id(self):
        tr = Tracer(enabled=True)
        with tr.activate(TraceContext("req-1")):
            with tr.span("serve.request"):
                tr.event("cache.hit")
        recs = tr.snapshot()
        assert {r.trace_id for r in recs} == {"req-1"}

    def test_root_span_parents_to_context_parent_id(self):
        tr = Tracer(enabled=True)
        with tr.activate(TraceContext("req-1", parent_id=777)):
            with tr.span("serve.group"):
                with tr.span("serve.execute.batch"):
                    pass
        group = next(r for r in tr.snapshot() if r.name == "serve.group")
        inner = next(
            r for r in tr.snapshot() if r.name == "serve.execute.batch"
        )
        assert group.parent_id == 777
        assert inner.parent_id == group.span_id  # stack wins over ctx

    def test_contexts_nest_and_restore(self):
        tr = Tracer(enabled=True)
        with tr.activate(TraceContext("outer")):
            assert tr.current_trace_id() == "outer"
            with tr.activate(TraceContext("inner")):
                assert tr.current_trace_id() == "inner"
            assert tr.current_trace_id() == "outer"
        assert tr.current_trace_id() == ""
        assert tr.current_context() is None

    def test_context_is_thread_local(self):
        tr = Tracer(enabled=True)
        seen = {}

        def worker():
            seen["other"] = tr.current_trace_id()

        with tr.activate(TraceContext("mine")):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["other"] == ""

    def test_activate_none_deactivates_for_scope(self):
        tr = Tracer(enabled=True)
        with tr.activate(TraceContext("req")):
            with tr.activate(None):
                assert tr.current_trace_id() == ""
            assert tr.current_trace_id() == "req"


class TestRecordCarriesProcess:
    def test_records_stamp_current_pid(self):
        tr = Tracer(enabled=True)
        with tr.span("op.x"):
            pass
        assert tr.snapshot()[0].pid == os.getpid()

class TestDisabledOverhead:
    def test_disabled_span_path_stays_cheap(self):
        """The disabled path must be within an order of magnitude of a bare
        loop — one attribute read and one branch, no allocation.  The bound
        is deliberately generous (20x) to stay CI-proof; the regression it
        guards against (building attr dicts or _LiveSpan objects while
        disabled) costs 100x+."""
        tr = Tracer(enabled=False)
        n = 20_000

        def bare():
            t0 = perf_counter()
            for _ in range(n):
                pass
            return perf_counter() - t0

        def guarded():
            t0 = perf_counter()
            for _ in range(n):
                if tr.enabled:
                    with tr.span("x", a=1, b=2):
                        pass
            return perf_counter() - t0

        base = min(bare() for _ in range(5))
        cost = min(guarded() for _ in range(5))
        assert cost < max(base * 20, 5e-3)
        assert len(tr) == 0

    def test_activate_while_disabled_records_nothing(self):
        tr = Tracer(enabled=False)
        with tr.activate(TraceContext("req")):
            with tr.span("serve.request"):
                tr.event("cache.hit")
        assert len(tr) == 0
        # context still visible for event-log stamping even when spans off
        with tr.activate(TraceContext("req-2")):
            assert tr.current_trace_id() == "req-2"
