"""Bandwidth profiler: span/bytes aggregation, memcpy normalization, the
profile_shape driver, and the traced-vs-untraced differential (tracing must
observe, not perturb)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.trace import spans
from repro.trace.profile import (
    aggregate_passes,
    format_profile_table,
    measure_memcpy_gbps,
    profile_shape,
    profile_shapes,
)
from repro.trace.spans import SpanRecord, Tracer


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    was_enabled = spans.tracer.enabled
    spans.tracer.reset()
    yield
    spans.tracer.reset()
    spans.tracer.enabled = was_enabled


def _rec(name: str, dur: float, nbytes: int | None, sid: int) -> SpanRecord:
    attrs = {} if nbytes is None else {"bytes": nbytes}
    return SpanRecord(sid, 0, name, 1.0, 1.0 + dur, 1, "MainThread", attrs)


class TestAggregatePasses:
    def test_joins_durations_with_bytes(self):
        recs = [
            _rec("pass.a", 0.001, 1_000_000, 1),
            _rec("pass.a", 0.003, 1_000_000, 2),
            _rec("pass.b", 0.002, 2_000_000, 3),
        ]
        out = aggregate_passes(recs)
        assert [p.name for p in out] == ["pass.a", "pass.b"]
        a = out[0]
        assert a.calls == 2
        assert a.seconds == pytest.approx(0.004)
        assert a.bytes == 2_000_000
        assert a.gbps == pytest.approx(2_000_000 / 0.004 / 1e9)

    def test_memcpy_fraction_normalizes(self):
        recs = [_rec("pass.a", 0.001, 10_000_000, 1)]
        (p,) = aggregate_passes(recs, memcpy_gbps=20.0)
        assert p.memcpy_frac == pytest.approx(p.gbps / 20.0)

    def test_skips_events_unannotated_spans_and_other_prefixes(self):
        ev = SpanRecord(1, 0, "pass.a", 1.0, 1.0, 1, "t", {"bytes": 8})
        recs = [
            ev,  # zero-width event
            _rec("pass.b", 0.001, None, 2),  # no bytes attr
            _rec("op.c", 0.001, 64, 3),  # wrong prefix
            _rec("pass.d", 0.001, 64, 4),
        ]
        out = aggregate_passes(recs)
        assert [p.name for p in out] == ["pass.d"]

    def test_prefix_filter_is_configurable(self):
        recs = [
            _rec("worker.chunk", 0.001, 64, 1),
            _rec("pass.a", 0.001, 64, 2),
        ]
        out = aggregate_passes(recs, prefixes=("worker.",))
        assert [p.name for p in out] == ["worker.chunk"]


class TestMemcpyCeiling:
    def test_measures_a_positive_bandwidth(self):
        gbps = measure_memcpy_gbps(1 << 20, repeats=2)
        assert gbps > 0.0


class TestProfileShape:
    def test_sequential_profile_reports_each_pass_with_positive_gbps(self):
        prof = profile_shape(64, 96, repeats=2)
        assert prof.m == 64 and prof.n == 96 and prof.threads == 1
        assert prof.memcpy_gbps > 0
        names = [p.name for p in prof.passes]
        assert names, "expected at least one pass profile"
        assert all(n.startswith("pass.") for n in names)
        for p in prof.passes:
            assert p.calls == 2
            assert p.gbps > 0
            assert p.memcpy_frac > 0

    def test_parallel_profile_traces_worker_passes(self):
        prof = profile_shape(64, 96, repeats=1, threads=2)
        assert prof.threads == 2
        assert any(p.name.startswith("pass.") for p in prof.passes)

    def test_profiling_restores_tracer_state_and_records(self):
        spans.enable()
        with spans.tracer.span("op.pre_existing"):
            pass
        profile_shape(16, 24, repeats=1)
        assert spans.tracer.enabled is True
        names = [r.name for r in spans.tracer.snapshot()]
        assert names == ["op.pre_existing"]
        spans.disable()
        profile_shape(16, 24, repeats=1)
        assert spans.tracer.enabled is False

    def test_transpose_remains_correct_under_profiling(self):
        """Differential: tracing observes the passes, it must not change
        the permutation the passes compute."""
        m, n = 48, 36
        expected = np.arange(m * n, dtype=np.float64).reshape(m, n).T.ravel()

        from repro.core.transpose import transpose_inplace

        spans.enable()
        traced_buf = np.arange(m * n, dtype=np.float64)
        transpose_inplace(traced_buf, m, n)
        spans.disable()
        untraced_buf = np.arange(m * n, dtype=np.float64)
        transpose_inplace(untraced_buf, m, n)

        np.testing.assert_array_equal(traced_buf, expected)
        np.testing.assert_array_equal(untraced_buf, expected)

    def test_parallel_transpose_identical_traced_and_untraced(self):
        from repro.parallel import parallel_transpose_inplace

        m, n = 40, 56
        expected = np.arange(m * n, dtype=np.float64).reshape(m, n).T.ravel()
        spans.enable()
        traced_buf = parallel_transpose_inplace(
            np.arange(m * n, dtype=np.float64), m, n, n_threads=3
        )
        spans.disable()
        untraced_buf = parallel_transpose_inplace(
            np.arange(m * n, dtype=np.float64), m, n, n_threads=3
        )
        np.testing.assert_array_equal(traced_buf, expected)
        np.testing.assert_array_equal(untraced_buf, expected)


class TestFormatting:
    def test_table_lists_memcpy_ceiling_and_passes(self):
        profs = profile_shapes([(32, 48)], repeats=1)
        text = format_profile_table(profs)
        # The ceiling row names the backend that actually executed.
        assert "(memcpy ceiling, numpy)" in text
        assert "32x48" in text
        assert "GB/s" in text
        assert any("pass." in ln for ln in text.splitlines())

    def test_profiles_serialize_to_dicts(self):
        (prof,) = profile_shapes([(16, 24)], repeats=1)
        d = prof.as_dict()
        assert d["m"] == 16 and d["n"] == 24
        assert all("gbps" in p for p in d["passes"])


class TestAlignmentReport:
    def test_profile_names_the_buffer_alignment(self):
        (prof,) = profile_shapes([(32, 48)], repeats=2)
        assert 0 <= prof.addr_mod_64 < 64
        assert prof.as_dict()["addr_mod_64"] == prof.addr_mod_64
        text = format_profile_table([prof])
        assert "addr%64" in text.splitlines()[0]
        assert text.splitlines()[1].split()[-1] == str(prof.addr_mod_64)
