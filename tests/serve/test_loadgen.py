"""Load generator: mix parsing, arrival process, report math, tiny e2e run."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import ServeConfig, TransposeServer
from repro.serve.loadgen import (
    LoadtestReport,
    ShapeMix,
    format_report,
    measure_ceiling_rps,
    measure_coalesced_rps,
    measure_naive_rps,
    parse_shape_mix,
    poisson_arrivals,
    run_loadtest,
)


class TestShapeMix:
    def test_parse_normalizes_weights(self):
        mix = parse_shape_mix("128x192:3,64x96:1")
        assert mix == [ShapeMix(128, 192, 0.75), ShapeMix(64, 96, 0.25)]

    def test_parse_default_weight(self):
        mix = parse_shape_mix("8x6")
        assert mix == [ShapeMix(8, 6, 1.0)]

    def test_parse_skips_empty_entries(self):
        assert len(parse_shape_mix("8x6, ,4x2")) == 2

    @pytest.mark.parametrize("spec", ["", "8y6", "8x6:oops", "x6", ","])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            parse_shape_mix(spec)

    def test_parse_rejects_zero_weight_sum(self):
        with pytest.raises(ValueError, match="sum"):
            parse_shape_mix("8x6:0")


class TestPoissonArrivals:
    def test_seeded_and_bounded(self):
        rng = np.random.default_rng(42)
        a = poisson_arrivals(100.0, 2.0, rng)
        b = poisson_arrivals(100.0, 2.0, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)
        assert a.min() > 0
        assert a.max() < 2.0
        assert np.all(np.diff(a) >= 0)
        # Poisson(100/s over 2s) -> ~200 arrivals, loosely.
        assert 120 < len(a) < 300

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0, 1.0, np.random.default_rng(0))


class TestReportMath:
    def _report(self, **kw):
        base = dict(
            url="inproc", duration_s=1.0, offered_rate=100.0,
            shapes=[ShapeMix(8, 6, 1.0)], dtype="float64",
        )
        base.update(kw)
        return LoadtestReport(**base)

    def test_efficiency_and_speedup(self):
        r = self._report(
            achieved_rps=60.0, ceiling_rps=100.0,
            coalesced_rps=90.0, naive_rps=30.0,
        )
        assert r.efficiency == pytest.approx(0.6)
        assert r.batched_speedup == pytest.approx(3.0)

    def test_zero_references_do_not_divide_by_zero(self):
        r = self._report()
        assert r.efficiency == 0.0
        assert r.batched_speedup == 0.0

    def test_as_dict_round_trips_fields(self):
        r = self._report(tiles=4, completed=10, achieved_rps=40.0)
        d = r.as_dict()
        assert d["tiles"] == 4
        assert d["completed"] == 10
        assert d["achieved_rps"] == 40.0
        assert d["shapes"] == ["8x6:1.000"]
        assert "efficiency" in d and "batched_speedup" in d

    def test_format_report_mentions_key_lines(self):
        r = self._report(
            tiles=2, completed=5, achieved_rps=10.0,
            ceiling_rps=20.0, coalesced_rps=15.0, naive_rps=5.0,
        )
        text = format_report(r)
        assert "matrices/s" in text
        assert "tiles/request=2" in text
        assert "efficiency 50.0%" in text
        assert "speedup 3.00x" in text

    def test_format_report_without_reference(self):
        text = format_report(self._report(completed=5))
        assert "ceiling" not in text
        assert "completed 5 ok requests" in text


class TestReferenceMeasurements:
    def test_reference_rates_sane_and_ordered(self):
        # Quick (50ms each) sanity: all positive, ceiling >= coalesced,
        # and both comfortably above the plan-per-request naive path.
        kw = dict(seconds=0.05)
        ceiling = measure_ceiling_rps(32, 48, "float64", batch=16, **kw)
        coalesced = measure_coalesced_rps(32, 48, "float64", batch=16, **kw)
        naive = measure_naive_rps(32, 48, "float64", **kw)
        assert ceiling > 0 and coalesced > 0 and naive > 0
        assert coalesced <= ceiling * 1.25  # noise allowance
        assert coalesced > naive


class TestRunLoadtest:
    def test_tiny_run_against_live_server(self):
        srv = TransposeServer(
            ServeConfig(port=0, workers=1, queue_size=256, max_wait_ms=0.5)
        ).start()
        try:
            host, port = srv.address
            report = run_loadtest(
                f"{host}:{port}",
                rate=200.0,
                duration_s=0.4,
                shapes=[ShapeMix(16, 12, 1.0)],
                dtype="float64",
                tiles=2,
                connections=4,
                seed=1,
                reference=False,
            )
        finally:
            srv.shutdown(timeout=10)
        assert report.completed > 0
        assert report.errors == 0
        assert report.verify_failures == 0
        # verify_every defaults to 1: every 200 is byte-checked, not just
        # the first per shape — post-warm-up corruption must be caught.
        assert report.verified == report.completed
        assert report.achieved_rps > 0
        assert report.tiles == 2
        assert report.latencies_ms["p99"] >= report.latencies_ms["p50"] > 0

    def test_default_rate_is_the_ceiling(self, monkeypatch):
        # A fixed offer caps efficiency at rate / ceiling, so a faster
        # kernel would read as a less efficient server; the default offer
        # is the ceiling, measured once before the run and reported.
        from repro.serve import loadgen

        seen = []

        def ceiling(m, n, dtype="float64", *, batch=32, seconds=0.5):
            seen.append((m, n, dtype, batch))
            return 160.0

        monkeypatch.setattr(loadgen, "measure_ceiling_rps", ceiling)
        srv = TransposeServer(
            ServeConfig(port=0, workers=1, queue_size=256, max_wait_ms=0.5)
        ).start()
        try:
            host, port = srv.address
            report = run_loadtest(
                f"{host}:{port}",
                duration_s=0.3,
                shapes=[ShapeMix(16, 12, 1.0)],
                dtype="float64",
                tiles=1,
                connections=2,
                batch=8,
                reference=False,
            )
        finally:
            srv.shutdown(timeout=10)
        assert seen == [(16, 12, "float64", 8)]
        assert report.offered_rate == 160.0
        assert report.ceiling_rps == 160.0
        assert report.completed > 0 and report.errors == 0

    def test_verify_sampling_every_nth(self):
        srv = TransposeServer(
            ServeConfig(port=0, workers=1, queue_size=256, max_wait_ms=0.5)
        ).start()
        try:
            host, port = srv.address
            report = run_loadtest(
                f"{host}:{port}",
                rate=200.0,
                duration_s=0.3,
                shapes=[ShapeMix(16, 12, 1.0)],
                dtype="float64",
                tiles=1,
                connections=2,
                seed=2,
                reference=False,
                verify_every=3,
            )
        finally:
            srv.shutdown(timeout=10)
        assert report.completed > 0
        assert report.verify_failures == 0
        # Every 3rd response per shape sampled (the first always included).
        assert 0 < report.verified <= report.completed // 3 + 1

    def test_tiles_validation(self):
        with pytest.raises(ValueError, match="tiles"):
            run_loadtest("127.0.0.1:1", tiles=0, reference=False)


class TestPerShapeAndWorst:
    def test_per_shape_percentiles_and_worst_request(self):
        srv = TransposeServer(
            ServeConfig(port=0, workers=1, queue_size=256, max_wait_ms=0.5)
        ).start()
        try:
            host, port = srv.address
            report = run_loadtest(
                f"{host}:{port}",
                rate=300.0,
                duration_s=0.4,
                shapes=[ShapeMix(16, 12, 0.5), ShapeMix(8, 24, 0.5)],
                dtype="float64",
                tiles=1,
                connections=4,
                seed=7,
                reference=False,
            )
        finally:
            srv.shutdown(timeout=10)
        assert report.completed > 0
        # both shapes served -> both get their own percentile block
        assert set(report.per_shape_latencies_ms) == {"16x12", "8x24"}
        for pct in report.per_shape_latencies_ms.values():
            assert pct["p99"] >= pct["p50"] > 0
        # the worst request is named by its deterministic trace id
        worst = report.worst_request
        assert worst["trace_id"].startswith("lt-7-")
        assert worst["shape"] in ("16x12", "8x24")
        assert worst["latency_ms"] == pytest.approx(
            report.latencies_ms["max"], rel=1e-6
        )
        text = format_report(report)
        assert "shape" in text and "worst" in text
        assert worst["trace_id"] in text
        d = report.as_dict()
        assert d["worst_request"] == worst
        assert set(d["per_shape_latencies_ms"]) == {"16x12", "8x24"}

    def test_interim_reporting_emits_progress_lines(self):
        srv = TransposeServer(
            ServeConfig(port=0, workers=1, queue_size=256, max_wait_ms=0.5)
        ).start()
        lines = []
        try:
            host, port = srv.address
            run_loadtest(
                f"{host}:{port}",
                rate=150.0,
                duration_s=0.6,
                shapes=[ShapeMix(8, 6, 1.0)],
                dtype="float64",
                tiles=1,
                connections=2,
                seed=3,
                reference=False,
                interim_every_s=0.1,
                interim_sink=lines.append,
            )
        finally:
            srv.shutdown(timeout=10)
        assert lines, "no interim progress lines were emitted"
        assert all("completed=" in line and "p99=" in line for line in lines)

    def test_interim_disabled_by_default(self):
        srv = TransposeServer(
            ServeConfig(port=0, workers=1, queue_size=64, max_wait_ms=0.5)
        ).start()
        lines = []
        try:
            host, port = srv.address
            run_loadtest(
                f"{host}:{port}", rate=100.0, duration_s=0.2,
                shapes=[ShapeMix(8, 6, 1.0)], dtype="float64", tiles=1,
                connections=2, seed=4, reference=False,
                interim_sink=lines.append,
            )
        finally:
            srv.shutdown(timeout=10)
        assert lines == []  # sink unused while interim_every_s == 0
