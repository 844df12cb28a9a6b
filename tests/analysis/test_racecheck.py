"""Static race proof and the shadow-memory sanitizer."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.racecheck import (
    Rect,
    Sanitizer,
    SanitizerError,
    banded_footprints,
    check_banded_schedule,
    check_partition,
    check_schedule,
    schedule_footprints,
)
from repro.core.plan import TransposePlan
from repro.parallel.cpu import ParallelTranspose


class TestRect:
    def test_area_and_intersection(self):
        a = Rect(0, 4, 0, 6)
        b = Rect(4, 8, 0, 6)
        assert a.area == 24
        assert not a.intersects(b), "half-open rectangles sharing an edge are disjoint"
        assert a.intersects(Rect(3, 5, 2, 3))

    def test_containment(self):
        outer = Rect(0, 10, 0, 10)
        assert outer.contains(Rect(2, 5, 3, 7))
        assert not Rect(2, 5, 3, 7).contains(outer)


class TestStaticProof:
    @pytest.mark.parametrize("threads", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize(
        "m,n", [(1, 1), (4, 6), (12, 18), (13, 17), (64, 48)]
    )
    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    def test_schedules_are_race_free(self, m, n, threads, algorithm):
        report = check_schedule(m, n, threads, algorithm)
        assert report.ok, report.failures

    def test_pass_structure_matches_transposer(self):
        # Shared-factor shape: rotation + shuffle + shuffle for c2r.
        names = [p.name for p in schedule_footprints(12, 18, 4, "c2r")]
        assert names == ["pre_rotate", "row_shuffle", "column_shuffle"]
        names = [p.name for p in schedule_footprints(12, 18, 4, "r2c")]
        assert names == ["inverse_column_shuffle", "row_shuffle_r2c", "post_rotate"]
        # Coprime shape: no rotation pass.
        names = [p.name for p in schedule_footprints(5, 7, 4, "c2r")]
        assert names == ["row_shuffle", "column_shuffle"]

    def test_detects_a_constructed_overlap(self):
        # The proof must reject overlapping rectangles, not rubber-stamp them.
        a = Rect(0, 3, 0, 6)
        b = Rect(2, 5, 0, 6)
        assert a.intersects(b)

    @given(
        total=st.integers(0, 5000),
        parts=st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_proof_accepts_balanced_chunks(self, total, parts):
        ok, detail = check_partition(total, parts)
        assert ok, detail


class TestBandedScheduleProof:
    @pytest.mark.parametrize("bands", [1, 2, 3, 7])
    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize(
        "m,n", [(1, 1), (4, 6), (12, 18), (13, 17), (64, 48)]
    )
    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    def test_banded_schedules_are_race_free(self, m, n, bands, threads, algorithm):
        report = check_banded_schedule(m, n, bands, threads, algorithm)
        assert report.ok, report.failures
        assert report.as_dict()["n_bands"] == bands

    def test_one_band_degenerates_to_thread_schedule(self):
        th = schedule_footprints(12, 18, 4, "r2c")
        banded = banded_footprints(12, 18, 1, 4, "r2c")
        for a, b in zip(th, banded):
            assert a.name == b.name
            assert [c.writes for c in a.chunks] == [c.writes for c in b.chunks]

    def test_band_labels_carry_provenance(self):
        passes = banded_footprints(12, 18, 2, 2, "c2r")
        labels = [c.label for c in passes[1].chunks]
        assert all(label.startswith("band") for label in labels)
        assert any(label.startswith("band1/") for label in labels)

    def test_banded_proof_rejects_overlapping_bands(self):
        # Hand-build a pass whose second band re-covers the first band's
        # rows: the cross-band disjointness check must fail.
        from repro.analysis.racecheck import (
            ChunkFootprint,
            PassFootprints,
            _prove_rects,
        )

        m, n = 8, 6
        overlapping = PassFootprints(
            name="row_shuffle",
            total=m,
            chunks=(
                ChunkFootprint("band0/rows[0:4]", Rect(0, 4, 0, n), Rect(0, 4, 0, n)),
                ChunkFootprint("band1/rows[2:8]", Rect(2, 8, 0, n), Rect(2, 8, 0, n)),
            ),
        )
        failures = _prove_rects(overlapping, m, n)
        assert any("overlap" in f for f in failures)


class TestSanitizerViolations:
    def _san(self):
        return Sanitizer(enabled=True)

    def test_double_write_raises_with_provenance(self):
        san = self._san()
        with pytest.raises(SanitizerError) as exc:
            with san.pass_scope("p", 8):
                san.record(writes=np.array([0, 1]), where="chunk-a")
                san.record(writes=np.array([1, 2]), where="chunk-b")
        assert exc.value.kind == "double write"
        assert exc.value.pass_name == "p"
        assert exc.value.where == "chunk-b"
        assert 1 in exc.value.indices

    def test_read_after_clobber_raises(self):
        san = self._san()
        with pytest.raises(SanitizerError) as exc:
            with san.pass_scope("p", 8):
                san.record(writes=np.array([3]))
                san.record(reads=np.array([3]), where="late gather")
        assert exc.value.kind == "read-after-clobber"

    def test_read_before_write_is_legal_gather_order(self):
        san = self._san()
        with san.pass_scope("p", 4):
            san.record(reads=np.arange(4), writes=np.arange(4))
        assert san.passes_checked == 1

    def test_missed_write_raises_for_full_coverage_pass(self):
        san = self._san()
        with pytest.raises(SanitizerError) as exc:
            with san.pass_scope("p", 4):
                san.record(writes=np.array([0, 1, 2]))
        assert exc.value.kind == "missed write"
        assert 3 in exc.value.indices

    def test_partial_coverage_pass_allows_skips(self):
        san = self._san()
        with san.pass_scope("rotate", 4, full_coverage=False):
            san.record(writes=np.array([0, 1]))
        assert san.passes_checked == 1

    def test_out_of_bounds_raises(self):
        san = self._san()
        with pytest.raises(SanitizerError) as exc:
            with san.pass_scope("p", 4, full_coverage=False):
                san.record(writes=np.array([4]))
        assert exc.value.kind == "out-of-bounds write"

    def test_nested_pass_raises_instead_of_deadlocking(self):
        san = self._san()
        with pytest.raises(SanitizerError) as exc:
            with san.pass_scope("outer", 4, full_coverage=False):
                with san.pass_scope("inner", 4):
                    pass
        assert exc.value.kind == "nested pass"

    def test_record_outside_scope_is_inert(self):
        san = self._san()
        san.record(writes=np.array([0]))  # no scope: must not raise

    def test_failed_pass_releases_the_scope(self):
        san = self._san()
        with pytest.raises(SanitizerError):
            with san.pass_scope("p", 2):
                san.record(writes=np.array([0, 0]))
        # A clean follow-up pass must work: the shadow was torn down.
        with san.pass_scope("p2", 2):
            san.record(writes=np.array([0, 1]))


class TestExecutionHooks:
    """The real executors run clean under the sanitizer, and a corrupted
    plan is caught — the end-to-end contract of the tentpole."""

    @pytest.fixture(autouse=True)
    def _enabled(self):
        from repro.analysis import racecheck

        was = racecheck.sanitizer.enabled
        racecheck.enable()
        yield
        racecheck.sanitizer.enabled = was

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    def test_plan_execute_runs_clean(self, order, algorithm):
        m, n = 12, 18
        plan = TransposePlan(m, n, order, algorithm)
        buf = np.arange(m * n, dtype=np.int64)
        expected = buf.reshape((m, n), order=order).T.ravel(order=order).copy()
        plan.execute(buf)
        assert np.array_equal(buf, expected)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_parallel_transpose_runs_clean(self, threads):
        with ParallelTranspose(threads) as pt:
            for m, n in [(12, 18), (7, 5), (16, 16), (1, 9)]:
                buf = np.arange(m * n, dtype=np.int64)
                expected = buf.reshape(m, n).T.ravel().copy()
                pt.transpose_inplace(buf, m, n)
                assert np.array_equal(buf, expected)

    def test_corrupted_plan_payload_is_caught(self):
        # Gather bijectivity is proven statically by the verifier; what the
        # sanitizer owns at runtime is the write discipline.  Corrupt the
        # rotation schedule so one column group is processed twice: the
        # second visit reads elements its own pass already overwrote.
        m, n = 12, 18  # gcd 6 > 1, so the plan starts with rotate_groups
        plan = TransposePlan(m, n, "C", "c2r")
        assert plan.passes[0].kind == "rotate_groups"
        run_chunk = plan.run_chunk

        def revisiting(B, i, lo, hi, *args, **kwargs):
            run_chunk(B, i, lo, hi, *args, **kwargs)
            if plan.passes[i].kind == "rotate_groups":
                # groups [lo, lo + 2) once more: group 1 has a nonzero shift
                run_chunk(B, i, lo, lo + 2, *args, **kwargs)

        plan.run_chunk = revisiting
        with pytest.raises(SanitizerError) as exc:
            plan.execute(np.arange(m * n, dtype=np.int64))
        assert exc.value.kind in ("read-after-clobber", "double write")

    def test_concurrent_plan_executions_serialize_not_crash(self):
        m, n = 24, 36
        plan = TransposePlan(m, n)
        base = np.arange(m * n, dtype=np.float64)
        expected = base.reshape(m, n).T.ravel().copy()
        errors: list[Exception] = []

        def worker():
            try:
                for _ in range(3):
                    buf = base.copy()
                    plan.execute(buf)
                    np.testing.assert_array_equal(buf, expected)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_stats_accumulate(self):
        from repro.analysis.racecheck import sanitizer

        before = sanitizer.stats()["passes_checked"]
        TransposePlan(6, 9).execute(np.arange(54, dtype=np.float64))
        after = sanitizer.stats()["passes_checked"]
        assert after > before
