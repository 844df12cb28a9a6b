"""BandedExecutor: byte-exact banded transposes across shapes, orders,
algorithms and backends, schedule-proof gating, the load/permute/store
pipeline under failure and skewed timing, and its trace spans."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import native
from repro.runtime import plan_cache
from repro.stream import (
    BandedExecutor,
    BandedScheduleError,
    transpose_file_inplace,
)
from repro.stream import executor as executor_mod
from repro.stream.window import ResidentWindow

#: a window small enough to force many bands on every test shape
TINY_WINDOW = 64 * 1024


def _write(tmp_path, A: np.ndarray, order: str = "C"):
    path = tmp_path / "m.bin"
    A.ravel(order=order).tofile(path)
    return path


def _read(path, n, m, dtype, order):
    flat = np.fromfile(path, dtype=dtype)
    return flat.reshape(n, m) if order == "C" else flat.reshape(n, m, order="F")


class TestBandedTranspose:
    @pytest.mark.parametrize("m,n", [
        (8, 8), (12, 18), (18, 12), (31, 17), (40, 25), (96, 64), (17, 1),
    ])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_shapes_and_orders(self, tmp_path, m, n, order):
        A = np.arange(m * n, dtype=np.int64).reshape(m, n)
        path = _write(tmp_path, A, order)
        stats = transpose_file_inplace(
            path, m, n, np.int64, order, window_bytes=TINY_WINDOW
        )
        np.testing.assert_array_equal(
            _read(path, n, m, np.int64, order), A.T
        )
        assert stats["m"] == m and stats["n"] == n
        assert stats["bands"] >= 1 and stats["passes"] >= 2

    @pytest.mark.parametrize("algorithm", ["auto", "c2r", "r2c"])
    def test_algorithms(self, tmp_path, algorithm):
        A = np.arange(48 * 36, dtype=np.float64).reshape(48, 36)
        path = _write(tmp_path, A)
        stats = transpose_file_inplace(
            path, 48, 36, np.float64,
            algorithm=algorithm, window_bytes=TINY_WINDOW,
        )
        np.testing.assert_array_equal(_read(path, 36, 48, np.float64, "C"), A.T)
        if algorithm != "auto":
            assert stats["algorithm"] == algorithm

    def test_many_bands_forced(self, tmp_path):
        # 4 KiB window over a 72 KiB file: every pass must band.
        m, n = 96, 96
        A = np.arange(m * n, dtype=np.int64).reshape(m, n)
        path = _write(tmp_path, A)
        stats = transpose_file_inplace(
            path, m, n, np.int64, window_bytes=4096
        )
        assert stats["bands"] > stats["passes"]
        np.testing.assert_array_equal(_read(path, n, m, np.int64, "C"), A.T)

    def test_threaded_chunks_within_bands(self, tmp_path):
        m, n = 60, 84
        A = np.arange(m * n, dtype=np.float64).reshape(m, n)
        path = _write(tmp_path, A)
        with BandedExecutor(3, window_bytes=TINY_WINDOW) as ex:
            stats = ex.transpose_file(path, m, n, np.float64)
        assert stats["threads"] == 3
        np.testing.assert_array_equal(_read(path, n, m, np.float64, "C"), A.T)

    def test_executor_reuse_across_files(self, tmp_path):
        with BandedExecutor(2, window_bytes=TINY_WINDOW) as ex:
            for i, (m, n) in enumerate([(12, 18), (25, 40)]):
                A = np.arange(m * n, dtype=np.int32).reshape(m, n)
                path = tmp_path / f"f{i}.bin"
                A.tofile(path)
                ex.transpose_file(path, m, n, np.int32)
                np.testing.assert_array_equal(
                    _read(path, n, m, np.int32, "C"), A.T
                )

    def test_round_trip_restores_file(self, tmp_path):
        A = np.random.default_rng(7).standard_normal((37, 53))
        path = _write(tmp_path, A)
        transpose_file_inplace(path, 37, 53, np.float64, window_bytes=4096)
        transpose_file_inplace(path, 53, 37, np.float64, window_bytes=4096)
        np.testing.assert_array_equal(np.fromfile(path, np.float64), A.ravel())

    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    def test_native_sized_bands(self, tmp_path, algorithm):
        """Shapes above the native min-elems floor: the banded path runs
        the compiled row kernels against a shifted band base (regression:
        the r2c kernel was once built for the transposed shape, writing
        out of bounds)."""
        m, n = 300, 500  # 150k elements > REPRO_NATIVE_MIN_ELEMS default
        A = np.arange(m * n, dtype=np.float32).reshape(m, n)
        path = _write(tmp_path, A)
        stats = transpose_file_inplace(
            path, m, n, np.float32,
            algorithm=algorithm, window_bytes=TINY_WINDOW,
        )
        assert stats["bands"] > stats["passes"]
        np.testing.assert_array_equal(
            _read(path, n, m, np.float32, "C"), A.T
        )

    @pytest.mark.skipif(not native.available(), reason="no C toolchain")
    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    def test_stream_kernel_lives_under_the_plan_cache(
        self, tmp_path, monkeypatch, algorithm
    ):
        """The banded kernel comes from the shape's cached plan: its .so is
        charged to the cache and unlinked when the cache lets go of it."""
        art_dir = tmp_path / "native"
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(art_dir))
        plan_cache.clear()
        m, n = 300, 500
        A = np.arange(m * n, dtype=np.float32).reshape(m, n)
        path = _write(tmp_path, A)
        transpose_file_inplace(
            path, m, n, np.float32, algorithm=algorithm,
            window_bytes=TINY_WINDOW,
        )
        np.testing.assert_array_equal(_read(path, n, m, np.float32, "C"), A.T)
        artifacts = list(art_dir.glob("*.so"))
        assert len(artifacts) == 1
        plan = plan_cache.get_single_plan(m, n, "C", algorithm, np.float32)
        assert plan.scratch_bytes == 0  # plans hold no index state
        assert plan_cache.stats()["current_bytes"] == artifacts[0].stat().st_size
        plan_cache.clear()
        assert not list(art_dir.glob("*.so"))


class TestValidationAndFailure:
    def test_bad_order_rejected(self, tmp_path):
        path = _write(tmp_path, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            transpose_file_inplace(path, 2, 3, np.float64, "Z")

    def test_bad_algorithm_rejected(self, tmp_path):
        path = _write(tmp_path, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            transpose_file_inplace(path, 2, 3, np.float64, algorithm="qr")

    def test_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        np.zeros(7).tofile(path)
        with pytest.raises(ValueError, match="bytes"):
            transpose_file_inplace(path, 3, 4, np.float64)

    def test_unproven_schedule_refuses_to_run(self, tmp_path, monkeypatch):
        """If the banded race proof fails, the executor must not touch the
        file."""
        from repro.analysis import racecheck

        class FailingReport:
            ok = False
            failures = [("pass", "band0", "band1")]

        m, n = 23, 29  # fresh shape: not in the module-level proof memo
        monkeypatch.setattr(
            racecheck, "check_banded_schedule",
            lambda *a, **k: FailingReport(),
        )
        A = np.arange(m * n, dtype=np.float64).reshape(m, n)
        path = _write(tmp_path, A)
        with pytest.raises(BandedScheduleError):
            transpose_file_inplace(path, m, n, np.float64, window_bytes=4096)
        np.testing.assert_array_equal(
            np.fromfile(path, np.float64).reshape(m, n), A
        )

    def test_pass_failure_propagates_after_flush(self, tmp_path, monkeypatch):
        """A mid-run failure surfaces the original error (flush-or-raise:
        the window flush on the unwind path must not mask it)."""
        m, n = 16, 24
        path = _write(tmp_path, np.arange(m * n, dtype=np.float64).reshape(m, n))

        def boom(*a, **k):
            raise RuntimeError("injected pass failure")

        monkeypatch.setattr(executor_mod._BandPipeline, "permute", boom)
        with BandedExecutor(1, window_bytes=4096) as ex:
            with pytest.raises(RuntimeError, match="injected pass failure"):
                ex.transpose_file(path, m, n, np.float64)

    def test_proof_memo_covers_repeat_runs(self, tmp_path):
        before = len(executor_mod._PROVEN)
        for _ in range(2):
            A = np.arange(12 * 18, dtype=np.int64).reshape(12, 18)
            path = _write(tmp_path, A)
            transpose_file_inplace(path, 12, 18, np.int64, window_bytes=4096)
        # second run re-proves nothing: every (shape, bands, algorithm)
        # key was already in the memo
        assert len(executor_mod._PROVEN) > 0
        assert len(executor_mod._PROVEN) >= before


def _io_threads() -> list[threading.Thread]:
    return [
        t for t in threading.enumerate()
        if t.name.startswith(executor_mod.IO_THREAD)
    ]


def _record_permutes(monkeypatch) -> list[tuple[int, int]]:
    """Record ``(pass, band)`` of every band the calling thread permutes."""
    seen: list[tuple[int, int]] = []
    orig = executor_mod._BandPipeline.permute

    def permute(self, i, band, bi, nb, B):
        seen.append((i, bi))
        orig(self, i, band, bi, nb, B)

    monkeypatch.setattr(executor_mod._BandPipeline, "permute", permute)
    return seen


class TestPipeline:
    """Two band buffers, one I/O helper: loads and stores of neighbouring
    bands overlap the kernel of the band between them."""

    def test_kernel_failure_waits_for_the_helper_before_flushing(
        self, tmp_path, monkeypatch
    ):
        """The kernel fails while the helper is still storing the band
        before it: the unwind flush and the raise both come after that
        store has finished, and no helper thread outlives the call."""
        m, n = 96, 96
        path = _write(tmp_path, np.arange(m * n, dtype=np.int64).reshape(m, n))
        orig = executor_mod._BandPipeline.permute
        in_store = threading.Event()
        flushed_mid_store: list[bool] = []

        def fail_third(self, i, band, bi, nb, B):
            if bi == 2:
                assert in_store.wait(timeout=10)  # band 1's store is running
                raise RuntimeError("injected kernel failure")
            orig(self, i, band, bi, nb, B)

        def slow(orig_store):
            def store(*a, **k):
                in_store.set()
                time.sleep(0.05)
                try:
                    orig_store(*a, **k)
                finally:
                    in_store.clear()
            return store

        orig_flush = ResidentWindow.flush

        def flush(self):
            flushed_mid_store.append(in_store.is_set())
            orig_flush(self)

        monkeypatch.setattr(executor_mod._BandPipeline, "permute", fail_third)
        for name in ("store_rows", "store_cols"):
            monkeypatch.setattr(
                ResidentWindow, name, slow(getattr(ResidentWindow, name))
            )
        monkeypatch.setattr(ResidentWindow, "flush", flush)
        with pytest.raises(RuntimeError, match="injected kernel failure"):
            transpose_file_inplace(path, m, n, np.int64, window_bytes=4096)
        assert flushed_mid_store and not any(flushed_mid_store)
        assert _io_threads() == []

    @pytest.mark.parametrize("which", ["second", "last"])
    def test_store_error_surfaces_and_no_later_band_computes(
        self, tmp_path, monkeypatch, which
    ):
        """A store that fails on the helper surfaces as its own OSError.
        The only band permuted after the failing store began is the one
        whose kernel overlapped it; nothing after that computes, and no
        later pass starts (the last store of a pass is awaited too)."""
        m, n = 96, 96
        A = np.arange(m * n, dtype=np.int64).reshape(m, n)
        seen = _record_permutes(monkeypatch)
        transpose_file_inplace(
            _write(tmp_path, A), m, n, np.int64, window_bytes=4096
        )
        nb = sum(1 for i, _ in seen if i == 0)  # bands of the first pass
        assert nb >= 4
        fail_at = 1 if which == "second" else nb - 1
        seen.clear()
        stores: list[int] = []

        def flaky(orig):
            def store(self, a, b, band):
                stores.append(a)
                if len(stores) == fail_at + 1:
                    raise OSError("injected store failure")
                orig(self, a, b, band)
            return store

        for name in ("store_rows", "store_cols"):
            monkeypatch.setattr(
                ResidentWindow, name, flaky(getattr(ResidentWindow, name))
            )
        path = _write(tmp_path, A)
        with pytest.raises(OSError, match="injected store failure"):
            transpose_file_inplace(path, m, n, np.int64, window_bytes=4096)
        assert seen == [(0, bi) for bi in range(min(fail_at + 2, nb))]
        assert len(stores) == fail_at + 1
        assert _io_threads() == []

    def test_no_helper_after_a_job(self, tmp_path):
        m, n = 96, 64
        A = np.arange(m * n, dtype=np.int64).reshape(m, n)
        path = _write(tmp_path, A)
        stats = transpose_file_inplace(path, m, n, np.int64, window_bytes=4096)
        assert stats["bands"] > stats["passes"]
        assert _io_threads() == []
        np.testing.assert_array_equal(_read(path, n, m, np.int64, "C"), A.T)

    def test_fitting_matrix_runs_one_band_per_pass(self, tmp_path):
        A = np.arange(40 * 30, dtype=np.int64).reshape(40, 30)
        path = _write(tmp_path, A)
        stats = transpose_file_inplace(
            path, 40, 30, np.int64, window_bytes=A.nbytes
        )
        assert stats["bands"] == stats["passes"]
        np.testing.assert_array_equal(_read(path, 30, 40, np.int64, "C"), A.T)

    @pytest.mark.parametrize("m,n,window,algorithm", [
        (96, 96, 16 * 1024, "auto"),  # every unit fits half the window
        # c = 2: one rotation group is 400800 B, between half the window
        # and the whole of it, so the rotation pass cannot double-buffer
        (100, 1002, 600_000, "c2r"),
        (100, 1002, 600_000, "r2c"),
    ])
    def test_band_buffers_fit_the_window(
        self, tmp_path, monkeypatch, m, n, window, algorithm
    ):
        """The buffer arena stays inside ``max(window_bytes, one unit)``,
        and a pass is double-buffered exactly when two of its bands fit."""
        pipes: list = []
        orig = executor_mod._BandPipeline.close

        def close(self):
            pipes.append(self)
            return orig(self)

        monkeypatch.setattr(executor_mod._BandPipeline, "close", close)
        A = np.arange(m * n, dtype=np.float64).reshape(m, n)
        path = _write(tmp_path, A)
        transpose_file_inplace(
            path, m, n, np.float64, window_bytes=window, algorithm=algorithm
        )
        (pipe,) = pipes
        units = [
            executor_mod.engine.chunk_rect(pipe.plan.dec, p, 0, 1)
            for p in pipe.plan.passes
        ]
        unit_bytes = max((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in units) * 8
        assert pipe.arena.nbytes <= max(window, unit_bytes)
        if unit_bytes <= window // 2:
            assert all(pipe.double)
        else:
            assert not all(pipe.double) and any(pipe.double)
        np.testing.assert_array_equal(_read(path, n, m, np.float64, "C"), A.T)

    @pytest.mark.parametrize("slow", ["load", "store", "kernel"])
    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    @pytest.mark.parametrize("m,n", [(31, 47), (48, 36)])  # c = 1, c = 12
    def test_skewed_stage_timing_stays_exact(
        self, tmp_path, monkeypatch, slow, algorithm, m, n
    ):
        """Slowing one stage reorders which side of the pipeline waits;
        the file must come out byte-exact either way."""
        def delayed(orig):
            def f(*a, **k):
                time.sleep(0.002)
                return orig(*a, **k)
            return f

        owners = {
            "load": (ResidentWindow, ("load_rows", "load_cols")),
            "store": (ResidentWindow, ("store_rows", "store_cols")),
            "kernel": (executor_mod._BandPipeline, ("permute",)),
        }
        owner, names = owners[slow]
        for name in names:
            monkeypatch.setattr(owner, name, delayed(getattr(owner, name)))
        A = np.random.default_rng(m).standard_normal((m, n))
        path = _write(tmp_path, A)
        stats = transpose_file_inplace(
            path, m, n, np.float64, algorithm=algorithm, window_bytes=2048,
        )
        assert stats["bands"] >= 4 * stats["passes"]
        np.testing.assert_array_equal(_read(path, n, m, np.float64, "C"), A.T)

    def test_oversubscribed_switch_interval_stress(self, tmp_path):
        """Chunk threads plus the I/O helper outnumber the cores and the
        interpreter switches threads every few microseconds: a band
        buffer handed over too early would show as a wrong element."""
        import sys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with BandedExecutor(3, window_bytes=2048) as ex:
                for m, n in [(31, 47), (48, 36), (64, 96)]:
                    A = np.random.default_rng(m * n).standard_normal((m, n))
                    path = _write(tmp_path, A)
                    stats = ex.transpose_file(path, m, n, np.float64)
                    assert stats["bands"] >= 4 * stats["passes"]
                    np.testing.assert_array_equal(
                        _read(path, n, m, np.float64, "C"), A.T
                    )
        finally:
            sys.setswitchinterval(interval)
        assert _io_threads() == []

    def test_traced_job_has_one_load_and_store_span_per_band(self, tmp_path):
        from repro.trace import spans

        m, n = 48, 36
        A = np.arange(m * n, dtype=np.float64).reshape(m, n)
        path = _write(tmp_path, A)
        was_enabled = spans.tracer.enabled
        spans.tracer.reset()
        spans.enable()
        try:
            with spans.tracer.activate(spans.TraceContext("feedc0de")):
                stats = transpose_file_inplace(
                    path, m, n, np.float64, window_bytes=2048
                )
            recs = spans.tracer.snapshot()
        finally:
            spans.tracer.reset()
            spans.tracer.enabled = was_enabled
        np.testing.assert_array_equal(_read(path, n, m, np.float64, "C"), A.T)
        (op,) = [r for r in recs if r.name.startswith("op.stream.")]
        bands = [r for r in recs if r.name == "stream.band"]
        assert len(bands) == stats["bands"]
        for kind in ("load", "store"):
            io = [r for r in recs if r.name == f"stream.{kind}"]
            keys = sorted((r.attrs["stage"], r.attrs["band"]) for r in io)
            assert keys == sorted(
                (r.attrs["stage"], r.attrs["band"]) for r in bands
            ), kind
            assert {r.parent_id for r in io} == {op.span_id}
            assert {r.trace_id for r in io} == {"feedc0de"}
            assert {r.tid for r in io}.isdisjoint({op.tid})
            assert all(
                r.thread_name.startswith(executor_mod.IO_THREAD) for r in io
            )
        assert {r.tid for r in bands} == {op.tid}


class TestStats:
    def test_stats_shape(self, tmp_path):
        A = np.arange(20 * 30, dtype=np.float32).reshape(20, 30)
        path = _write(tmp_path, A)
        stats = transpose_file_inplace(
            path, 20, 30, np.float32, window_bytes=TINY_WINDOW
        )
        for key in ("m", "n", "order", "algorithm", "passes", "bands",
                    "window_bytes", "backend", "threads", "bytes_read",
                    "bytes_written", "load_s", "store_s", "kernel_s",
                    "io_wait_s", "flush_s", "seconds"):
            assert key in stats, key
        assert stats["kernel_s"] + stats["io_wait_s"] <= stats["seconds"]
        assert stats["bytes_read"] >= A.nbytes * stats["passes"]
        assert stats["bytes_written"] >= A.nbytes * stats["passes"]
