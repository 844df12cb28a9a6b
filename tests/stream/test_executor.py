"""BandedExecutor: byte-exact banded transposes across shapes, orders,
algorithms and backends, schedule-proof gating, and failure semantics."""

from __future__ import annotations

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

        monkeypatch.setattr(BandedExecutor, "_run_one_band", boom)
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


class TestStats:
    def test_stats_shape(self, tmp_path):
        A = np.arange(20 * 30, dtype=np.float32).reshape(20, 30)
        path = _write(tmp_path, A)
        stats = transpose_file_inplace(
            path, 20, 30, np.float32, window_bytes=TINY_WINDOW
        )
        for key in ("m", "n", "order", "algorithm", "passes", "bands",
                    "window_bytes", "backend", "threads", "bytes_read",
                    "bytes_written", "seconds"):
            assert key in stats, key
        assert stats["bytes_read"] >= A.nbytes * stats["passes"]
        assert stats["bytes_written"] >= A.nbytes * stats["passes"]
