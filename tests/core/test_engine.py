"""The pass engine: every executor path byte-exact under every backend mode,
and the schedule/geometry the executors, the race proofs and the codegen
share."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import native
from repro.analysis import racecheck
from repro.core import engine
from repro.core.batched import batched_transpose_inplace
from repro.core.indexing import Decomposition
from repro.core.transpose import transpose_inplace
from repro.parallel import ParallelTranspose
from repro.runtime import plan_cache
from repro.stream import transpose_file_inplace

M, N, K = 96, 160, 3  # gcd 32: all three passes run


def _expected(buf: np.ndarray, order: str) -> np.ndarray:
    if order == "C":
        return np.ascontiguousarray(buf.reshape(M, N).T).reshape(-1)
    return np.asfortranarray(buf.reshape(M, N, order="F").T).reshape(-1, order="F")


@pytest.fixture(params=["native", "numpy", "sanitizer"])
def mode(request, monkeypatch):
    """native: compiled kernels even at this small size; numpy: the kernel
    switched off; sanitizer: shadow-memory checking, which forces numpy."""
    plan_cache.clear()
    monkeypatch.setattr(native, "_warned_once", True)  # silence fallbacks
    if request.param == "native":
        monkeypatch.setenv("REPRO_NATIVE_MIN_ELEMS", "1")
    elif request.param == "numpy":
        monkeypatch.setenv("REPRO_NATIVE", "0")
    else:
        monkeypatch.setattr(racecheck.sanitizer, "enabled", True)
    yield request.param
    plan_cache.clear()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("path", ["single", "batch", "threads", "banded"])
def test_every_path_is_byte_exact(mode, path, order, tmp_path):
    proto = np.random.default_rng(0).standard_normal(M * N).astype(np.float32)
    expected = _expected(proto, order)
    if path == "single":
        buf = proto.copy()
        transpose_inplace(buf, M, N, order)
    elif path == "batch":
        buf = np.tile(proto, K)
        batched_transpose_inplace(buf, M, N, order)
        expected = np.tile(expected, K)
    elif path == "banded":
        f = tmp_path / "m.bin"
        proto.tofile(f)
        stats = transpose_file_inplace(
            f, M, N, np.float32, order, window_bytes=8 * 1024, n_threads=2
        )
        assert stats["bands"] >= 2 * stats["passes"]
        buf = np.fromfile(f, dtype=np.float32)
    else:
        buf = proto.copy()
        with ParallelTranspose(2) as pt:
            pt.transpose_inplace(buf, M, N, order)
    np.testing.assert_array_equal(buf, expected)


class TestSchedule:
    @pytest.mark.parametrize("m,n", [(12, 18), (7, 13), (1, 9)])
    def test_orders_and_extents(self, m, n):
        dec = Decomposition.of(m, n)
        c2r = engine.schedule(dec, "c2r")
        r2c = engine.schedule(dec, "r2c")
        rot = dec.c > 1
        assert [p.name for p in c2r] == (
            ["pre_rotate"] * rot + ["row_shuffle", "column_shuffle"]
        )
        assert [p.name for p in r2c] == (
            ["inverse_column_shuffle", "row_shuffle_r2c"] + ["post_rotate"] * rot
        )
        for p in c2r + r2c:
            assert p.extent == {"groups": dec.c, "rows": m, "cols": n}[p.axis]

    def test_unknown_names_are_rejected(self):
        dec = Decomposition.of(4, 6)
        with pytest.raises(ValueError):
            engine.schedule(dec, "psychic")
        with pytest.raises(ValueError):
            engine.pass_of(dec, "bogus")

    def test_codegen_emits_the_engine_schedule(self):
        from repro.native.codegen import generate_source

        dec = Decomposition.of(12, 18)
        for algorithm in ("c2r", "r2c"):
            spec = generate_source(dec, algorithm, 8)
            assert spec.passes == engine.schedule(dec, algorithm)


@pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
def test_band_origin_chunks_compose_to_the_full_pass(algorithm):
    """The numpy body on a band copy, in global coordinates, lands exactly
    what it lands on the whole view.  130x390 puts several sub-bands of
    up to ``L`` rows or columns in a band at a non-zero origin; 100x1002
    has two groups of 501 columns, so the second band's rotation rolls
    in-group slices from a scaled group origin."""
    for shape in ((24, 36), (130, 390), (100, 1002)):
        dec = Decomposition.of(*shape)
        V = np.arange(dec.m * dec.n, dtype=np.int64).reshape(dec.m, dec.n)
        for p in engine.schedule(dec, algorithm):
            full = V.copy()
            engine.numpy_chunk(full, dec, p, 0, p.extent)
            banded = V.copy()
            for band in ((0, p.extent // 2), (p.extent // 2, p.extent)):
                r0, r1, c0, c1 = engine.chunk_rect(dec, p, *band)
                B = banded[r0:r1, c0:c1].copy()
                engine.numpy_chunk(B, dec, p, *band, origin=band[0])
                banded[r0:r1, c0:c1] = B
            np.testing.assert_array_equal(banded, full, err_msg=f"{shape} {p.name}")
            V = full


def test_read_only_buffers_never_reach_a_kernel(monkeypatch):
    """Every in-place entry point refuses a read-only buffer up front, so
    no compiled kernel is ever handed memory it may not write."""
    monkeypatch.setenv("REPRO_NATIVE_MIN_ELEMS", "1")
    buf = np.arange(M * N, dtype=np.float32)
    buf.flags.writeable = False
    with pytest.raises(ValueError, match="writeable"):
        transpose_inplace(buf, M, N)
    with ParallelTranspose(2) as pt:
        with pytest.raises(ValueError, match="writeable"):
            pt.transpose_inplace(buf, M, N)
    np.testing.assert_array_equal(buf, np.arange(M * N, dtype=np.float32))


#: bytes of auxiliary space per ``L * max(m, n)`` a numpy pass may peak at
#: (18-28 measured on the shapes below)
SPACE_C = 32


def _peak_bytes(run) -> int:
    """Peak traced allocation while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _transposed(buf: np.ndarray, m: int, n: int) -> np.ndarray:
    return np.ascontiguousarray(buf.reshape(m, n).T).reshape(-1)


class TestNumpySpaceBound:
    """The paper's O(max(m, n)) auxiliary space on every numpy path: a
    first numpy execute peaks below ``SPACE_C * L * max(m, n)`` bytes,
    which is below the matrix's own size.  Each path is warmed on a tiny
    shape first so its lazy imports are not counted."""

    @staticmethod
    def _bound(buf: np.ndarray, m: int, n: int) -> int:
        bound = SPACE_C * engine.L * max(m, n)
        assert bound < buf.nbytes
        return bound

    # c = 1 (no rotations); c = 2, whose 500-column groups rotate in slices
    @pytest.mark.parametrize("m,n", [(1000, 1499), (1000, 1502)])
    def test_fresh_plan_execute(self, m, n):
        engine.TransposePlan(4, 6).execute(np.zeros(24), backend="numpy")
        buf = np.arange(m * n, dtype=np.float32)
        expected = _transposed(buf, m, n)
        plan = engine.TransposePlan(m, n)
        peak = _peak_bytes(lambda: plan.execute(buf, backend="numpy"))
        assert peak <= self._bound(buf, m, n), peak
        np.testing.assert_array_equal(buf, expected)

    def test_parallel_transpose_without_native(self):
        m, n = 1000, 1502
        buf = np.arange(m * n, dtype=np.float32)
        expected = _transposed(buf, m, n)
        with ParallelTranspose(1, native="off") as pt:
            pt.transpose_inplace(np.zeros(24), 4, 6)
            peak = _peak_bytes(lambda: pt.transpose_inplace(buf, m, n))
        assert peak <= self._bound(buf, m, n), peak
        np.testing.assert_array_equal(buf, expected)

    def test_streamed_band(self, tmp_path, monkeypatch):
        """A window that holds the whole matrix runs each pass as one band:
        beyond the band copy itself the pass stays within the bound."""
        monkeypatch.setenv("REPRO_NATIVE", "0")
        small = tmp_path / "small.bin"
        np.zeros(24, dtype=np.float32).tofile(small)
        transpose_file_inplace(small, 4, 6, np.float32)
        m, n = 1000, 1502
        buf = np.arange(m * n, dtype=np.float32)
        f = tmp_path / "m.bin"
        buf.tofile(f)
        stats = {}

        def run():
            stats.update(transpose_file_inplace(
                f, m, n, np.float32, window_bytes=buf.nbytes
            ))

        peak = _peak_bytes(run)
        assert stats["bands"] == stats["passes"]
        assert peak <= buf.nbytes + self._bound(buf, m, n), peak
        np.testing.assert_array_equal(
            np.fromfile(f, dtype=np.float32), _transposed(buf, m, n)
        )
