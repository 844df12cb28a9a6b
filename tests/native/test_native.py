"""The compiled native kernel backend.

Differential correctness against the numpy executors over a
dtype x order x shape lattice, plan-cache byte accounting of the ``.so``
artifacts (including eviction unlinking them), concurrent first-compile,
the scratch-failure resume contract, and every leg of the fallback
resolution contract (``REPRO_NATIVE=0``, no compiler, min-elems floor,
explicit backend requests).

Tests that need a real toolchain are skipped on machines without one; the
fallback tests pin ``CC`` to a nonexistent path so they run everywhere.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import native
from repro.core.batched import batched_transpose_inplace
from repro.core.transpose import transpose_inplace
from repro.native.kernel import NativeScratchError
from repro.parallel import ParallelTranspose
from repro.runtime import metrics, plan_cache

requires_toolchain = pytest.mark.skipif(
    not native.available(), reason="no C toolchain on this machine"
)


@pytest.fixture(autouse=True)
def _clean_state():
    """Known-clean plan cache and metrics around every test."""
    cache = plan_cache.get_plan_cache()
    saved = (cache.max_bytes, cache.enabled)
    plan_cache.clear()
    cache.reset_stats()
    metrics.reset()
    yield
    cache.configure(max_bytes=saved[0], enabled=saved[1])
    plan_cache.clear()
    cache.reset_stats()
    metrics.reset()


def _counters() -> dict:
    return metrics.registry.snapshot()["counters"]


def _expected(buf: np.ndarray, m: int, n: int, order: str) -> np.ndarray:
    """Ground truth via out-of-place numpy reshape."""
    if order == "C":
        return np.ascontiguousarray(buf.reshape(m, n).T).ravel()
    return np.asfortranarray(buf.reshape(m, n, order="F").T).ravel(order="F")


# ---------------------------------------------------------------------------
# differential lattice
# ---------------------------------------------------------------------------


@requires_toolchain
class TestDifferential:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "m,n", [(31, 47), (48, 36), (64, 64), (256, 384)]
    )
    def test_native_matches_numpy_across_shapes(self, m, n, order):
        proto = np.arange(m * n, dtype=np.float64)
        nat = transpose_inplace(proto.copy(), m, n, order, backend="native")
        ref = transpose_inplace(proto.copy(), m, n, order, backend="numpy")
        np.testing.assert_array_equal(nat, ref)
        np.testing.assert_array_equal(nat, _expected(proto, m, n, order))

    @pytest.mark.parametrize(
        "dtype", [np.uint8, np.float32, np.float64, np.complex128]
    )
    @pytest.mark.parametrize("order,m,n", [("C", 256, 384), ("F", 48, 36)])
    def test_native_matches_numpy_across_dtypes(self, dtype, order, m, n):
        proto = np.arange(m * n).astype(dtype)
        nat = transpose_inplace(proto.copy(), m, n, order, backend="native")
        ref = transpose_inplace(proto.copy(), m, n, order, backend="numpy")
        np.testing.assert_array_equal(nat, ref)

    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    def test_both_decompositions(self, algorithm):
        m, n = 256, 384
        proto = np.arange(m * n, dtype=np.float64)
        nat = transpose_inplace(
            proto.copy(), m, n, algorithm=algorithm, backend="native"
        )
        np.testing.assert_array_equal(nat, _expected(proto, m, n, "C"))

    def test_auto_backend_selects_native_above_floor(self):
        m, n = 256, 384  # 98304 elements >= the 16384 default floor
        proto = np.arange(m * n, dtype=np.float64)
        out = transpose_inplace(proto.copy(), m, n)
        np.testing.assert_array_equal(out, _expected(proto, m, n, "C"))
        assert _counters().get("native.compile", 0) == 1

    def test_batched_native_matches_numpy(self):
        k, m, n = 3, 64, 48
        proto = np.arange(k * m * n, dtype=np.float64)
        nat = batched_transpose_inplace(proto.copy(), m, n, backend="native")
        ref = batched_transpose_inplace(proto.copy(), m, n, backend="numpy")
        np.testing.assert_array_equal(nat, ref)
        tiles = proto.copy().reshape(k, m, n)
        expected = np.ascontiguousarray(tiles.transpose(0, 2, 1)).ravel()
        np.testing.assert_array_equal(nat, expected)

    def test_parallel_native_matches_interpreter(self):
        m, n = 256, 384
        proto = np.arange(m * n, dtype=np.float64)
        with ParallelTranspose(2, native="auto") as pt:
            nat = pt.transpose_inplace(proto.copy(), m, n)
        with ParallelTranspose(2, native="off") as pt:
            ref = pt.transpose_inplace(proto.copy(), m, n)
        np.testing.assert_array_equal(nat, ref)
        np.testing.assert_array_equal(nat, _expected(proto, m, n, "C"))
        # the native chunks actually engaged (a kernel was compiled)
        assert _counters().get("native.compile", 0) >= 1


# ---------------------------------------------------------------------------
# line-true column stripes at every buffer alignment
# ---------------------------------------------------------------------------


def _carve(backing: np.ndarray, offset: int, count: int, dtype) -> np.ndarray:
    """``count`` elements of ``dtype`` starting ``offset`` bytes past a
    64-byte boundary of a uint8 backing array."""
    start = (-backing.ctypes.data) % 64 + offset
    nbytes = count * np.dtype(dtype).itemsize
    return backing[start:start + nbytes].view(dtype)


def _offsets(dtype) -> range:
    """Every itemsize-multiple byte offset within a cache line."""
    return range(0, 64, np.dtype(dtype).itemsize)


def _transposed(src: np.ndarray, m: int, n: int) -> np.ndarray:
    return np.transpose(src.reshape(m, n)).copy().ravel()


@requires_toolchain
class TestLineAlignment:
    """The column passes size their head stripe from the buffer address, so
    every byte offset a buffer can sit at takes a different path through
    the kernel; each must still be byte-exact.  The shapes span more
    columns than one stripe, so later stripes exist to be aligned:
    97 x 130 has c = 1 (no rotation; row strides of 97 or 130 elements
    are no multiple of 64 bytes) and 90 x 150 has c = 30 (narrow column
    groups in the rotations)."""

    SHAPES = [(97, 130), (90, 150)]

    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    @pytest.mark.parametrize(
        "dtype", [np.uint8, np.uint16, np.float32, np.float64, np.complex128]
    )
    @pytest.mark.parametrize("m,n", SHAPES)
    def test_every_offset_is_byte_exact(self, m, n, dtype, algorithm):
        src = np.arange(m * n).astype(dtype)
        want = _transposed(src, m, n)
        backing = np.empty(m * n * src.itemsize + 128, dtype=np.uint8)
        for off in _offsets(dtype):
            buf = _carve(backing, off, m * n, dtype)
            buf[:] = src
            transpose_inplace(buf, m, n, algorithm=algorithm, backend="native")
            assert np.array_equal(buf, want), f"offset {off}"
        assert _counters().get("native.compile", 0) == 1

    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    @pytest.mark.parametrize("m,n", SHAPES)
    def test_banded_entry_points_on_misaligned_band_copies(
        self, m, n, algorithm
    ):
        from repro.core.indexing import Decomposition
        from repro.native.codegen import generate_source
        from repro.native.kernel import compile_spec
        from repro.parallel.partition import balanced_chunks

        dec = Decomposition.of(m, n)
        kernel = compile_spec(generate_source(dec, algorithm, 4))
        backing = np.empty(m * n * 4 + 128, dtype=np.uint8)
        for off in _offsets(np.float32):
            state = np.arange(m * n, dtype=np.float32).reshape(m, n)
            for i, p in enumerate(kernel.passes):
                ref = state.copy()
                kernel.run_pass(i, ref.ctypes.data, 0, p.extent)
                if kernel.has_banded(i):
                    unit = dec.b if p.axis == "groups" else 1
                    got = state.copy()
                    for bnd in balanced_chunks(p.extent, min(3, p.extent)):
                        c0, c1 = bnd.start * unit, bnd.stop * unit
                        band = _carve(
                            backing, off, m * (c1 - c0), np.float32
                        ).reshape(m, c1 - c0)
                        band[:] = got[:, c0:c1]
                        for ch in balanced_chunks(bnd.stop - bnd.start, 2):
                            kernel.run_pass_banded(
                                i, band.ctypes.data,
                                bnd.start + ch.start, bnd.start + ch.stop,
                                c1 - c0, bnd.start,
                            )
                        got[:, c0:c1] = band
                    np.testing.assert_array_equal(
                        got, ref, err_msg=f"pass {i} at offset {off}"
                    )
                state = ref

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_batch_tiles_not_a_multiple_of_a_line(self, m, n):
        k = 3
        assert (m * n * 4) % 64  # every tile after the first is misaligned
        src = np.arange(k * m * n, dtype=np.float32)
        want = np.ascontiguousarray(
            src.reshape(k, m, n).transpose(0, 2, 1)
        ).ravel()
        backing = np.empty(src.nbytes + 128, dtype=np.uint8)
        for off in _offsets(np.float32):
            buf = _carve(backing, off, src.size, np.float32)
            buf[:] = src
            batched_transpose_inplace(buf, m, n, backend="native")
            assert np.array_equal(buf, want), f"offset {off}"

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_two_thread_chunks_with_unaligned_bounds(self, m, n, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_MIN_ELEMS", "0")
        src = np.arange(m * n, dtype=np.float64)
        want = _transposed(src, m, n)
        backing = np.empty(src.nbytes + 128, dtype=np.uint8)
        with ParallelTranspose(2, native="auto") as pt:
            for off in _offsets(np.float64):
                buf = _carve(backing, off, src.size, np.float64)
                buf[:] = src
                pt.transpose_inplace(buf, m, n)
                assert np.array_equal(buf, want), f"offset {off}"
        assert _counters().get("native.compile", 0) >= 1


# ---------------------------------------------------------------------------
# plan-cache accounting of compiled artifacts
# ---------------------------------------------------------------------------


@requires_toolchain
@requires_toolchain
class TestBandedEntryPoints:
    """``run_pass_banded``: the column-facing passes executed against
    band-sized buffers compose to the same permutation as the full-width
    entry points — the contract the out-of-core ``BandedExecutor`` runs on."""

    @pytest.mark.parametrize("algorithm", ["c2r", "r2c"])
    @pytest.mark.parametrize("m,n", [(12, 18), (12, 96), (31, 47)])
    def test_banded_composes_to_full_pass(self, m, n, algorithm):
        from repro.core.indexing import Decomposition
        from repro.native.codegen import generate_source
        from repro.native.kernel import compile_spec
        from repro.parallel.partition import balanced_chunks

        dec = Decomposition.of(m, n)
        kernel = compile_spec(generate_source(dec, algorithm, 8))
        state = np.arange(m * n, dtype=np.uint64).reshape(m, n)
        for i, p in enumerate(kernel.passes):
            ref = state.copy()
            kernel.run_pass(i, ref.ctypes.data, 0, p.extent)
            if not kernel.has_banded(i):
                assert p.axis == "rows"  # row passes need no rebase
                state = ref
                continue
            unit = dec.b if p.axis == "groups" else 1
            got = state.copy()
            for bnd in balanced_chunks(p.extent, min(3, p.extent)):
                c0, c1 = bnd.start * unit, bnd.stop * unit
                B = np.ascontiguousarray(got[:, c0:c1])
                for ch in balanced_chunks(bnd.stop - bnd.start, 2):
                    kernel.run_pass_banded(
                        i, B.ctypes.data,
                        bnd.start + ch.start, bnd.start + ch.stop,
                        B.shape[1], bnd.start,
                    )
                got[:, c0:c1] = B
            np.testing.assert_array_equal(got, ref)
            state = ref

    def test_row_pass_has_no_banded_variant(self):
        from repro.core.indexing import Decomposition
        from repro.native.codegen import generate_source
        from repro.native.kernel import compile_spec

        kernel = compile_spec(
            generate_source(Decomposition.of(12, 18), "c2r", 8)
        )
        idx = next(
            i for i, p in enumerate(kernel.passes) if p.axis == "rows"
        )
        assert not kernel.has_banded(idx)
        with pytest.raises(ValueError, match="no banded entry point"):
            kernel.run_pass_banded(idx, 0, 0, 1, 18, 0)


class TestArtifactAccounting:
    def test_so_bytes_charged_to_plan_cache_entry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        m, n = 256, 384
        proto = np.arange(m * n, dtype=np.float64)
        cache = plan_cache.get_plan_cache()
        transpose_inplace(proto.copy(), m, n, backend="numpy")
        plan_only_bytes = cache.current_bytes
        transpose_inplace(proto.copy(), m, n, backend="native")
        artifacts = list(tmp_path.glob("repro_native_*.so"))
        assert len(artifacts) == 1
        delta = cache.current_bytes - plan_only_bytes
        assert delta == artifacts[0].stat().st_size > 0

    def test_clear_unlinks_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        proto = np.arange(256 * 384, dtype=np.float64)
        transpose_inplace(proto.copy(), 256, 384, backend="native")
        assert list(tmp_path.glob("*.so"))
        plan_cache.clear()
        assert not list(tmp_path.glob("*.so"))

    def test_eviction_under_byte_budget_unlinks_artifact(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        cache = plan_cache.get_plan_cache()
        proto_a = np.arange(256 * 384, dtype=np.float64)
        proto_b = np.arange(192 * 320, dtype=np.float64)
        transpose_inplace(proto_a.copy(), 256, 384, backend="native")
        transpose_inplace(proto_b.copy(), 192, 320, backend="native")
        assert len(list(tmp_path.glob("*.so"))) == 2
        evictions_before = cache.stats()["evictions"]
        # A budget smaller than either entry: everything evictable goes
        # (the cache keeps at most the single most-recent entry).
        cache.configure(max_bytes=1)
        assert cache.stats()["evictions"] > evictions_before
        assert len(list(tmp_path.glob("*.so"))) <= 1
        plan_cache.clear()
        assert not list(tmp_path.glob("*.so"))

    def test_concurrent_first_compile_produces_one_artifact(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        m, n = 256, 384
        proto = np.arange(m * n, dtype=np.float64)
        expected = _expected(proto, m, n, "C")
        barrier = threading.Barrier(2)
        failures: list[Exception] = []

        def work():
            try:
                buf = proto.copy()
                barrier.wait(timeout=30)
                transpose_inplace(buf, m, n, backend="native")
                np.testing.assert_array_equal(buf, expected)
            except Exception as exc:  # pragma: no cover - failure detail
                failures.append(exc)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not failures
        assert len(list(tmp_path.glob("repro_native_*.so"))) == 1
        assert _counters().get("native.compile", 0) == 1

    def test_release_is_idempotent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        m, n = 256, 384
        transpose_inplace(
            np.arange(m * n, dtype=np.float64), m, n, backend="native"
        )
        plan = plan_cache.get_single_plan(
            m, n, "C", "auto", np.dtype(np.float64)
        )
        kernel = native.kernel_for_plan(plan, 8)
        assert kernel is not None and not kernel.released
        kernel.release()
        assert kernel.released
        kernel.release()  # second call is a no-op
        assert not list(tmp_path.glob("*.so"))


# ---------------------------------------------------------------------------
# scratch-failure resume
# ---------------------------------------------------------------------------


@requires_toolchain
class TestScratchResume:
    def test_single_resumes_from_failing_pass(self, monkeypatch):
        m, n = 256, 384
        proto = np.arange(m * n, dtype=np.float64)
        transpose_inplace(proto.copy(), m, n, backend="native")  # compile
        plan = plan_cache.get_single_plan(
            m, n, "C", "auto", np.dtype(np.float64)
        )
        kernel = native.kernel_for_plan(plan, 8)
        assert kernel is not None and len(kernel.passes) >= 2
        real_run_pass = kernel.run_pass

        def failing_run_pass(idx, addr, lo, hi):
            # pass 0 completes natively, pass 1 "fails" before moving data
            if idx == 0:
                return real_run_pass(idx, addr, lo, hi)
            raise NativeScratchError(idx)

        def failing_run(addr):
            failing_run_pass(0, addr, 0, kernel.passes[0].extent)
            failing_run_pass(1, addr, 0, kernel.passes[1].extent)

        # cover both execution branches (metrics on -> per-pass entry points,
        # metrics off -> the one-shot driver)
        monkeypatch.setattr(kernel, "run_pass", failing_run_pass)
        monkeypatch.setattr(kernel, "run", failing_run)
        monkeypatch.setattr(native, "_warned_once", True)  # silence
        buf = proto.copy()
        transpose_inplace(buf, m, n, backend="native")
        np.testing.assert_array_equal(buf, _expected(proto, m, n, "C"))
        assert _counters().get("native.fallback", 0) >= 1

    def test_batched_resumes_from_failing_tile(self, monkeypatch):
        k, m, n = 3, 64, 48
        proto = np.arange(k * m * n, dtype=np.float64)
        batched_transpose_inplace(proto.copy(), m, n, backend="native")
        plan = plan_cache.get_batched_plan(
            m, n, k, "C", "auto", np.dtype(np.float64)
        )
        kernel = native.kernel_for_plan(plan, 8)
        assert kernel is not None
        real_run_pass = kernel.run_pass

        def failing_run_pass_batch(idx, addr, nk):
            # tile 0 finishes pass 0 natively; tile 1 fails before moving
            # anything, so the numpy resume owns tiles [1:] for this pass
            # and every later pass end to end.
            assert idx == 0
            real_run_pass(0, addr, 0, kernel.passes[0].extent)
            raise NativeScratchError(0, 1)

        def failing_run_batch(addr, nk):
            failing_run_pass_batch(0, addr, nk)

        monkeypatch.setattr(kernel, "run_pass_batch", failing_run_pass_batch)
        monkeypatch.setattr(kernel, "run_batch", failing_run_batch)
        monkeypatch.setattr(native, "_warned_once", True)
        buf = proto.copy()
        batched_transpose_inplace(buf, m, n, backend="native")
        tiles = proto.copy().reshape(k, m, n)
        expected = np.ascontiguousarray(tiles.transpose(0, 2, 1)).ravel()
        np.testing.assert_array_equal(buf, expected)
        assert _counters().get("native.fallback", 0) >= 1


# ---------------------------------------------------------------------------
# sanitizer x native: sanitized runs must force numpy
# ---------------------------------------------------------------------------


class TestSanitizedNative:
    """``REPRO_SANITIZE=1`` must force the numpy fallback for native
    requests: compiled kernels bypass the shadow-memory hooks, so a
    sanitized run that silently used one would validate nothing.  Both the
    single and batched executors must refuse the kernel, run the hooked
    gathers, and leave an observable ``native.fallback`` record."""

    @pytest.fixture(autouse=True)
    def _sanitized(self, monkeypatch):
        from repro.analysis import racecheck

        was = racecheck.sanitizer.enabled
        racecheck.enable()
        monkeypatch.setattr(native, "_warned_once", True)  # silence
        yield
        racecheck.sanitizer.enabled = was

    def test_single_sanitized_native_records_shadow_coverage(self):
        from repro.analysis.racecheck import sanitizer

        m, n = 256, 384
        proto = np.arange(m * n, dtype=np.float64)
        before = sanitizer.stats()["passes_checked"]
        buf = proto.copy()
        transpose_inplace(buf, m, n, backend="native")
        np.testing.assert_array_equal(buf, _expected(proto, m, n, "C"))
        assert sanitizer.stats()["passes_checked"] > before
        assert _counters().get("native.fallback", 0) >= 1
        assert _counters().get("native.compile", 0) == 0

    def test_batched_sanitized_native_records_shadow_coverage(self):
        from repro.analysis.racecheck import sanitizer

        k, m, n = 3, 64, 48
        proto = np.arange(k * m * n, dtype=np.float64)
        before = sanitizer.stats()["passes_checked"]
        buf = proto.copy()
        batched_transpose_inplace(buf, m, n, backend="native")
        tiles = proto.copy().reshape(k, m, n)
        expected = np.ascontiguousarray(tiles.transpose(0, 2, 1)).ravel()
        np.testing.assert_array_equal(buf, expected)
        assert sanitizer.stats()["passes_checked"] > before
        assert _counters().get("native.fallback", 0) >= 1
        assert _counters().get("native.compile", 0) == 0

    def test_batched_sanitizer_catches_out_of_range_gather(self, monkeypatch):
        from repro.analysis.racecheck import SanitizerError
        from repro.core import engine
        from repro.core.batched import BatchedTransposePlan

        k, m, n = 2, 12, 18
        plan = BatchedTransposePlan(m, n)
        # Corrupt the engine's index source: every numpy sub-band of every
        # tile gathers through a block built from its pass's tables, and a
        # column pass's first table is its row permutation.
        gather = next(p for p in plan.passes if p.axis == "cols")
        index_tables = engine.index_tables

        def corrupt(dec, p):
            tables = index_tables(dec, p)
            if p is gather:
                tables[0][0] = k * m * n
            return tables

        monkeypatch.setattr(engine, "index_tables", corrupt)
        with pytest.raises(SanitizerError) as exc:
            plan.execute(np.arange(k * m * n, dtype=np.int64))
        assert exc.value.kind == "out-of-bounds read"


# ---------------------------------------------------------------------------
# fallback resolution contract
# ---------------------------------------------------------------------------


class TestFallbackContract:
    def test_no_compiler_falls_back_with_warning_and_metric(
        self, monkeypatch
    ):
        monkeypatch.setenv("CC", "/nonexistent/cc")
        monkeypatch.setattr(native, "_warned_once", False)
        m, n = 160, 128
        proto = np.arange(m * n, dtype=np.float64)
        buf = proto.copy()
        with pytest.warns(RuntimeWarning, match="falling back to numpy"):
            transpose_inplace(buf, m, n, backend="native")
        np.testing.assert_array_equal(buf, _expected(proto, m, n, "C"))
        assert _counters().get("native.fallback", 0) == 1
        assert _counters().get("native.compile", 0) == 0
        # the failed resolution is memoized, but the metric still fires
        transpose_inplace(proto.copy(), m, n, backend="native")
        assert _counters().get("native.fallback", 0) == 2

    def test_repro_native_0_is_silent_for_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setattr(native, "_warned_once", False)
        m, n = 256, 384
        proto = np.arange(m * n, dtype=np.float64)
        buf = proto.copy()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            transpose_inplace(buf, m, n)
        np.testing.assert_array_equal(buf, _expected(proto, m, n, "C"))
        assert _counters().get("native.fallback", 0) == 0
        assert _counters().get("native.compile", 0) == 0

    def test_repro_native_0_with_explicit_request_records_fallback(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setattr(native, "_warned_once", True)
        m, n = 256, 384
        proto = np.arange(m * n, dtype=np.float64)
        buf = proto.copy()
        transpose_inplace(buf, m, n, backend="native")
        np.testing.assert_array_equal(buf, _expected(proto, m, n, "C"))
        assert _counters().get("native.fallback", 0) == 1

    @requires_toolchain
    def test_min_elems_floor_gates_auto_but_not_explicit(self):
        m, n = 32, 48  # 1536 elements, far below the 16384 floor
        proto = np.arange(m * n, dtype=np.float64)
        transpose_inplace(proto.copy(), m, n)  # auto: stays on numpy
        assert _counters().get("native.compile", 0) == 0
        buf = proto.copy()
        transpose_inplace(buf, m, n, backend="native")  # explicit: compiles
        assert _counters().get("native.compile", 0) == 1
        np.testing.assert_array_equal(buf, _expected(proto, m, n, "C"))

    @requires_toolchain
    def test_min_elems_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_MIN_ELEMS", "100")
        m, n = 32, 48
        transpose_inplace(np.arange(m * n, dtype=np.float64), m, n)
        assert _counters().get("native.compile", 0) == 1

    def test_native_requires_plan_cache_path(self):
        proto = np.arange(64 * 96, dtype=np.float64)
        with pytest.raises(ValueError, match="cached-plan path"):
            transpose_inplace(
                proto, 64, 96, use_plan_cache=False, backend="native"
            )

    def test_unknown_backend_rejected(self):
        proto = np.arange(64 * 96, dtype=np.float64)
        with pytest.raises(ValueError, match="backend"):
            transpose_inplace(proto, 64, 96, backend="fortran")

    def test_unavailable_reason_strings(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert native.unavailable_reason() == "disabled by REPRO_NATIVE=0"
        monkeypatch.setenv("REPRO_NATIVE", "1")
        monkeypatch.setenv("CC", "/nonexistent/cc")
        assert native.unavailable_reason() == "no C compiler available"
        assert not native.available()


# ---------------------------------------------------------------------------
# toolchains
# ---------------------------------------------------------------------------


@requires_toolchain
class TestToolchains:
    def test_cffi_toolchain_compiles_and_matches(
        self, tmp_path, monkeypatch
    ):
        pytest.importorskip("cffi")
        monkeypatch.setenv("REPRO_NATIVE_TOOLCHAIN", "cffi")
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        from repro.native.kernel import toolchain_name

        assert toolchain_name() == "cffi"
        m, n = 256, 384
        proto = np.arange(m * n, dtype=np.float64)
        buf = proto.copy()
        transpose_inplace(buf, m, n, backend="native")
        np.testing.assert_array_equal(buf, _expected(proto, m, n, "C"))
        assert len(list(tmp_path.glob("repro_native_*.so"))) == 1
        assert _counters().get("native.compile", 0) == 1

    def test_profile_reports_native_backend(self):
        from repro.trace.profile import profile_shape

        prof = profile_shape(256, 384, repeats=1, backend="native")
        assert prof.backend == "native"
        prof = profile_shape(256, 384, repeats=1, backend="numpy")
        assert prof.backend == "numpy"
