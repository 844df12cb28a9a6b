"""Banded out-of-core executor: pass-by-pass, band-by-band, proof-gated.

Runs the decomposition's pass schedule against a :class:`ResidentWindow`
instead of an in-RAM buffer.  Each pass's iteration range (rows, columns,
or rotation column-groups) is split into sequential *bands* sized to the
window byte budget; inside a band the usual ``n_threads`` chunk schedule
runs — threads (:class:`~repro.parallel.executor.ParallelExecutor`) or
processes (:class:`~repro.parallel.mp.MpExecutor` against a per-band
shared-memory segment) — and the band is flushed before the next one
loads.

Safety is not asserted, it is *proven*: before anything executes, every
band count this call will use goes through
:func:`repro.analysis.racecheck.check_banded_schedule`, which shows the
band x chunk write rectangles of every pass are pairwise disjoint and
covering and that reads stay inside the writing chunk's own rectangle.
That last property is exactly why the band copies are sound: a chunk of a
band permutes only data the band itself holds, so a RAM copy of the band
is indistinguishable from the mapped file.  A failed proof raises
:class:`BandedScheduleError` and nothing is touched.

Native kernels: every pass runs through the compiled per-plan kernel when
one is available.  Row-axis passes (``row_shuffle`` / ``row_shuffle_r2c``)
keep the full row stride in their band copy, so the plain
``run_pass(lo, hi)`` entry point sees them at ``base - r0 * n * itemsize``
and is handed the *global* ``[lo, hi)`` chunk range.  Column and rotation
bands are narrower than a row, so they go through the band-rebased
``run_pass_banded(lo, hi, row_stride, origin)`` entry points the codegen
emits alongside the full-width ones — same index arithmetic in global
coordinates, addressing rebased to the band copy's stride and first
column.  A scratch-allocation failure inside a native chunk falls back to
the numpy gather for exactly that chunk, the same contract as the in-RAM
path.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..core import engine
from ..core.engine import NULL_CM, chunk_body, pass_point
from ..parallel.executor import ParallelExecutor
from ..parallel.partition import balanced_chunks
from ..runtime import plan_cache
from ..runtime.metrics import registry
from ..trace.events import event_log
from ..trace.spans import tracer
from .window import ResidentWindow, default_window_bytes, parse_bytes

__all__ = [
    "BandedExecutor",
    "BandedScheduleError",
]


class BandedScheduleError(RuntimeError):
    """The banded race proof failed; nothing was executed."""


#: process-wide memo of proven (M, N, n_bands, n_threads, algorithm)
#: schedules — the proof is pure in those five ints, so one-shot entry
#: points (`transpose_file_inplace`) share it across executor instances.
_PROVEN: set[tuple] = set()


class BandedExecutor:
    """Runs the decomposition band-by-band over a memmapped file.

    Parameters
    ----------
    n_threads:
        Chunk parallelism *within* a band (bands themselves are strictly
        sequential — that is what bounds the resident set).
    backend:
        ``"threads"`` (default) or ``"mp"`` (per-band shared-memory
        segment + persistent process pool).
    window_bytes:
        Resident byte budget per band (default ``REPRO_STREAM_WINDOW`` or
        256 MiB).

    Every pass runs through the compiled kernel of the shape's cached plan
    when one is available on the thread backend (row passes via a shifted
    base, column/rotation passes via the band-rebased entry points); the
    mp backend and the sanitizer run the engine's numpy bodies.
    """

    def __init__(
        self,
        n_threads: int = 1,
        *,
        backend: str = "threads",
        window_bytes: int | None = None,
        io_block_bytes: int | None = None,
        start_method: str | None = None,
    ):
        if backend not in ("threads", "mp"):
            raise ValueError(f"unknown backend {backend!r}; use 'threads' or 'mp'")
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        self.n_threads = int(n_threads)
        self.backend = backend
        self.window_bytes = (
            default_window_bytes() if window_bytes is None
            else parse_bytes(window_bytes)
        )
        self.io_block_bytes = io_block_bytes
        if backend == "mp":
            from ..parallel.mp import MpExecutor

            self._mp = MpExecutor(self.n_threads, start_method)
            self.executor = None
        else:
            self._mp = None
            self.executor = ParallelExecutor(self.n_threads)

    # -- band planning -------------------------------------------------------

    def _n_bands(self, p: engine.Pass, dec, itemsize: int) -> int:
        """Fewest bands whose largest band fits the window budget (a single
        unit larger than the window degenerates to one unit per band)."""
        r0, r1, c0, c1 = engine.chunk_rect(dec, p, 0, 1)
        unit_bytes = (r1 - r0) * (c1 - c0) * itemsize
        per_band = max(1, self.window_bytes // unit_bytes)
        return min(p.extent, -(-p.extent // per_band))

    def _prove(self, M: int, N: int, n_bands: int, algorithm: str) -> None:
        """Gate execution on the banded race proof (memoised per shape)."""
        key = (M, N, n_bands, self.n_threads, algorithm)
        if key in _PROVEN:
            return
        report = engine.racecheck().check_banded_schedule(
            M, N, n_bands, self.n_threads, algorithm
        )
        if not report.ok:
            raise BandedScheduleError(
                f"banded schedule {M}x{N} bands={n_bands} "
                f"threads={self.n_threads} [{algorithm}] failed its race "
                f"proof: {'; '.join(str(f) for f in report.failures[:3])}"
            )
        _PROVEN.add(key)

    # -- band execution ------------------------------------------------------

    def _run_band_mp(
        self, plan, i: int, B_shape: tuple, band: slice, window, load, store,
    ) -> None:
        """Run one band on the process pool via a per-band shared segment.

        The band stages straight into the segment (``load(out=...)``), the
        chunk tasks permute it in place, and the segment stores straight
        back — the same two staging traversals as the in-RAM mp backend,
        but sized to the band, not the matrix.
        """
        from ..parallel.mp import _pass_chunk_task
        from ..parallel.shm import SharedArray

        p = plan.passes[i]
        dec = plan.dec
        seg = SharedArray(B_shape, window.dtype)
        try:
            load(out=seg.array)
            tasks = [
                (
                    slice(band.start + ch.start, band.start + ch.stop),
                    (
                        seg.name, dec.m, dec.n, window.dtype.str, p.name,
                        band.start + ch.start, band.start + ch.stop, True,
                        None, B_shape, band.start,
                    ),
                )
                for ch in balanced_chunks(band.stop - band.start, self.n_threads)
            ]
            self._mp.run_chunks(p.name, _pass_chunk_task, tasks)
            store(seg.array)
        finally:
            seg.destroy()

    def _run_one_band(
        self, plan, i: int, window, band: slice, bi: int, nb: int, kernel, san,
    ) -> None:
        """Load, permute and flush a single band (spans + progress event)."""
        p = plan.passes[i]
        dec = plan.dec
        r0, r1, c0, c1 = engine.chunk_rect(dec, p, band.start, band.stop)
        if p.axis == "rows":
            load = lambda out=None: window.load_rows(r0, r1, out)
            store = lambda B: window.store_rows(r0, r1, B)
        else:
            load = lambda out=None: window.load_cols(c0, c1, out)
            store = lambda B: window.store_cols(c0, c1, B)
        nbytes = (r1 - r0) * (c1 - c0) * window.dtype.itemsize
        if event_log.enabled:
            event_log.emit(
                "stream",
                trace_id=tracer.current_trace_id() if tracer.enabled else "",
                stage=p.name, band=bi, bands=nb,
                lo=band.start, hi=band.stop, bytes=nbytes,
            )
        with tracer.span(
            "stream.band", stage=p.name, band=bi, bands=nb,
            lo=band.start, hi=band.stop, bytes=2 * nbytes,
        ) if tracer.enabled else NULL_CM:
            if self._mp is not None:
                self._run_band_mp(
                    plan, i, (r1 - r0, c1 - c0), band, window, load, store
                )
            else:
                B = load()
                body = chunk_body(
                    plan, B, i, origin=band.start, kernel=kernel,
                    red=engine.reduced_equations(dec), san=san,
                    backend="native" if kernel is not None else "stream",
                )
                self.executor.parallel_for(
                    band.stop - band.start, body, name=p.name
                )
                store(B)
        if registry.enabled:
            registry.inc("stream.bands")

    # -- entry point ---------------------------------------------------------

    def transpose_file(
        self,
        path,
        m: int,
        n: int,
        dtype,
        order: str = "C",
        *,
        algorithm: str = "auto",
        mode: str = "r+",
    ) -> dict:
        """Transpose the ``m x n`` matrix stored in ``path`` in place,
        band-by-band, and return a stats dict (passes, bands, bytes moved,
        window budget, elapsed seconds).

        Raises :class:`ValueError` on shape/size/order problems (before the
        file is opened for writing beyond validation) and
        :class:`BandedScheduleError` when the race proof fails (before any
        band executes).  On a pass failure the already-flushed bands are
        durable and the mapping is synced best-effort before the error
        propagates — there is no silently-skipped flush.
        """
        if algorithm not in ("auto", "c2r", "r2c"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
        dtype = np.dtype(dtype)
        # The shape's cached plan: O(1), and the same entry (and compiled
        # kernel, charged to the cache) as the in-RAM entry points.  Its
        # dec is the executing view: (vm, vn) for C2R, (vn, vm) for R2C
        # (Theorem 7).
        plan = plan_cache.get_single_plan(m, n, order, algorithm, dtype)
        algorithm = plan.algorithm
        dec = plan.dec
        M, N = dec.m, dec.n
        bands = [self._n_bands(p, dec, dtype.itemsize) for p in plan.passes]
        for k in sorted(set(bands)):
            self._prove(M, N, k, algorithm)

        san = engine.active_sanitizer() if self._mp is None else None
        kernel = None
        if self._mp is None and san is None:
            kernel = plan.kernel(M * N, dtype.itemsize)
        label = "native" if kernel is not None else self.backend
        t0 = perf_counter()
        bands_run = 0
        with ResidentWindow(
            path, M, N, dtype,
            window_bytes=self.window_bytes,
            io_block_bytes=self.io_block_bytes,
            mode=mode,
        ) as window:
            with tracer.span(
                f"op.stream.{algorithm}", m=m, n=n, order=order,
                threads=self.n_threads, backend=self.backend,
                window=self.window_bytes, dtype=str(dtype),
            ) if tracer.enabled else NULL_CM:
                try:
                    for i, (p, k) in enumerate(zip(plan.passes, bands)):
                        band_list = balanced_chunks(p.extent, k)
                        with pass_point(
                            "stream", p, size=M * N, san=san, m=M, n=N,
                            bands=k, backend=label,
                            bytes=2 * M * N * dtype.itemsize,
                        ):
                            for bi, band in enumerate(band_list):
                                self._run_one_band(
                                    plan, i, window, band, bi, len(band_list),
                                    kernel, san,
                                )
                        bands_run += len(band_list)
                except BaseException:
                    # flush-or-raise: make what *was* stored durable, but
                    # never let an msync error mask the pass failure.
                    try:
                        window.flush()
                    except OSError:
                        if registry.enabled:
                            registry.inc("stream.flush_failed")
                    raise
                window.flush()
            stats = {
                "m": m, "n": n, "order": order, "algorithm": algorithm,
                "passes": len(plan.passes), "bands": bands_run,
                "window_bytes": self.window_bytes,
                "backend": self.backend, "threads": self.n_threads,
                "bytes_read": window.bytes_read,
                "bytes_written": window.bytes_written,
            }
        dt = perf_counter() - t0
        stats["seconds"] = dt
        if registry.enabled:
            registry.record_call(
                "stream.transpose", dt,
                nbytes=stats["bytes_read"] + stats["bytes_written"],
                elements=len(plan.passes) * M * N,
            )
        return stats

    def close(self) -> None:
        if self._mp is not None:
            self._mp.shutdown()
        if self.executor is not None:
            self.executor.shutdown()

    def __enter__(self) -> "BandedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
