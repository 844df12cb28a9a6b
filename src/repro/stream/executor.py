"""Banded out-of-core executor: pass-by-pass, band-by-band, pipelined,
proof-gated.

Runs the decomposition's pass schedule against a :class:`ResidentWindow`
instead of an in-RAM buffer.  Each pass's iteration range (rows, columns,
or rotation column-groups) is split into *bands*; inside a band the usual
``n_threads`` chunk schedule runs on the thread executor
(:class:`~repro.parallel.executor.ParallelExecutor`).

Pipeline.  A pass is a two-stage pipeline over two band buffers carved
from one arena that is allocated once per job and reused by every band
of every pass.  The calling thread permutes band k while one I/O helper
thread stores band k - 1 and then loads band k + 1 into the buffer band
k - 1 just left.  Bands are sized to half the window, so both buffers
together fit ``window_bytes``; a pass whose data fits the window runs as
one band, because there is nothing to overlap.  A pass whose single
iteration unit (a row, a column or a rotation group) is larger than half
the window cannot hold two bands: it runs on one buffer, loading band
k + 1 only after the kernel has finished band k, so residency stays at
``max(window_bytes, one unit)`` as for a serial loop.  Each pass drains the pipeline
before the next starts (its last store completes before the next pass's
first load), and the helper retires stores in band order.  A kernel or
I/O error is raised only once the helper is idle, so no thread is writing
the mapping when the caller sees it.  The kernel stays on the calling
thread: its spans and timers nest under the caller's.

Safety is not asserted, it is *proven*: before anything executes, every
band count this call will use goes through
:func:`repro.analysis.racecheck.check_banded_schedule`, which shows the
band x chunk write rectangles of every pass are pairwise disjoint and
covering and that reads stay inside the writing chunk's own rectangle.
That last property is exactly why the band copies are sound: a chunk of a
band permutes only data the band itself holds, so a RAM copy of the band
is indistinguishable from the mapped file, and a store of one band may
overlap the load of another.  A failed proof raises
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

from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

from ..core import engine
from ..core.engine import NULL_CM, chunk_body, pass_point
from ..parallel.executor import ParallelExecutor
from ..parallel.partition import balanced_chunks
from ..runtime import plan_cache
from ..runtime.metrics import registry
from ..trace.events import event_log
from ..trace.spans import TraceContext, tracer
from .window import ResidentWindow, default_window_bytes, parse_bytes

__all__ = [
    "BandedExecutor",
    "BandedScheduleError",
    "IO_THREAD",
]

#: name prefix of the pipeline's I/O helper thread (its trace lane label)
IO_THREAD = "repro-stream-io"


class BandedScheduleError(RuntimeError):
    """The banded race proof failed; nothing was executed."""


#: process-wide memo of proven (M, N, n_bands, n_threads, algorithm)
#: schedules — the proof is pure in those five ints, so one-shot entry
#: points (`transpose_file_inplace`) share it across executor instances.
_PROVEN: set[tuple] = set()


class _BandPipeline:
    """One job's pipeline: the bands of every pass, one reusable buffer
    arena, the I/O helper thread and the per-stage clocks.

    A pass is double-buffered when it has more than one band and two of
    its largest band fit the window; otherwise (one band, or one iteration
    unit larger than half the window) it runs on one buffer and the helper
    loads band k + 1 only after the kernel has finished band k.  The
    arena is sized to the largest pass footprint, so residency stays
    within ``max(window_bytes, one iteration unit)``."""

    def __init__(self, plan, band_lists, window, executor, kernel, san, ctx):
        self.plan = plan
        self.bands = band_lists
        self.rects = [
            [engine.chunk_rect(plan.dec, p, b.start, b.stop) for b in bl]
            for p, bl in zip(plan.passes, band_lists)
        ]
        self.window = window
        self.executor = executor
        self.kernel = kernel
        self.san = san
        self.backend = "native" if kernel is not None else "stream"
        #: elements of each pass's largest band, and whether it overlaps
        self.band_elems = [
            max((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in rs)
            for rs in self.rects
        ]
        self.double = [
            len(rs) > 1 and 2 * e * window.dtype.itemsize <= window.window_bytes
            for rs, e in zip(self.rects, self.band_elems)
        ]
        self._arena_elems = max(
            e * (2 if d else 1) for e, d in zip(self.band_elems, self.double)
        )
        self.arena = None  # allocated on first use, reused by every pass
        self._io = ThreadPoolExecutor(1, thread_name_prefix=IO_THREAD)
        #: trace context of the helper's spans: the op span, when tracing
        self.ctx = ctx
        self.load_s = self.store_s = self.kernel_s = self.io_wait_s = 0.0

    def close(self) -> None:
        """Let the helper finish its current step and join it
        (idempotent)."""
        self._io.shutdown(wait=True)

    def _buffers(self, i: int) -> list[np.ndarray]:
        """Pass ``i``'s band views into the arena: two alternating slots
        when it is double-buffered, else one slot for every band."""
        if self.arena is None:
            self.arena = np.empty(self._arena_elems, self.window.dtype)
        e, double = self.band_elems[i], self.double[i]
        out = []
        for bi, (r0, r1, c0, c1) in enumerate(self.rects[i]):
            lo = (bi % 2) * e if double else 0
            out.append(
                self.arena[lo:lo + (r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0)
            )
        return out

    def _wait(self, fut) -> None:
        t0 = perf_counter()
        try:
            fut.result()
        finally:
            self.io_wait_s += perf_counter() - t0

    def run_pass(self, i: int) -> None:
        """Pass ``i`` over its bands, pipelined when double-buffered;
        returns once its last store is done.  On an error the helper may
        still be busy: the caller joins it (:meth:`close`) before it
        flushes or raises."""
        p = self.plan.passes[i]
        bands, rects, double = self.bands[i], self.rects[i], self.double[i]
        nb = len(bands)
        bufs = self._buffers(i)

        def step(store: int, load: int) -> None:  # on the helper thread
            if store >= 0:
                self._transfer(p, "store", store, nb, rects[store], bufs[store])
            if load < nb:
                self._transfer(p, "load", load, nb, rects[load], bufs[load])

        pending = self._io.submit(step, -1, 0)
        for bi, band in enumerate(bands):
            self._wait(pending)
            if double:  # band k - 1's buffer is free: overlap with the kernel
                pending = self._io.submit(step, bi - 1, bi + 1)
            self.permute(i, band, bi, nb, bufs[bi])
            if not double:  # one buffer: band k + 1 waits for the kernel
                pending = self._io.submit(step, bi, bi + 1)
        self._wait(pending)
        if double:
            self._wait(self._io.submit(step, nb - 1, nb))

    def _transfer(self, p, kind: str, bi: int, nb: int, rect, B) -> None:
        """Load or store one band through the window (helper thread)."""
        r0, r1, c0, c1 = rect
        w = self.window
        t0 = perf_counter()
        with tracer.activate(self.ctx), tracer.span(
            f"stream.{kind}", stage=p.name, band=bi, bands=nb, bytes=B.nbytes,
        ) if tracer.enabled else NULL_CM:
            if kind == "load":
                if p.axis == "rows":
                    w.load_rows(r0, r1, out=B)
                else:
                    w.load_cols(c0, c1, out=B)
            elif p.axis == "rows":
                w.store_rows(r0, r1, B)
            else:
                w.store_cols(c0, c1, B)
        if kind == "load":
            self.load_s += perf_counter() - t0
        else:
            self.store_s += perf_counter() - t0

    def permute(self, i: int, band: slice, bi: int, nb: int, B) -> None:
        """Run pass ``i``'s chunks of one loaded band (calling thread)."""
        p = self.plan.passes[i]
        if event_log.enabled:
            event_log.emit(
                "stream",
                trace_id=tracer.current_trace_id() if tracer.enabled else "",
                stage=p.name, band=bi, bands=nb,
                lo=band.start, hi=band.stop, bytes=B.nbytes,
            )
        t0 = perf_counter()
        with tracer.span(
            "stream.band", stage=p.name, band=bi, bands=nb,
            lo=band.start, hi=band.stop, bytes=2 * B.nbytes,
        ) if tracer.enabled else NULL_CM:
            body = chunk_body(
                self.plan, B, i, origin=band.start, kernel=self.kernel,
                san=self.san, backend=self.backend,
            )
            self.executor.parallel_for(band.stop - band.start, body, name=p.name)
        self.kernel_s += perf_counter() - t0
        if registry.enabled:
            registry.inc("stream.bands")


class BandedExecutor:
    """Runs the decomposition band-by-band over a memmapped file.

    Parameters
    ----------
    n_threads:
        Chunk parallelism *within* a band.  Bands themselves run one at a
        time on the calling thread, pipelined with one I/O helper thread.
    window_bytes:
        Resident byte budget of the band buffers (default
        ``REPRO_STREAM_WINDOW`` or 256 MiB).

    Every pass runs through the compiled kernel of the shape's cached plan
    when one is available (row passes via a shifted base, column/rotation
    passes via the band-rebased entry points); the sanitizer runs the
    engine's numpy bodies.
    """

    def __init__(
        self,
        n_threads: int = 1,
        *,
        window_bytes: int | None = None,
        io_block_bytes: int | None = None,
    ):
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        self.n_threads = int(n_threads)
        self.window_bytes = (
            default_window_bytes() if window_bytes is None
            else parse_bytes(window_bytes)
        )
        self.io_block_bytes = io_block_bytes
        self.executor = ParallelExecutor(self.n_threads)

    # -- band planning -------------------------------------------------------

    def _n_bands(self, p: engine.Pass, dec, itemsize: int) -> int:
        """One band when the matrix fits the window (nothing to overlap),
        else the fewest bands whose largest fits half of it, so the two
        pipeline buffers together do (a single unit larger than that
        degenerates to one unit per band, run on one buffer)."""
        if dec.m * dec.n * itemsize <= self.window_bytes:
            return 1
        r0, r1, c0, c1 = engine.chunk_rect(dec, p, 0, 1)
        unit_bytes = (r1 - r0) * (c1 - c0) * itemsize
        per_band = max(1, self.window_bytes // 2 // unit_bytes)
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
        window budget, elapsed seconds, and per-stage seconds: ``load_s``
        and ``store_s`` on the helper, ``kernel_s`` and ``io_wait_s`` on
        the calling thread, ``flush_s`` for the op-end ``msync``).

        Raises :class:`ValueError` on shape/size/order problems (before the
        file is opened for writing beyond validation) and
        :class:`BandedScheduleError` when the race proof fails (before any
        band executes).  On a pass failure the already-stored bands are
        made durable best-effort before the error propagates — there is
        no silently-skipped flush.
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
        band_lists = [
            balanced_chunks(p.extent, self._n_bands(p, dec, dtype.itemsize))
            for p in plan.passes
        ]
        for k in sorted({len(bl) for bl in band_lists}):
            self._prove(M, N, k, algorithm)

        san = engine.active_sanitizer()
        kernel = None
        if san is None:
            kernel = plan.kernel(M * N, dtype.itemsize)
        label = "native" if kernel is not None else "numpy"
        t0 = perf_counter()
        with ResidentWindow(
            path, M, N, dtype,
            window_bytes=self.window_bytes,
            io_block_bytes=self.io_block_bytes,
            mode=mode,
        ) as window:
            with tracer.span(
                f"op.stream.{algorithm}", m=m, n=n, order=order,
                threads=self.n_threads, backend=label,
                window=self.window_bytes, dtype=str(dtype),
            ) if tracer.enabled else NULL_CM as op:
                ctx = (
                    None if op is None
                    else TraceContext(tracer.current_trace_id(), op.span_id)
                )
                pipe = _BandPipeline(
                    plan, band_lists, window, self.executor, kernel, san, ctx
                )
                try:
                    try:
                        for i, (p, bl) in enumerate(zip(plan.passes, band_lists)):
                            with pass_point(
                                "stream", p, size=M * N, san=san, m=M, n=N,
                                bands=len(bl), backend=label,
                                bytes=2 * M * N * dtype.itemsize,
                            ):
                                pipe.run_pass(i)
                    finally:
                        pipe.close()  # no thread writes the mapping past here
                except BaseException:
                    # flush-or-raise: make what *was* stored durable, but
                    # never let an msync error mask the pass failure.
                    try:
                        window.flush()
                    except OSError:
                        if registry.enabled:
                            registry.inc("stream.flush_failed")
                    raise
                t_flush = perf_counter()
                window.flush()
                flush_s = perf_counter() - t_flush
            stats = {
                "m": m, "n": n, "order": order, "algorithm": algorithm,
                "passes": len(plan.passes),
                "bands": sum(len(bl) for bl in band_lists),
                "window_bytes": self.window_bytes,
                "backend": label, "threads": self.n_threads,
                "bytes_read": window.bytes_read,
                "bytes_written": window.bytes_written,
                "load_s": pipe.load_s, "store_s": pipe.store_s,
                "kernel_s": pipe.kernel_s, "io_wait_s": pipe.io_wait_s,
                "flush_s": flush_s,
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
        self.executor.shutdown()

    def __enter__(self) -> "BandedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
