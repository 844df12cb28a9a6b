"""Parallel in-place CPU transpose (Section 5.1).

A direct parallelization of Algorithm 1, with the paper's two CPU
optimizations: a completely gather-based formulation (rows gather with
``d'^{-1}``, Eq. 31) and strength-reduced index arithmetic (Section 4.4,
via :class:`~repro.strength.reduced.ReducedEquations`).

Each pass of the engine's schedule (:mod:`repro.core.engine`) is a chunked
parallel-for over rows, columns or column groups; chunks touch disjoint
data, so passes need no locking — only the inter-pass barrier the executor
provides.  Chunk bodies, native dispatch, sanitizer hooks and
instrumentation are the engine's.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..core import engine
from ..core.engine import NULL_CM, chunk_body, pass_point
from ..core.transpose import choose_algorithm
from ..runtime.metrics import registry
from ..trace.spans import tracer
from .executor import ParallelExecutor

__all__ = [
    "ParallelTranspose",
    "parallel_transpose_inplace",
]


class ParallelTranspose:
    """A reusable parallel transposer bound to a worker count.

    Parameters
    ----------
    n_threads:
        Worker count (1 = the sequential baseline of Table 1).
    strength_reduced:
        Use fixed-point-reciprocal index math (on by default, as in the
        paper's CPU implementation); falls back to plain ``//``/``%`` for
        shapes outside the reduced range.
    backend:
        ``"threads"`` (default) runs chunks on a thread pool — real overlap
        only while numpy's gather kernels release the GIL.  ``"mp"`` runs
        chunks in a persistent process pool against a shared-memory copy of
        the buffer (see :mod:`repro.parallel.mp`): true parallel-for, at
        the cost of one staging copy in and one out.
    start_method:
        mp backend only — multiprocessing start method override (defaults
        to forkserver where available; see ``REPRO_MP_START``).
    native:
        ``"auto"`` (default) runs each chunk through the compiled per-plan
        kernel of :mod:`repro.native` when one is available — the ctypes
        calls release the GIL for their whole duration, so the thread
        backend gets true pass-level parallelism instead of relying on
        numpy's partial GIL releases.  ``"off"`` keeps every chunk on the
        numpy gathers.  The mp backend and the sanitizer always use numpy
        (worker processes run the engine's numpy bodies; the sanitizer must
        see every index).
    """

    def __init__(
        self,
        n_threads: int = 1,
        *,
        strength_reduced: bool = True,
        backend: str = "threads",
        start_method: str | None = None,
        native: str = "auto",
    ):
        if backend not in ("threads", "mp"):
            raise ValueError(f"unknown backend {backend!r}; use 'threads' or 'mp'")
        if native not in ("auto", "off"):
            raise ValueError(f"unknown native mode {native!r}; use 'auto' or 'off'")
        self.n_threads = int(n_threads)
        self.backend = backend
        self.strength_reduced = strength_reduced
        self.native = native
        if backend == "mp":
            from .mp import MpTranspose

            self._mp: "MpTranspose | None" = MpTranspose(
                n_threads,
                strength_reduced=strength_reduced,
                start_method=start_method,
            )
            self.executor = None
        else:
            self._mp = None
            self.executor = ParallelExecutor(n_threads)

    def _run(self, buf: np.ndarray, m: int, n: int, algorithm: str) -> np.ndarray:
        """Run ``algorithm``'s passes on the ``m x n`` view of ``buf``: one
        barrier-separated chunked parallel-for per pass of the engine's
        schedule."""
        if self._mp is not None:
            return self._mp.run(buf, m, n, algorithm)
        V = engine.matrix_view(buf, m, n)
        plan = engine.view_plan(m, n, algorithm, buf.dtype)
        san = engine.active_sanitizer()
        kernel = None
        if self.native == "auto" and san is None:
            kernel = plan.kernel(buf.size, buf.dtype.itemsize)
        red = (
            engine.reduced_equations(plan.dec) if self.strength_reduced else None
        )
        label = "native" if kernel is not None else "threads"
        t0 = perf_counter() if registry.enabled else 0.0
        with tracer.span(
            f"op.parallel.{algorithm}", m=m, n=n,
            threads=self.n_threads, dtype=str(buf.dtype),
        ) if tracer.enabled else NULL_CM:
            for i, p in enumerate(plan.passes):
                body = chunk_body(
                    plan, V, i, kernel=kernel, red=red, san=san, backend=label,
                )
                with pass_point(
                    "parallel", p, size=buf.size, san=san, m=m, n=n,
                    bytes=2 * buf.nbytes, backend=label,
                ):
                    self.executor.parallel_for(p.extent, body, name=p.name)
        if registry.enabled:
            passes = len(plan.passes)
            registry.record_call(
                f"parallel.{algorithm}",
                perf_counter() - t0,
                nbytes=2 * passes * buf.nbytes,
                elements=passes * buf.size,
            )
        return buf

    # -- entry points ------------------------------------------------------------

    def c2r(self, buf: np.ndarray, m: int, n: int) -> np.ndarray:
        """Parallel C2R transposition of a flat buffer."""
        if not buf.flags["C_CONTIGUOUS"]:
            raise ValueError(engine.NONCONTIGUOUS)
        return self._run(buf, m, n, "c2r")

    def r2c(self, buf: np.ndarray, m: int, n: int) -> np.ndarray:
        """Parallel R2C transposition of a flat buffer."""
        if not buf.flags["C_CONTIGUOUS"]:
            raise ValueError(engine.NONCONTIGUOUS)
        return self._run(buf, m, n, "r2c")

    def transpose_inplace(
        self, buf: np.ndarray, m: int, n: int, order: str = "C"
    ) -> np.ndarray:
        """Order-aware entry point with the paper's C2R/R2C heuristic."""
        if order not in ("C", "F"):
            raise ValueError(f"unknown order {order!r}")
        vm, vn = (m, n) if order == "C" else (n, m)
        if choose_algorithm(m, n) == "c2r":
            return self.c2r(buf, vm, vn)
        return self.r2c(buf, vn, vm)

    def close(self) -> None:
        if self._mp is not None:
            self._mp.close()
        if self.executor is not None:
            self.executor.shutdown()

    def __enter__(self) -> "ParallelTranspose":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def parallel_transpose_inplace(
    buf: np.ndarray,
    m: int,
    n: int,
    order: str = "C",
    *,
    n_threads: int = 1,
    backend: str = "threads",
    start_method: str | None = None,
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`ParallelTranspose`."""
    with ParallelTranspose(
        n_threads, backend=backend, start_method=start_method
    ) as pt:
        return pt.transpose_inplace(buf, m, n, order)
