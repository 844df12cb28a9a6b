"""The pass engine: the one implementation of a decomposition pass.

The decomposition (Algorithm 1 and its inverse) is a fixed sequence of two
or three *passes*, each a parallel-for over one axis of the ``M x N``
executing view.  Every executor — a plan on one matrix or a batch, the
thread-parallel transposer and the out-of-core banded executor — runs that
sequence through this module, which owns, once:

* the schedule as data (:data:`PASSES`, :data:`ORDERS`, :func:`schedule`):
  pass name -> body kind, parallel axis and extent.  The same tables give
  the rectangles :mod:`repro.analysis.racecheck` proves disjoint and
  covering and the pass layout :mod:`repro.native.codegen` emits;
* one numpy chunk body per pass kind (:func:`numpy_chunk`), in global
  coordinates against a buffer that may hold only a band of the view;
* one shadow-memory footprint recorder for the sanitizer (:func:`_record`);
* native dispatch (:func:`native_chunk`): full-width, shifted-base row
  bands, band-rebased column entry points and batched tiles, each with a
  positional scratch-failure contract;
* one span-and-metric point per pass (:func:`pass_point`).

:class:`TransposePlan` is the engine bound to one decomposition.  Its state
is ``O(1)``: a compiled kernel needs only the decomposition constants, and
the chunked executors evaluate each chunk's index block from the equations
(``O(chunk)`` scratch).  Only the plan's own whole-matrix numpy path keeps
``int32`` gather maps — built on its first numpy execute and charged to the
plan cache — because computing them per call would double the cost of a
numpy transpose.  A plan that only ever runs native holds no maps.

The lazily bound subsystems (:func:`native`, :func:`racecheck`) live here
and nowhere else; they are bound on first use so importing the core
package never drags in the compiler or the analysis layer.
"""

from __future__ import annotations

import importlib
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter

import numpy as np

from ..runtime.metrics import registry
from ..strength.reduced import ReducedEquations
from ..trace.spans import tracer
from . import equations as eq
from .indexing import Decomposition
from .transpose import choose_algorithm

__all__ = [
    "Pass",
    "PASSES",
    "ORDERS",
    "schedule",
    "pass_of",
    "chunk_rect",
    "index_block",
    "numpy_chunk",
    "native_chunk",
    "pass_point",
    "chunk_body",
    "reduced_equations",
    "matrix_view",
    "view_plan",
    "native",
    "racecheck",
    "active_sanitizer",
    "TransposePlan",
]

#: reusable stateless no-op context manager for uninstrumented paths
NULL_CM = nullcontext()

#: the errors every in-place entry point raises for a strided or a
#: read-only buffer
NONCONTIGUOUS = (
    "in-place transposition requires a contiguous buffer "
    "(a non-contiguous view would be silently copied, not permuted)"
)
READ_ONLY = (
    "buffer must be writeable "
    "(in-place transposition writes the result back)"
)

_BACKENDS = (None, "auto", "native", "numpy")

#: metric/span label of a pass per entry-point prefix: the plan entry
#: points label by body kind, the parallel and streamed ones by pass name
_KIND_LABELLED = ("plan", "batched")


# -- lazily bound subsystems ---------------------------------------------------

_bound: dict[str, object] = {}


def _module(name: str):
    mod = _bound.get(name)
    if mod is None:
        mod = _bound[name] = importlib.import_module(name)
    return mod


def native():
    """The compiled-kernel backend (:mod:`repro.native`), bound on first use."""
    return _module("repro.native")


def racecheck():
    """The race checker (proof gate and sanitizer), bound on first use."""
    return _module("repro.analysis.racecheck")


def active_sanitizer():
    """The shadow-memory sanitizer when it is enabled, else ``None``."""
    san = racecheck().sanitizer
    return san if san.enabled else None


# -- the schedule --------------------------------------------------------------


@dataclass(frozen=True)
class Pass:
    """One pass of a schedule.

    ``name`` is the schedule name (``pre_rotate``, ``row_shuffle``, ...),
    ``kind`` the body that runs it (``rotate_groups``: column groups rotate
    by ``g mod m``; ``gather_cols``: each row gathers its columns;
    ``gather_rows``: each column gathers its rows), ``axis`` the
    parallel-for axis (``groups`` | ``rows`` | ``cols``) and ``extent`` its
    iteration count.
    """

    name: str
    kind: str
    axis: str
    extent: int


#: pass name -> (body kind, parallel axis, Decomposition attribute that is
#: the axis extent).  A ``groups`` iteration covers the b columns of one
#: column group (Lemma 1: the group shares one rotation amount).
PASSES: dict[str, tuple[str, str, str]] = {
    "pre_rotate": ("rotate_groups", "groups", "c"),
    "row_shuffle": ("gather_cols", "rows", "m"),
    "column_shuffle": ("gather_rows", "cols", "n"),
    "inverse_column_shuffle": ("gather_rows", "cols", "n"),
    "row_shuffle_r2c": ("gather_cols", "rows", "m"),
    "post_rotate": ("rotate_groups", "groups", "c"),
}

#: barrier order of each algorithm; rotations drop out when ``c == 1``
ORDERS: dict[str, tuple[str, ...]] = {
    "c2r": ("pre_rotate", "row_shuffle", "column_shuffle"),
    "r2c": ("inverse_column_shuffle", "row_shuffle_r2c", "post_rotate"),
}


def pass_of(dec: Decomposition, name: str) -> Pass:
    """The :class:`Pass` called ``name`` on the executing view ``dec``."""
    spec = PASSES.get(name)
    if spec is None:
        raise ValueError(f"unknown pass {name!r}")
    kind, axis, extent = spec
    return Pass(name, kind, axis, getattr(dec, extent))


def schedule(dec: Decomposition, algorithm: str) -> tuple[Pass, ...]:
    """The barrier-ordered passes of ``algorithm`` on the view ``dec``."""
    if algorithm not in ORDERS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return tuple(
        pass_of(dec, name)
        for name in ORDERS[algorithm]
        if dec.c > 1 or PASSES[name][0] != "rotate_groups"
    )


def chunk_rect(dec: Decomposition, p: Pass, lo: int, hi: int):
    """Element rectangle ``(r0, r1, c0, c1)`` of iterations ``[lo, hi)``."""
    if p.axis == "rows":
        return lo, hi, 0, dec.n
    if p.axis == "cols":
        return 0, dec.m, lo, hi
    return 0, dec.m, lo * dec.b, hi * dec.b


# -- numpy bodies ----------------------------------------------------------------


@lru_cache(maxsize=64)
def reduced_equations(dec: Decomposition) -> ReducedEquations | None:
    """Strength-reduced equations for ``dec``, or ``None`` outside their
    exact range (the plain ``//``/``%`` forms then apply)."""
    try:
        return ReducedEquations(dec)
    except ValueError:
        return None


def index_block(
    dec: Decomposition, p: Pass, lo: int, hi: int,
    red: ReducedEquations | None = None,
) -> np.ndarray:
    """Gather indices of pass ``p`` for iterations ``[lo, hi)``, from the
    equations (Eqs. 24/26/31 and the fused inverse column shuffle).

    Row passes return a ``(hi - lo, n)`` block of source columns, column
    passes an ``(m, hi - lo)`` block of source rows — ``O(chunk)`` scratch.
    ``red`` selects the strength-reduced forms where one exists.
    """
    if p.axis == "rows":
        i = np.arange(lo, hi, dtype=np.int64)[:, None]
        j = np.arange(dec.n, dtype=np.int64)[None, :]
    else:
        i = np.arange(dec.m, dtype=np.int64)[:, None]
        j = np.arange(lo, hi, dtype=np.int64)[None, :]
    if p.name == "row_shuffle":
        return red.dprime_inverse(i, j) if red else eq.dprime_inverse_v(dec, i, j)
    if p.name == "row_shuffle_r2c":
        return red.dprime(i, j) if red else eq.dprime_v(dec, i, j)
    if p.name == "column_shuffle":
        return red.sprime(i, j) if red else eq.sprime_v(dec, i, j)
    if p.name == "inverse_column_shuffle":
        return eq.sprime_inverse_v(dec, i, j)
    raise ValueError(f"pass {p.name!r} has no gather equation")


def _gather_map(dec: Decomposition, name: str) -> np.ndarray:  # repro-lint: allow(eager-index-map) the lazy numpy-map builder: runs on a plan's first numpy execute and is charged to the plan cache
    """Whole-matrix ``int32`` gather map of one gather pass (indices are
    bounded by ``max(m, n) < 2**31``, so int32 halves the footprint)."""
    if name == "row_shuffle":
        full = eq.dprime_inverse_matrix(dec)
    elif name == "row_shuffle_r2c":
        full = eq.dprime_matrix(dec)
    elif name == "column_shuffle":
        full = eq.sprime_matrix(dec)
    else:
        full = eq.sprime_inverse_matrix(dec)
    return full.astype(np.int32)


def _record(san, dec: Decomposition, p: Pass, lo: int, hi: int, index, tiles: int) -> None:  # repro-lint: allow(raw-divmod, implicit-copy) O(c) group filter and flat index arrays, not matrix views
    """Shadow-memory footprint of one chunk: the flat elements it reads
    (through the same index block the gather uses) and writes, in global
    coordinates, once per tile."""
    n = dec.n
    if p.kind == "rotate_groups":
        groups = np.arange(lo, hi, dtype=np.int64)
        groups = groups[groups % dec.m != 0]
        cols = (groups[:, None] * dec.b + np.arange(dec.b)).reshape(-1)
        reads = writes = np.arange(dec.m, dtype=np.int64)[:, None] * n + cols
        where = f"groups[{lo}:{hi}]"
    elif p.axis == "rows":
        i = np.arange(lo, hi, dtype=np.int64)[:, None]
        reads = i * n + index
        writes = i * n + np.arange(n, dtype=np.int64)
        where = f"rows[{lo}:{hi}]"
    else:
        j = np.arange(lo, hi, dtype=np.int64)[None, :]
        reads = np.asarray(index, dtype=np.int64) * n + j
        writes = np.arange(dec.m, dtype=np.int64)[:, None] * n + j
        where = f"cols[{lo}:{hi}]"
    size = dec.m * n
    for t in range(tiles):
        san.record(
            reads=t * size + reads, writes=t * size + writes,
            where=where if tiles == 1 else f"tile {t} {where}",
        )


def _broadcast(index: np.ndarray, target: np.ndarray) -> np.ndarray:
    return index if index.ndim == target.ndim else np.broadcast_to(index, target.shape)


def numpy_chunk(
    B: np.ndarray,
    dec: Decomposition,
    p: Pass,
    lo: int,
    hi: int,
    origin: int = 0,
    *,
    index: np.ndarray | None = None,
    red: ReducedEquations | None = None,
    san=None,
) -> None:
    """Run pass ``p`` over global iterations ``[lo, hi)`` of ``B``, in place.

    ``B`` is the executing view (``(M, N)``, or ``(k, M, N)`` tiles that the
    pass permutes alike) or a band of it: rows ``[origin, ...)`` for a row
    pass, columns ``[origin, ...)`` for a column pass, column groups
    ``[origin, ...)`` for a rotation.  Every chunk reads only its own rows
    or columns, so a band copy sees exactly the data the chunk needs.
    ``index`` is the chunk's precomputed gather block (a view of a plan's
    maps); without it the block comes from :func:`index_block`.  With
    ``san`` the chunk's footprint is recorded before anything moves.
    """
    tiles = B.shape[0] if B.ndim == 3 else 1
    if p.kind == "rotate_groups":
        if san is not None:
            _record(san, dec, p, lo, hi, None, tiles)
        sign = -1 if p.name == "pre_rotate" else 1
        b = dec.b
        for g in range(lo, hi):
            k = g % dec.m  # repro-lint: allow(raw-divmod) O(c) per-group setup, not per-element
            if k:
                cols = slice((g - origin) * b, (g - origin + 1) * b)
                B[..., cols] = np.roll(B[..., cols], sign * k, axis=-2)
        return
    if index is None:
        index = index_block(dec, p, lo, hi, red)
    if san is not None:
        _record(san, dec, p, lo, hi, index, tiles)
    local = slice(lo - origin, hi - origin)
    if p.axis == "rows":
        sub = B[..., local, :]
        B[..., local, :] = np.take_along_axis(sub, _broadcast(index, sub), axis=-1)
    else:
        sub = B[..., local]
        B[..., local] = np.take_along_axis(sub, _broadcast(index, sub), axis=-2)


# -- native dispatch ---------------------------------------------------------------


def native_chunk(
    kernel, i: int, p: Pass, B: np.ndarray, lo: int, hi: int, origin: int = 0,
    addr: int | None = None,
) -> None:
    """Run pass ``i`` of ``kernel`` over global ``[lo, hi)`` of ``B``.

    ``B`` follows :func:`numpy_chunk`'s geometry.  Tiles go through the
    batched entry point (full extent only); a row band keeps the full row
    stride, so the plain entry point runs on a base shifted back by
    ``origin`` rows; a column or group band narrower than the view goes
    through the band-rebased entry point.  A scratch failure raises
    :class:`~repro.native.kernel.NativeScratchError` (a ``MemoryError``)
    before anything moved — its ``tile`` says which tiles completed.
    ``addr`` is ``B``'s address when the caller already has it.
    """
    if addr is None:
        addr = B.ctypes.data
    if B.ndim == 3:
        kernel.run_pass_batch(i, addr, B.shape[0])
    elif p.axis == "rows":
        kernel.run_pass(i, addr - origin * B.strides[0], lo, hi)
    elif origin == 0 and B.shape[1] == kernel.spec.n:
        kernel.run_pass(i, addr, lo, hi)
    else:
        kernel.run_pass_banded(i, addr, lo, hi, B.shape[1], origin)


# -- instrumentation -----------------------------------------------------------------


@contextmanager
def pass_point(prefix: str, p: Pass, *, size: int = 0, san=None, **attrs):
    """The one span-and-metric point of a pass.

    Opens a ``pass.<label>`` span (when tracing) and records the
    ``<prefix>.pass.<label>`` timer (when metrics are on); the label is the
    body kind for the plan entry points and the pass name for the parallel
    and streamed ones.  With ``san`` the pass also runs inside the
    sanitizer's pass scope over ``size`` elements.
    """
    label = p.kind if prefix in _KIND_LABELLED else p.name
    scope = (
        san.pass_scope(
            f"{prefix}.{label}", size,
            full_coverage=p.kind != "rotate_groups",
        )
        if san is not None else NULL_CM
    )
    with scope:
        if tracer.enabled:
            with tracer.span(f"pass.{label}", **attrs) as sp:
                yield
            if registry.enabled:
                registry.observe(f"{prefix}.pass.{label}", sp.duration_s)
        elif registry.enabled:
            t0 = perf_counter()
            yield
            registry.observe(f"{prefix}.pass.{label}", perf_counter() - t0)
        else:
            yield


def chunk_body(
    plan: "TransposePlan", B: np.ndarray, i: int, *, origin: int = 0,
    kernel=None, red=None, san=None, backend: str = "threads",
):
    """A ``parallel_for`` body running pass ``i`` of ``plan`` on ``B``.

    The body receives band-local chunk slices (``origin`` shifts them to
    global iterations) and wraps each chunk in one ``worker.chunk`` span
    carrying the rectangle it owns.
    """
    p = plan.passes[i]
    dec = plan.dec
    itemsize = B.itemsize

    def body(local: slice) -> None:
        lo, hi = origin + local.start, origin + local.stop
        if not tracer.enabled:
            plan.run_chunk(B, i, lo, hi, origin, kernel=kernel, red=red, san=san)
            return
        r0, r1, c0, c1 = chunk_rect(dec, p, lo, hi)
        with tracer.span(
            "worker.chunk", stage=p.name, r0=r0, r1=r1, c0=c0, c1=c1,
            bytes=2 * (r1 - r0) * (c1 - c0) * itemsize, backend=backend,
        ):
            plan.run_chunk(B, i, lo, hi, origin, kernel=kernel, red=red, san=san)

    return body


# -- the engine bound to one decomposition -------------------------------------------


def matrix_view(buf: np.ndarray, m: int, n: int) -> np.ndarray:
    """The ``m x n`` row-major view of a flat, contiguous, writeable
    buffer (a compiled kernel must never be handed read-only memory)."""
    if not buf.flags["C_CONTIGUOUS"]:
        raise ValueError(NONCONTIGUOUS)
    if not buf.flags.writeable:
        raise ValueError(READ_ONLY)
    if buf.ndim != 1 or buf.shape[0] != m * n:
        raise ValueError(f"buffer must be flat with {m * n} elements")
    return buf.reshape(m, n)


def view_plan(M: int, N: int, algorithm: str, dtype) -> "TransposePlan":
    """The cached plan whose executing view is the row-major ``M x N``
    matrix (C2R runs on the view itself, R2C on the swapped dimensions)."""
    from ..runtime import plan_cache

    if algorithm == "c2r":
        return plan_cache.get_single_plan(M, N, "C", "c2r", dtype)
    return plan_cache.get_single_plan(N, M, "C", "r2c", dtype)


class TransposePlan:
    """A reusable, shape-specialized in-place transpose.

    Parameters
    ----------
    m, n:
        Logical matrix dimensions before the transpose.
    order:
        ``"C"`` or ``"F"`` storage order of the buffers this plan will see.
    algorithm:
        ``"auto"``, ``"c2r"`` or ``"r2c"``.

    The plan captures the direction decision (C2R vs R2C, honoring the
    paper's ``m > n`` heuristic), the dimension/order folding of Theorems
    1-2-7 and the pass schedule.  :meth:`execute` takes one matrix or a
    batch of them (a leading extent: a single matrix is a batch of 1).

    Notes
    -----
    The plan's state is ``O(1)``.  Its first numpy execute builds ``int32``
    gather maps (``8`` bytes per element), charged to the plan cache and
    reported by ``scratch_bytes``; native executes never build them.
    """

    def __init__(self, m: int, n: int, order: str = "C", algorithm: str = "auto"):
        if order not in ("C", "F"):
            raise ValueError(f"unknown order {order!r}")
        if algorithm == "auto":
            algorithm = choose_algorithm(m, n)
        if algorithm not in ORDERS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        self.m, self.n, self.order, self.algorithm = m, n, order, algorithm
        vm, vn = (m, n) if order == "C" else (n, m)
        # Theorem 7: C2R runs on the (vm, vn) view, R2C on (vn, vm).
        self.dec = Decomposition.of(vm, vn) if algorithm == "c2r" else Decomposition.of(vn, vm)
        self.passes = schedule(self.dec, algorithm)
        self._maps: dict[str, np.ndarray] | None = None
        self._maps_lock = threading.Lock()

    @property
    def scratch_bytes(self) -> int:
        """Bytes held by the lazily built numpy gather maps (0 until the
        first numpy execute)."""
        maps = self._maps
        return sum(a.nbytes for a in maps.values()) if maps else 0

    def _numpy_maps(self) -> dict[str, np.ndarray]:
        """The gather maps of the whole-matrix numpy path, built once and
        charged to this plan's plan-cache entry."""
        maps = self._maps
        if maps is not None:
            return maps
        with self._maps_lock:
            maps = self._maps
            if maps is not None:
                return maps
            maps = {
                p.name: _gather_map(self.dec, p.name)
                for p in self.passes
                if p.kind != "rotate_groups"
            }
            self._maps = maps
        from ..runtime import plan_cache

        # Outside the lock: the charge can evict this plan, whose hook
        # drops the maps again (this call still holds its reference).
        plan_cache.charge(self, sum(a.nbytes for a in maps.values()))
        return maps

    def on_cache_evict(self) -> None:
        """Plan-cache eviction hook: drop the numpy maps and unlink any
        compiled kernel artifacts."""
        self._maps = None
        native().release_plan_kernels(self)

    def kernel(self, nelems: int, itemsize: int, backend: str | None = None):
        """The compiled kernel to run ``nelems`` elements of ``itemsize``
        bytes with, or ``None`` for numpy.

        ``None``/``"auto"`` engage it opportunistically (toolchain present,
        buffer at least ``REPRO_NATIVE_MIN_ELEMS``, shape eligible);
        ``"native"`` asks unconditionally and reports every reason it could
        not be honored (fallback metric + one-time warning) — it still
        returns ``None`` rather than raising; ``"numpy"`` never compiles.
        """
        if backend == "numpy":
            return None
        nat = native()
        if not nat.enabled():
            if backend == "native":
                nat.record_fallback("disabled by REPRO_NATIVE=0")
            return None
        if backend != "native" and nelems < nat.min_elems():
            return None
        return nat.kernel_for_plan(self, itemsize)

    def run_chunk(
        self, B: np.ndarray, i: int, lo: int, hi: int, origin: int = 0, *,
        kernel=None, index=None, red=None, san=None,
    ) -> None:
        """Pass ``i`` over global ``[lo, hi)`` of ``B`` (geometry as in
        :func:`numpy_chunk`): natively when ``kernel`` is given, with numpy
        redoing exactly the chunk when the kernel's scratch allocation
        fails (nothing moved), else on numpy."""
        p = self.passes[i]
        if kernel is not None:
            try:
                native_chunk(kernel, i, p, B, lo, hi, origin)
                return
            except MemoryError:
                native().record_fallback(
                    f"scratch allocation failed in pass {p.name}"
                )
        numpy_chunk(B, self.dec, p, lo, hi, origin, index=index, red=red, san=san)

    def execute(self, buf: np.ndarray, *, backend: str | None = None) -> np.ndarray:
        """Transpose every ``m x n`` matrix of ``buf`` in place; returns ``buf``.

        ``buf`` is contiguous and holds ``k >= 1`` stacked matrices: flat
        with ``k * m * n`` elements, ``(k, m * n)`` or ``(k, m, n)``.  After
        the call each holds its ``n x m`` transpose in the plan's storage
        order.  A flat single matrix records ``plan.pass.*`` timers, any
        other batch ``batched.pass.*``; each pass is one ``pass.*`` span.

        ``backend``: ``None``/``"auto"`` use a compiled native kernel when
        one is (or can be made) available and the buffer is large enough,
        ``"native"`` insists on it (falling back to numpy with a warning
        when impossible), ``"numpy"`` forces the numpy gathers.  The
        sanitizer always runs on numpy — shadow-memory checking needs to
        see every index.
        """
        if backend not in _BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        if not buf.flags["C_CONTIGUOUS"]:
            raise ValueError(NONCONTIGUOUS)
        if not buf.flags.writeable:
            raise ValueError(READ_ONLY)
        mn = self.m * self.n
        if buf.ndim == 1 and buf.size % mn == 0:  # repro-lint: allow(raw-divmod) O(1) batch extent
            k = buf.size // mn  # repro-lint: allow(raw-divmod) O(1) batch extent
        elif buf.ndim == 2 and buf.shape[1] == mn:
            k = buf.shape[0]
        elif buf.ndim == 3 and buf.shape[1] * buf.shape[2] == mn:
            k = buf.shape[0]
        else:
            raise ValueError(
                f"cannot interpret {buf.shape} ({buf.size} elements) as "
                f"{self.m}x{self.n} matrices"
            )
        V = buf.reshape(k, self.dec.m, self.dec.n)
        san = active_sanitizer()
        if san is not None:
            if backend == "native":
                native().record_fallback("sanitizer active")
            kernel = None
        else:
            kernel = self.kernel(buf.size, buf.dtype.itemsize, backend)
        maps = self._numpy_maps() if kernel is None else {}
        prefix = "plan" if buf.ndim == 1 and k == 1 else "batched"
        B = V[0] if k == 1 else V
        addr = B.ctypes.data
        ran_native = kernel is not None
        for i, p in enumerate(self.passes):
            with pass_point(
                prefix, p, size=buf.size, san=san,
                m=self.dec.m, n=self.dec.n, batch=k, algorithm=self.algorithm,
                bytes=2 * buf.nbytes,
                backend="native" if kernel is not None else "numpy",
            ):
                done = 0  # leading tiles the kernel finished
                if kernel is not None:
                    try:
                        native_chunk(kernel, i, p, B, 0, p.extent, addr=addr)
                        done = k
                    except MemoryError as exc:
                        # Positional: tiles before exc.tile finished this
                        # pass, nothing else moved; numpy owns the rest of
                        # the call from exactly there.
                        native().record_fallback(
                            f"scratch allocation failed at pass {i}"
                        )
                        kernel = None
                        done = getattr(exc, "tile", 0)
                if done < k:
                    self.run_chunk(
                        B if done == 0 else V[done:], i, 0, p.extent,
                        index=maps.get(p.name), san=san,
                    )
        if registry.enabled:
            if ran_native:
                registry.inc("native.calls")
            registry.inc("bytes_moved", 2 * len(self.passes) * buf.nbytes)
            registry.inc("elements_touched", len(self.passes) * buf.size)
        return buf

    def __repr__(self) -> str:
        return (
            f"TransposePlan(m={self.m}, n={self.n}, order={self.order!r}, "
            f"algorithm={self.algorithm!r})"
        )
