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
* the one numpy chunk body (:func:`numpy_chunk`), in global coordinates
  against a buffer that may hold only a band of the view, walking any
  chunk in sub-bands of at most :data:`L` rows or columns;
* one shadow-memory footprint recorder for the sanitizer (:func:`_record`);
* native dispatch (:func:`native_chunk`): full-width, shifted-base row
  bands, band-rebased column entry points and batched tiles, each with a
  positional scratch-failure contract;
* one span-and-metric point per pass (:func:`pass_point`).

:class:`TransposePlan` is the engine bound to one decomposition.  Its state
is ``O(1)``: a compiled kernel needs only the decomposition constants, and
the numpy body builds each sub-band's index block from ``O(max(m, n))``
tables made once per chunk (:func:`index_tables`, :func:`index_block`).
Every path, native or numpy, so keeps the paper's ``O(max(m, n))``
auxiliary-space bound, and no plan caches index state.

The lazily bound subsystems (:func:`native`, :func:`racecheck`) live here
and nowhere else; they are bound on first use so importing the core
package never drags in the compiler or the analysis layer.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..runtime.metrics import registry
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
    "L",
    "index_tables",
    "index_block",
    "numpy_chunk",
    "native_chunk",
    "pass_point",
    "chunk_body",
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

#: the most rows, columns or in-group columns one numpy sub-band covers: a
#: chunk's index blocks and gather temporaries are ``O(L * max(m, n))``
#: elements whatever its extent
L = 64


def index_tables(dec: Decomposition, p: Pass) -> tuple[np.ndarray, ...]:
    """The ``O(max(m, n))`` tables every index block of pass ``p`` is
    built from, once per chunk.

    Row passes take the tables of Eq. 24
    (:func:`~repro.core.equations.dprime_tables`); rotations take each
    column's group ``j // b`` (Eqs. 23 and 36).  Column passes take the
    static row permutation ``q`` (Eq. 33), or ``q^{-1}`` (Eq. 34) for the
    inverse shuffle, and ``j mod m``: the column shuffle is the column
    rotation ``p_j`` (Eq. 32) composed with ``q``.
    """
    if p.axis == "rows":
        return eq.dprime_tables(dec)
    if p.axis == "groups":
        return (eq.rotate_r_v(dec, 0, np.arange(dec.n, dtype=np.int64)),)
    i = np.arange(dec.m, dtype=np.int64)
    if p.name == "column_shuffle":
        q = eq.permute_q_v(dec, i)
    else:
        q = eq.permute_q_inverse_v(dec, i)
    return q, eq.rotate_p_v(dec, 0, np.arange(dec.n, dtype=np.int64))


def _wrap(x: np.ndarray, n: int) -> np.ndarray:
    """``x mod n``, in place, for ``int64`` ``x`` in ``[0, 2n)``: below
    ``n``, ``x - n`` wraps to a huge unsigned value, so the unsigned
    minimum keeps ``x``; from ``n`` on it takes ``x - n``.  Branch-free,
    unlike a masked subtraction."""
    u = x.view(np.uint64)
    np.minimum(u, u - np.uint64(n), out=u)
    return x


def index_block(
    dec: Decomposition, p: Pass, tables: tuple[np.ndarray, ...], lo: int, hi: int,
) -> np.ndarray:
    """Index block of pass ``p`` for rows or columns ``[lo, hi)``, from its
    :func:`index_tables` by adds, unsigned minima and table gathers alone.

    Row passes return the ``(hi - lo, n)`` block of ``d'_i(j)`` (Eq. 24):
    the R2C row shuffle gathers through it, the C2R row shuffle scatters
    through it (the scatter form of Eq. 31's gather).  Column passes and
    rotations return the ``(m, hi - lo)`` block of source rows:
    ``(q(i) + j) mod m`` (Eq. 26), ``q^{-1}((i - j) mod m)`` for the fused
    inverse, ``(i + j // b) mod m`` and ``(i - j // b) mod m`` for the pre-
    and post-rotation (Eqs. 23 and 36).
    """
    m = dec.m
    if p.axis == "rows":
        u, w = tables
        r = u[np.arange(lo, hi, dtype=np.int64)[:, None] + np.arange(dec.c)]
        d = np.repeat(r, dec.b, axis=1)
        d += w
        return _wrap(d, dec.n)
    i = np.arange(m, dtype=np.int64)[:, None]
    if p.name == "pre_rotate":  # Eq. 23: (i + j // b) mod m
        return _wrap(i + tables[0][lo:hi], m)
    if p.name == "post_rotate":  # Eq. 36: (i - j // b) mod m
        return _wrap(i + (m - tables[0][lo:hi]), m)
    q, jm = tables
    if p.name == "column_shuffle":
        return _wrap(q[:, None] + jm[lo:hi], m)
    return q[_wrap(i + (m - jm[lo:hi]), m)]


def _record(san, dec: Decomposition, p: Pass, lo: int, hi: int, index, tiles: int) -> None:
    """Shadow-memory footprint of one sub-band — rows or columns
    ``[lo, hi)`` — before it moves: the flat elements it reads and writes
    (through the index block the pass moves data with; a roll has none),
    in global coordinates, once per tile."""
    n = dec.n
    if p.axis == "rows":
        i = np.arange(lo, hi, dtype=np.int64)[:, None] * n
        row, via = i + np.arange(n, dtype=np.int64), i + index
        reads, writes = (row, via) if p.name == "row_shuffle" else (via, row)
        where = f"rows[{lo}:{hi}]"
    else:
        j = np.arange(lo, hi, dtype=np.int64)
        writes = np.arange(dec.m, dtype=np.int64)[:, None] * n + j
        reads = writes if index is None else index * n + j
        where = f"cols[{lo}:{hi}]"
    size = dec.m * n
    for t in range(tiles):
        san.record(
            reads=t * size + reads, writes=t * size + writes,
            where=where if tiles == 1 else f"tile {t} {where}",
        )


def numpy_chunk(
    B: np.ndarray,
    dec: Decomposition,
    p: Pass,
    lo: int,
    hi: int,
    origin: int = 0,
    *,
    san=None,
) -> None:
    """Run pass ``p`` over global iterations ``[lo, hi)`` of ``B``, in place.

    ``B`` is the contiguous executing view (``(M, N)``, or ``(k, M, N)``
    tiles that the pass permutes alike) or a contiguous band of it: rows
    ``[origin, ...)`` for a row pass, columns ``[origin, ...)`` for a
    column pass, column groups ``[origin, ...)`` for a rotation.  Every
    chunk reads only its own rows or columns, so a band copy sees exactly
    the data the chunk needs.

    The chunk runs in sub-bands of at most :data:`L` rows or columns (a
    rotation's groups count as their columns), each moved through flat
    indices into ``B`` from its :func:`index_block`.  A rotation sub-band
    inside one group is a plain roll of its rows instead (Lemma 1: the
    group shares one rotation amount).  Auxiliary space is therefore
    ``O(L * max(m, n))`` per tile.  With ``san`` each sub-band's footprint
    is recorded before it moves.
    """
    tiles = B.shape[0] if B.ndim == 3 else 1
    if p.axis == "groups":  # a chunk of groups is a band of their columns
        lo, hi, origin = lo * dec.b, hi * dec.b, origin * dec.b
    tables = index_tables(dec, p)
    N = B.shape[-1]
    for s in range(lo, hi, L):
        e = min(s + L, hi)
        local = slice(s - origin, e - origin)
        if p.axis == "groups" and tables[0][s] == tables[0][e - 1]:
            # one group, so one rotation amount (Lemma 1): a plain row roll,
            # two block copies with no index block to build or gather
            # through, and nothing at all for a zero amount
            g = int(tables[0][s])
            if g:
                if san is not None:
                    _record(san, dec, p, s, e, None, tiles)
                shift = -g if p.name == "pre_rotate" else g
                B[..., local] = np.roll(B[..., local], shift, axis=-2)
            continue
        index = index_block(dec, p, tables, s, e)
        if san is not None:
            _record(san, dec, p, s, e, index, tiles)
        # flat indices into B: the block's own rows or columns, then tiles
        at = np.arange(local.start, local.stop, dtype=np.int64)
        if p.axis == "rows":
            index += at[:, None] * N
        else:
            index *= N
            index += at
        if tiles > 1:
            index = index + np.arange(0, B.size, B[0].size, dtype=np.int64)[:, None, None]
        if p.axis != "rows":
            B[..., local] = np.take(B, index)
        elif p.name == "row_shuffle":  # scatter through d'
            np.put(B, index, B[..., local, :].copy())
        else:
            B[..., local, :] = np.take(B, index)


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
    kernel=None, san=None, backend: str = "threads",
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
            plan.run_chunk(B, i, lo, hi, origin, kernel=kernel, san=san)
            return
        r0, r1, c0, c1 = chunk_rect(dec, p, lo, hi)
        with tracer.span(
            "worker.chunk", stage=p.name, r0=r0, r1=r1, c0=c0, c1=c1,
            bytes=2 * (r1 - r0) * (c1 - c0) * itemsize, backend=backend,
        ):
            plan.run_chunk(B, i, lo, hi, origin, kernel=kernel, san=san)

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
    The plan's state is ``O(1)``: native and numpy executes alike build
    their index state per call, in ``O(max(m, n))`` tables and bounded
    sub-bands, and keep none of it.
    """

    #: bytes of index state a plan holds between executes: none
    scratch_bytes = 0

    def __init__(self, m: int, n: int, order: str = "C", algorithm: str = "auto"):
        if m <= 0 or n <= 0:
            raise ValueError(f"matrix dimensions must be positive, got {m} x {n}")
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

    def on_cache_evict(self) -> None:
        """Plan-cache eviction hook: unlink any compiled kernel artifacts."""
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
        kernel=None, san=None,
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
        numpy_chunk(B, self.dec, p, lo, hi, origin, san=san)

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
                    self.run_chunk(B if done == 0 else V[done:], i, 0, p.extent, san=san)
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
