"""Public entry points for in-place matrix transposition.

This module stitches the C2R and R2C kernels into the user-facing API:

* :func:`transpose_inplace` — transpose a linear buffer holding an ``m x n``
  matrix in row- or column-major order, selecting C2R versus R2C with the
  paper's heuristic (Section 5.2: *"if m > n, use the C2R algorithm,
  otherwise use the R2C algorithm"*) or by explicit request.
* :func:`transpose` — convenience wrapper for 2-D numpy arrays: transposes
  the underlying buffer in place and returns a reshaped view of the same
  memory with transposed dimensions.

How the direction choice works
------------------------------
For a row-major buffer, the C2R permutation *is* the transposition
(Theorem 1); running R2C instead requires swapping the dimensions first
(Theorem 2), i.e. the buffer is viewed as ``n x m`` during the passes.  For
column-major buffers the roles of C2R and R2C swap.  Theorem 7 guarantees
that the row-major view used internally by the kernels is legal regardless of
the data's native order.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter

import numpy as np

from ..runtime.metrics import registry
from ..trace.spans import tracer
from .c2r import c2r_transpose
from .r2c import r2c_transpose
from .steps import WorkCounter

__all__ = ["transpose_inplace", "transpose", "choose_algorithm"]

_ALGORITHMS = ("auto", "c2r", "r2c")
_ORDERS = ("C", "F")

#: reusable stateless no-op context manager for untraced paths
_NULL_CM = nullcontext()


def choose_algorithm(m: int, n: int) -> str:
    """The paper's Section 5.2 heuristic: C2R when ``m > n``, else R2C.

    C2R's row shuffle operates on rows of length ``n``; when ``n`` is the
    smaller dimension a whole row fits in on-chip memory (the fast band of
    Fig. 4).  R2C's analogous band appears when ``m`` is small (Fig. 5).
    """
    return "c2r" if m > n else "r2c"


def transpose_inplace(
    buf: np.ndarray,
    m: int,
    n: int,
    order: str = "C",
    *,
    algorithm: str = "auto",
    variant: str = "gather",
    aux: str = "blocked",
    counter: WorkCounter | None = None,
    use_plan_cache: bool | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """Transpose the ``m x n`` matrix stored in ``buf``, in place.

    Parameters
    ----------
    buf:
        Flat contiguous array of ``m * n`` elements.
    m, n:
        Logical matrix dimensions *before* the transpose.
    order:
        ``"C"`` (row-major) or ``"F"`` (column-major) storage of the matrix
        in ``buf``.  After the call ``buf`` holds the ``n x m`` transpose in
        the same storage order.
    algorithm:
        ``"auto"`` (paper heuristic), ``"c2r"`` or ``"r2c"``.
    variant, aux, counter:
        Forwarded to the kernels; see :mod:`repro.core.c2r`.
    use_plan_cache:
        The default fast path (``variant="gather"``, ``aux="blocked"``, no
        counter) executes through a :class:`~repro.core.plan.TransposePlan`
        held in the process-wide :mod:`repro.runtime.plan_cache`, so repeated
        same-shape calls reuse one plan and its compiled kernel.  Pass
        ``False`` to force per-call planning through the blocked kernels of
        :mod:`repro.core.c2r`; ``True`` on a non-default configuration
        raises (strict/scatter paths have no cached form).  The cached and
        uncached paths produce identical buffers (pinned by
        ``tests/runtime``).
    backend:
        Execution engine for the cached plan path (see
        :meth:`~repro.core.plan.TransposePlan.execute` and
        :mod:`repro.native`).  ``None``/``"auto"`` use a compiled per-plan C
        kernel when a toolchain is available and the buffer is large enough,
        falling back to the numpy gathers otherwise; ``"native"`` insists on
        the compiled kernel (numpy fallback with a ``RuntimeWarning`` and a
        ``native.fallback`` metric when impossible — never an error);
        ``"numpy"`` forces the numpy gathers.  Requesting ``"native"`` on a
        configuration with no cached-plan form (strict/scatter variants, a
        ``WorkCounter``, or ``use_plan_cache=False``) raises ``ValueError``
        because those paths have no compiled equivalent.  ``REPRO_NATIVE=0``
        disables auto-selection process-wide.

    Returns the same ``buf``.  Wall time per call is recorded into
    :mod:`repro.runtime.metrics` under ``transpose_inplace``.
    """
    if backend not in (None, "auto", "native", "numpy"):
        raise ValueError(f"unknown backend {backend!r}")
    if algorithm not in _ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected {_ALGORITHMS}")
    if order not in _ORDERS:
        raise ValueError(f"unknown order {order!r}; expected one of {_ORDERS}")
    if algorithm == "auto":
        algorithm = choose_algorithm(m, n)

    cacheable = variant == "gather" and aux == "blocked" and counter is None
    if use_plan_cache is None:
        use_plan_cache = cacheable
    elif use_plan_cache and not cacheable:
        raise ValueError(
            "use_plan_cache=True requires the default gather/blocked "
            "configuration with no WorkCounter"
        )
    if backend == "native" and not use_plan_cache:
        raise ValueError(
            "backend='native' requires the cached-plan path (default "
            "gather/blocked configuration, use_plan_cache not disabled); "
            "the strict/scatter kernels have no compiled equivalent"
        )

    t0 = perf_counter() if registry.enabled else 0.0

    if use_plan_cache:
        from ..runtime import plan_cache

        # TransposePlan folds order/algorithm exactly like the kernel path
        # below and runs the same passes, in bounded numpy sub-bands when
        # no compiled kernel runs them.  Guard contiguity here as the
        # kernels do: reshape of a strided view would silently copy
        # instead of permuting.
        if not buf.flags["C_CONTIGUOUS"]:
            raise ValueError(
                "in-place transposition requires a contiguous buffer "
                "(a non-contiguous view would be silently copied, not permuted)"
            )
        plan = plan_cache.get_single_plan(m, n, order, algorithm, buf.dtype)
        if tracer.enabled:
            with tracer.span(
                "op.transpose_inplace", m=m, n=n, order=order,
                algorithm=algorithm, cached=True, dtype=str(buf.dtype),
            ):
                plan.execute(buf, backend=backend)
        else:
            plan.execute(buf, backend=backend)
        if registry.enabled:
            registry.record_call("transpose_inplace", perf_counter() - t0)
        return buf

    # A column-major m x n buffer is byte-identical to a row-major n x m
    # buffer of the transposed matrix, so fold the order into a dimension
    # swap and treat everything as row-major below.
    vm, vn = (m, n) if order == "C" else (n, m)

    with tracer.span(
        "op.transpose_inplace", m=m, n=n, order=order, algorithm=algorithm,
        cached=False, variant=variant, aux=aux,
    ) if tracer.enabled else _NULL_CM:
        if algorithm == "c2r":
            # Theorem 1: C2R on the row-major (vm, vn) view transposes it.
            c2r_transpose(buf, vm, vn, variant=variant, aux=aux, counter=counter)
        else:
            # Theorem 2: R2C transposes a row-major array after swapping
            # dimensions, i.e. running the passes on the (vn, vm) view of the
            # same buffer.
            r2c_transpose(buf, vn, vm, variant=variant, aux=aux, counter=counter)
    if registry.enabled:
        registry.record_call("transpose_inplace", perf_counter() - t0)
    return buf


def transpose(
    A: np.ndarray,
    *,
    algorithm: str = "auto",
    variant: str = "gather",
    aux: str = "blocked",
) -> np.ndarray:
    """Transpose a 2-D contiguous numpy array in place.

    The array's own buffer is permuted; the returned array is a *view* of
    that same memory with transposed shape (no copy).  Works for C- and
    F-contiguous inputs.

    >>> import numpy as np
    >>> from repro.core.transpose import transpose
    >>> A = np.arange(12, dtype=np.float64).reshape(3, 4)
    >>> B = transpose(A)
    >>> B.shape
    (4, 3)
    >>> np.shares_memory(A, B)
    True
    """
    if A.ndim != 2:
        raise ValueError("transpose expects a 2-D array")
    m, n = A.shape
    if A.flags["C_CONTIGUOUS"]:
        order = "C"
    elif A.flags["F_CONTIGUOUS"]:
        order = "F"
    else:
        raise ValueError("transpose requires a contiguous array")
    flat = A.reshape(-1, order=order)
    transpose_inplace(
        flat, m, n, order, algorithm=algorithm, variant=variant, aux=aux
    )
    return flat.reshape(n, m, order=order)
