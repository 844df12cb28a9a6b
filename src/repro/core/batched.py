"""Batched in-place transposition.

Data-layout pipelines rarely transpose one matrix: they transpose a batch
of same-shaped matrices (attention heads, image tiles, per-timestep state).
Because the decomposition depends only on the shape, a batch is just a
leading extent of the one :class:`~repro.core.plan.TransposePlan`: every
pass applies to all matrices at once (3-D gathers on numpy, the batched
entry points natively), so the batch dimension rides along for free.
:data:`BatchedTransposePlan` remains as the public name of that class.

The buffer layout is the standard batched one: ``k`` matrices of ``m x n``
stored consecutively (``buf[b * m * n : (b + 1) * m * n]`` is matrix ``b``).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..runtime.metrics import registry
from ..trace.spans import tracer
from .engine import NULL_CM, TransposePlan

__all__ = [
    "BatchedTransposePlan",
    "batched_transpose_inplace",
    "validate_batch_member",
]


def validate_batch_member(
    buf: np.ndarray,
    m: int,
    n: int,
    dtype: np.dtype | None = None,
    *,
    count: int = 1,
    require_writeable: bool = True,
) -> None:
    """Check one request buffer is safe to coalesce into an ``m x n`` batch.

    The batched gather path shares a single staging buffer across requests,
    so every member must be exactly ``count`` stacked ``m * n``-element
    matrices with the batch's dtype; a strided view or a byte-swapped/
    foreign dtype would be silently *copied* into the batch and the
    caller's buffer left untouched — the same latent bug class the PR-1
    contiguity guards close for the single-matrix paths.  Raises
    :class:`ValueError` naming the offending property instead.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if buf.ndim not in (1, 2):
        raise ValueError(
            f"batch member must be a flat or 2-D array, got {buf.ndim}-D"
        )
    if buf.size != count * m * n:
        raise ValueError(
            f"batch member has {buf.size} elements; {count} stacked "
            f"{m}x{n} matrices need {count * m * n}"
        )
    if buf.ndim == 2 and buf.shape not in ((m, n), (count, m * n)):
        raise ValueError(
            f"batch member shape {buf.shape} matches neither ({m}, {n}) "
            f"nor ({count}, {m * n})"
        )
    if not buf.flags["C_CONTIGUOUS"]:
        raise ValueError(
            "batch member must be C-contiguous (a strided view would be "
            "silently copied into the batch, not transposed in place)"
        )
    if require_writeable and not buf.flags.writeable:
        raise ValueError(
            "batch member is read-only; in-place transposition must be "
            "able to write the result back"
        )
    if dtype is not None and buf.dtype != np.dtype(dtype):
        raise ValueError(
            f"batch member dtype {buf.dtype} does not match the batch "
            f"dtype {np.dtype(dtype)} (mixed-dtype groups cannot share a "
            "staging buffer without a silent conversion copy)"
        )


#: The batched plan is the same engine: a batch is a leading extent.
BatchedTransposePlan = TransposePlan


def batched_transpose_inplace(
    buf: np.ndarray,
    m: int,
    n: int,
    order: str = "C",
    *,
    algorithm: str = "auto",
    use_plan_cache: bool = True,
    backend: str | None = None,
) -> np.ndarray:
    """One-shot batched transpose (see :class:`BatchedTransposePlan`).

    After the call, every ``m x n`` matrix in the batch holds its ``n x m``
    transpose in the same storage order.  Repeated calls on the same
    ``(m, n, order, dtype)`` — any batch size — reuse one plan through the process-wide
    :mod:`repro.runtime.plan_cache` (disable per call with
    ``use_plan_cache=False``, or globally via the cache's own opt-out); each
    call is timed into :mod:`repro.runtime.metrics`.  ``backend`` follows
    :meth:`BatchedTransposePlan.execute`.
    """
    mn = m * n
    if use_plan_cache and mn and buf.size % mn == 0:
        from ..runtime import plan_cache

        plan = plan_cache.get_batched_plan(
            m, n, buf.size // mn, order, algorithm, buf.dtype
        )
    else:
        plan = TransposePlan(m, n, order, algorithm)
    t0 = perf_counter() if registry.enabled else 0.0
    with tracer.span(
        "op.batched_transpose_inplace", m=m, n=n,
        batch=buf.size // mn if mn else 0, order=order,
        algorithm=plan.algorithm, dtype=str(buf.dtype),
    ) if tracer.enabled else NULL_CM:
        plan.execute(buf, backend=backend)
    if registry.enabled:
        registry.record_call("batched_transpose_inplace", perf_counter() - t0)
    return buf
