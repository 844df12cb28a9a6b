"""Bandwidth profiler: per-pass achieved GB/s from spans × bytes moved.

Section 7 of the paper evaluates the decomposition by *achieved bandwidth
per pass* (pre-rotate, row shuffle, column rotate, static row permute) and
by the fraction of memcpy bandwidth each pass reaches.  This module
reproduces that breakdown from a single traced run: every ``pass.*`` /
``worker.*`` / ``baseline.*`` span carries a ``bytes`` attribute (the
2x read+write volume the pass moves against the main array, the Theorem 6
accounting shared with :class:`repro.core.steps.WorkCounter`), so joining
span durations with those byte counts yields achieved GB/s directly —
no model, no estimate, just ``bytes / seconds``.

Every repeat of a shape runs on one buffer, and the profile records that
buffer's address mod 64 (``addr_mod_64``): the native column passes peel a
head stripe to bring later stripes onto cache lines, so a per-pass figure
is a measurement at one alignment and names it.

The memcpy normalization follows Eq. 37's convention: a same-size
``np.copyto`` reads and writes every element once, so its bandwidth
(``2 * nbytes / t``) is the machine ceiling any in-place pass is measured
against.  ``memcpy_frac`` near 1.0 means the pass is memory-bound and
running at speed; a low fraction points at the pass to optimize next.

Core imports happen inside the functions so ``repro.trace`` itself stays
importable before the package finishes initializing (the same lazy-binding
rule the metrics registry follows).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable

from .spans import SpanRecord, tracer

__all__ = [
    "PassProfile",
    "ShapeProfile",
    "aggregate_passes",
    "measure_memcpy_gbps",
    "profile_shape",
    "profile_shapes",
    "format_profile_table",
]


@dataclass(frozen=True)
class PassProfile:
    """Aggregated achieved bandwidth for one span name."""

    name: str
    calls: int
    seconds: float
    bytes: int
    gbps: float
    memcpy_frac: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "seconds": self.seconds,
            "bytes": self.bytes,
            "gbps": self.gbps,
            "memcpy_frac": self.memcpy_frac,
        }


@dataclass(frozen=True)
class ShapeProfile:
    """The per-pass breakdown of one traced shape.

    ``backend`` records the engine that actually executed the passes
    (``"native"`` when any pass span was marked native, else ``"numpy"``) —
    a bandwidth number is meaningless without knowing which implementation
    produced it.  ``addr_mod_64`` is the profiled buffer's address modulo
    a cache line, the other condition the figures were measured under.
    """

    m: int
    n: int
    threads: int
    memcpy_gbps: float
    passes: tuple[PassProfile, ...]
    backend: str = "numpy"
    addr_mod_64: int = 0

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "threads": self.threads,
            "backend": self.backend,
            "addr_mod_64": self.addr_mod_64,
            "memcpy_gbps": self.memcpy_gbps,
            "passes": [p.as_dict() for p in self.passes],
        }


def aggregate_passes(
    spans: Iterable[SpanRecord],
    *,
    prefixes: tuple[str, ...] = ("pass.",),
    memcpy_gbps: float = 0.0,
) -> list[PassProfile]:
    """Join span durations with their ``bytes`` attributes, per span name.

    Only spans whose name starts with one of ``prefixes`` and which carry a
    ``bytes`` attribute participate (instant events and unannotated spans
    are skipped).  Results are ordered by first appearance, matching pass
    execution order.
    """
    order: list[str] = []
    acc: dict[str, list] = {}
    for s in spans:
        if s.is_event or "bytes" not in s.attrs:
            continue
        if not any(s.name.startswith(p) for p in prefixes):
            continue
        if s.name not in acc:
            acc[s.name] = [0, 0.0, 0]
            order.append(s.name)
        entry = acc[s.name]
        entry[0] += 1
        entry[1] += s.duration_s
        entry[2] += int(s.attrs["bytes"])
    out = []
    for name in order:
        calls, seconds, nbytes = acc[name]
        gbps = nbytes / seconds / 1e9 if seconds > 0 else 0.0
        frac = gbps / memcpy_gbps if memcpy_gbps > 0 else 0.0
        out.append(PassProfile(name, calls, seconds, nbytes, gbps, frac))
    return out


def measure_memcpy_gbps(nbytes: int, *, repeats: int = 5) -> float:
    """Best-of memcpy bandwidth for a buffer of ``nbytes`` (Eq. 37 convention:
    one read + one write per element, so ``2 * nbytes / t``)."""
    import numpy as np

    elems = max(nbytes // 8, 1)
    src = np.arange(elems, dtype=np.float64)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # warm-up: fault pages in
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        np.copyto(dst, src)
        best = min(best, perf_counter() - t0)
    return 2 * src.nbytes / best / 1e9


def profile_shape(
    m: int,
    n: int,
    *,
    dtype="float64",
    repeats: int = 3,
    threads: int = 1,
    algorithm: str = "auto",
    backend: str | None = None,
) -> ShapeProfile:
    """Trace ``repeats`` transposes of one shape and aggregate per pass.

    ``threads=1`` profiles the plan-cached fast path (one ``pass.*`` span
    per decomposition pass); ``threads>1`` profiles the parallel transposer
    (its ``pass.*`` spans aggregate the worker chunks beneath them).  The
    tracer's previous state (enabled flag and buffered records) is restored
    on return, so profiling composes with an ongoing ``repro trace`` run.

    ``backend`` forwards to the executors (``None``/``"auto"``/``"native"``/
    ``"numpy"``); the *reported* backend in the result reflects what
    actually ran — native spans self-identify, so a fallback shows up as
    ``backend="numpy"`` no matter what was requested.
    """
    import numpy as np

    from ..core.transpose import transpose_inplace
    from ..parallel.cpu import ParallelTranspose

    dt = np.dtype(dtype)
    proto = np.arange(m * n, dtype=dt)
    buf = np.empty_like(proto)
    memcpy_gbps = measure_memcpy_gbps(proto.nbytes)

    was_enabled = tracer.enabled
    held = tracer.drain()
    tracer.enabled = True
    try:
        if threads > 1:
            native = "off" if backend == "numpy" else "auto"
            with ParallelTranspose(threads, native=native) as pt:
                for _ in range(repeats):
                    np.copyto(buf, proto)
                    pt.transpose_inplace(buf, m, n)
        else:
            for _ in range(repeats):
                np.copyto(buf, proto)
                transpose_inplace(
                    buf, m, n, algorithm=algorithm, backend=backend
                )
        spans = tracer.drain()
    finally:
        tracer.enabled = was_enabled
        for rec in held:
            tracer._append(rec)

    ran_native = any(
        not s.is_event
        and s.name.startswith("pass.")
        and s.attrs.get("backend") == "native"
        for s in spans
    )
    passes = aggregate_passes(spans, memcpy_gbps=memcpy_gbps)
    return ShapeProfile(
        m, n, threads, memcpy_gbps, tuple(passes),
        "native" if ran_native else "numpy",
        buf.ctypes.data % 64,
    )


def profile_shapes(
    shapes: Iterable[tuple[int, int]],
    *,
    dtype="float64",
    repeats: int = 3,
    threads: int = 1,
    algorithm: str = "auto",
    backend: str | None = None,
) -> list[ShapeProfile]:
    """Profile a shape sweep (the ``repro profile`` CLI backend)."""
    return [
        profile_shape(m, n, dtype=dtype, repeats=repeats, threads=threads,
                      algorithm=algorithm, backend=backend)
        for m, n in shapes
    ]


def format_profile_table(profiles: Iterable[ShapeProfile]) -> str:
    """The ``repro profile`` table: per-pass GB/s and memcpy fraction, and
    on each shape's ceiling row the buffer's address mod 64."""
    lines = [
        f"{'shape':>12}  {'pass':<26} {'calls':>5} {'ms':>9} "
        f"{'GB/s':>8} {'x memcpy':>9} {'addr%64':>7}"
    ]
    for prof in profiles:
        label = f"{prof.m}x{prof.n}"
        ceiling = f"(memcpy ceiling, {prof.backend})"
        lines.append(
            f"{label:>12}  {ceiling:<26} {'':>5} {'':>9} "
            f"{prof.memcpy_gbps:8.2f} {'1.000':>9} {prof.addr_mod_64:>7}"
        )
        for p in prof.passes:
            lines.append(
                f"{'':>12}  {p.name:<26} {p.calls:>5} "
                f"{p.seconds * 1e3:9.3f} {p.gbps:8.2f} {p.memcpy_frac:9.3f}"
            )
    return "\n".join(lines)
