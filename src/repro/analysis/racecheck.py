"""Static race detection and the opt-in shadow-memory sanitizer.

Two layers, both centred on the same invariant: every parallel pass writes a
*static partition* of the matrix ("perfect load balancing due to the regular
structure", Section 1), so write-set disjointness is decidable from
``(m, n, n_threads)`` alone.

**Static layer** — :func:`check_schedule` reconstructs the exact chunk
footprints that :class:`~repro.parallel.cpu.ParallelTranspose` hands its
workers (the same :func:`~repro.parallel.partition.balanced_chunks` schedule
over the same pass structure) and proves, per pass:

* the chunks tile the iteration range exactly (no gap, no overlap),
* the per-chunk write rectangles are pairwise disjoint,
* the rectangles cover the whole matrix, and
* every chunk's reads stay inside its own rectangle, so no chunk can observe
  another chunk's in-flight writes.

:func:`check_mp_schedule` extends the same proof to the multiprocess
shared-memory backend by reconstructing the picklable task descriptors
``MpTranspose._run_pass`` ships (segment name, view dims, sub-range) and
checking descriptor consistency on top of the rectangle proof.
:func:`check_banded_schedule` proves banded (sub-range) schedules safe for
out-of-core execution: bands tile each pass's iteration range, per-band
chunks tile the band, and all band x chunk write rectangles are globally
disjoint and covering, so a band can be flushed before the next faults in.

**Runtime layer** — :class:`Sanitizer` is a shadow memory tracking one pass
at a time: each recorded write increments a per-element counter, each
recorded read checks the element has not already been written *this pass*
(gather passes read pre-pass state by contract — a read of an
already-written element is a read-after-clobber hazard).  At pass end every
element must have been written exactly once (for full-coverage passes).
Violations raise :class:`SanitizerError` carrying pass name, chunk
provenance and sample indices.  Enable with ``REPRO_SANITIZE=1`` or
:func:`enable`; the disabled path costs one attribute read at each hook.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..core.engine import chunk_rect, schedule
from ..core.indexing import Decomposition
from ..core.transpose import choose_algorithm
from ..parallel.partition import balanced_chunks

__all__ = [
    "Rect",
    "ChunkFootprint",
    "PassFootprints",
    "RaceReport",
    "BandedRaceReport",
    "MpTaskDescriptor",
    "schedule_footprints",
    "mp_schedule_footprints",
    "banded_footprints",
    "check_partition",
    "check_schedule",
    "check_mp_schedule",
    "check_banded_schedule",
    "SanitizerError",
    "Sanitizer",
    "sanitizer",
    "enable",
    "disable",
    "is_enabled",
]


# ---------------------------------------------------------------------------
# Static write-footprint analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rect:
    """A half-open rectangle ``[r0, r1) x [c0, c1)`` of matrix elements."""

    r0: int
    r1: int
    c0: int
    c1: int

    @property
    def area(self) -> int:
        return max(0, self.r1 - self.r0) * max(0, self.c1 - self.c0)

    def intersects(self, other: "Rect") -> bool:
        return (
            self.r0 < other.r1
            and other.r0 < self.r1
            and self.c0 < other.c1
            and other.c0 < self.c1
        )

    def contains(self, other: "Rect") -> bool:
        return (
            self.r0 <= other.r0
            and other.r1 <= self.r1
            and self.c0 <= other.c0
            and other.c1 <= self.c1
        )

    def as_dict(self) -> dict:
        return {"rows": [self.r0, self.r1], "cols": [self.c0, self.c1]}


@dataclass(frozen=True)
class ChunkFootprint:
    """One worker's read and write rectangles within a pass."""

    label: str
    writes: Rect
    reads: Rect


@dataclass(frozen=True)
class PassFootprints:
    """The full static schedule of one parallel pass."""

    name: str
    #: iteration-space extent handed to ``parallel_for``
    total: int
    chunks: tuple[ChunkFootprint, ...]


def _chunk_rects(
    dec: Decomposition, p, parts: int
) -> PassFootprints:
    """Footprints for pass ``p`` chunked ``parts`` ways over its axis.

    The rectangles are the engine's own chunk geometry
    (:func:`repro.core.engine.chunk_rect`): a row chunk covers whole rows,
    a column chunk whole columns, a group chunk the ``b`` columns of each
    of its column groups.
    """
    chunks = []
    for ch in balanced_chunks(p.extent, parts):
        rect = Rect(*chunk_rect(dec, p, ch.start, ch.stop))
        # Every pass is a gather confined to its own rows/columns: reads and
        # writes share the rectangle.  (The per-element gather indices stay
        # in range by the bijectivity certificates of analysis.algebra.)
        chunks.append(
            ChunkFootprint(f"{p.axis}[{ch.start}:{ch.stop}]", rect, rect)
        )
    return PassFootprints(name=p.name, total=p.extent, chunks=tuple(chunks))


def schedule_footprints(
    m: int, n: int, n_threads: int, algorithm: str = "auto"
) -> list[PassFootprints]:
    """The static schedule :class:`ParallelTranspose` would execute.

    ``m``/``n`` are the row-major *view* dimensions the passes run on (the
    same view ``ParallelTranspose.c2r``/``r2c`` reshape to).
    """
    if algorithm == "auto":
        algorithm = choose_algorithm(m, n)
    dec = Decomposition.of(m, n)
    return [_chunk_rects(dec, p, n_threads) for p in schedule(dec, algorithm)]


def check_partition(total: int, parts: int) -> tuple[bool, str]:
    """Prove ``balanced_chunks(total, parts)`` tiles ``range(total)`` exactly:
    contiguous, gap-free, non-empty, sizes differing by at most one."""
    chunks = balanced_chunks(total, parts)
    pos = 0
    sizes = []
    for ch in chunks:
        if ch.start != pos:
            return False, f"gap/overlap at {pos}: chunk starts at {ch.start}"
        if ch.stop <= ch.start:
            return False, f"empty or inverted chunk {ch}"
        sizes.append(ch.stop - ch.start)
        pos = ch.stop
    if pos != total:
        return False, f"chunks end at {pos}, not {total}"
    if len(chunks) > max(parts, 0):
        return False, f"{len(chunks)} chunks exceed parts={parts}"
    if sizes and max(sizes) - min(sizes) > 1:
        return False, f"imbalanced sizes {min(sizes)}..{max(sizes)}"
    return True, f"{len(chunks)} chunks tile range({total})"


@dataclass
class RaceReport:
    """Disjointness/coverage verdict for one ``(m, n, n_threads)`` schedule."""

    m: int
    n: int
    n_threads: int
    algorithm: str
    passes: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "n_threads": self.n_threads,
            "algorithm": self.algorithm,
            "passes": self.passes,
            "ok": self.ok,
            "failures": self.failures,
        }


def _prove_rects(p: PassFootprints, m: int, n: int) -> list[str]:
    """The rectangle side of the race proof for one pass: write rectangles
    pairwise disjoint, covering the whole matrix, reads self-contained.

    Chunks are contiguous along one axis, so sorting is unnecessary:
    pairwise disjointness would reduce to adjacent-interval checks, but the
    explicit rectangle test keeps the proof independent of that observation
    (O(chunks^2) with chunks bounded by bands x threads).
    """
    failures: list[str] = []
    for x in range(len(p.chunks)):
        for y in range(x + 1, len(p.chunks)):
            if p.chunks[x].writes.intersects(p.chunks[y].writes):
                failures.append(
                    f"{p.name}: write overlap between {p.chunks[x].label} "
                    f"and {p.chunks[y].label}"
                )
    covered = sum(ch.writes.area for ch in p.chunks)
    full = Rect(0, m, 0, n)
    if covered != m * n or not all(full.contains(ch.writes) for ch in p.chunks):
        failures.append(f"{p.name}: writes cover {covered} of {m * n} elements")
    for ch in p.chunks:
        if not ch.writes.contains(ch.reads):
            failures.append(
                f"{p.name}: {ch.label} reads outside its write rectangle"
            )
    return failures


def check_schedule(
    m: int, n: int, n_threads: int, algorithm: str = "auto"
) -> RaceReport:
    """Prove the parallel schedule for ``(m, n, n_threads)`` is race-free.

    Per pass: chunks tile the iteration range, write rectangles are pairwise
    disjoint and cover the full matrix, and reads stay within the writing
    chunk's own rectangle.
    """
    if algorithm == "auto":
        algorithm = choose_algorithm(m, n)
    report = RaceReport(m=m, n=n, n_threads=n_threads, algorithm=algorithm)
    for p in schedule_footprints(m, n, n_threads, algorithm):
        report.passes += 1
        ok, detail = check_partition(p.total, n_threads)
        if not ok:
            report.failures.append(f"{p.name}: partition: {detail}")
        report.failures.extend(_prove_rects(p, m, n))
    return report


# ---------------------------------------------------------------------------
# Multiprocess shared-memory schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MpTaskDescriptor:
    """One worker-process task exactly as ``MpTranspose._run_pass`` ships it:
    ``(segment, vm, vn, pass name, lo, hi)`` — the picklable fields that
    determine which elements of the shared segment the process touches."""

    segment: str
    vm: int
    vn: int
    pass_name: str
    lo: int
    hi: int


def mp_schedule_footprints(
    m: int, n: int, n_workers: int, algorithm: str = "auto", *,
    segment: str = "shm"
) -> list[tuple[PassFootprints, tuple[MpTaskDescriptor, ...]]]:
    """The static schedule :class:`~repro.parallel.mp.MpTranspose` would run.

    Reconstructs the task descriptors ``_run_pass`` builds — one
    ``balanced_chunks(extent, n_workers)`` sub-range per worker, all naming
    the same shared segment and the same ``(vm, vn)`` view — alongside the
    element footprints those descriptors induce on the segment.
    """
    if algorithm == "auto":
        algorithm = choose_algorithm(m, n)
    dec = Decomposition.of(m, n)
    out = []
    for p in schedule(dec, algorithm):
        descriptors = tuple(
            MpTaskDescriptor(segment, m, n, p.name, ch.start, ch.stop)
            for ch in balanced_chunks(p.extent, n_workers)
        )
        out.append((_chunk_rects(dec, p, n_workers), descriptors))
    return out


def check_mp_schedule(
    m: int, n: int, n_workers: int, algorithm: str = "auto"
) -> RaceReport:
    """Prove the multiprocess shared-memory schedule is race-free.

    The mp backend has no shared Python state between workers — every task
    reopens the named segment and slices it by descriptor — so the proof
    obligations are the thread proof *plus* descriptor consistency: every
    task in a pass must name the same segment and the same ``(vm, vn)``
    view (a task with a stale view would reinterpret the buffer with the
    wrong stride), and the descriptor sub-ranges must be exactly the chunk
    intervals the footprint proof covers.  Pass barriers are inherited from
    ``MpExecutor.run_chunks`` blocking until every task returns.
    """
    if algorithm == "auto":
        algorithm = choose_algorithm(m, n)
    report = RaceReport(m=m, n=n, n_threads=n_workers, algorithm=algorithm)
    expected_order = [
        p.name for p in schedule(Decomposition.of(m, n), algorithm)
    ]
    seen_order = []
    for p, descriptors in mp_schedule_footprints(m, n, n_workers, algorithm):
        report.passes += 1
        seen_order.append(p.name)
        ok, detail = check_partition(p.total, n_workers)
        if not ok:
            report.failures.append(f"{p.name}: partition: {detail}")
        segments = {d.segment for d in descriptors}
        views = {(d.vm, d.vn) for d in descriptors}
        if len(segments) != 1:
            report.failures.append(
                f"{p.name}: tasks target {len(segments)} distinct segments"
            )
        if views != {(m, n)}:
            report.failures.append(
                f"{p.name}: task views {sorted(views)} != [({m}, {n})]"
            )
        if any(d.pass_name != p.name for d in descriptors):
            report.failures.append(f"{p.name}: descriptor pass-name mismatch")
        ranges = [(d.lo, d.hi) for d in descriptors]
        expected = [
            (ch.start, ch.stop) for ch in balanced_chunks(p.total, n_workers)
        ]
        if ranges != expected:
            report.failures.append(
                f"{p.name}: descriptor ranges {ranges} != chunks {expected}"
            )
        report.failures.extend(_prove_rects(p, m, n))
    if seen_order != expected_order:
        report.failures.append(
            f"pass order {seen_order} != barrier order {expected_order}"
        )
    return report


# ---------------------------------------------------------------------------
# Banded (sub-range) schedules for out-of-core execution
# ---------------------------------------------------------------------------

def banded_footprints(
    m: int, n: int, n_bands: int, n_threads: int, algorithm: str = "auto"
) -> list[PassFootprints]:
    """Footprints for band-by-band execution with a bounded resident window.

    Out-of-core execution splits each pass's iteration range into
    ``n_bands`` sequential bands (only one band's rows/columns need be
    resident) and runs ``n_threads`` chunks inside each band.  The chunk
    labels carry band provenance so failures name the offending band.
    """
    if algorithm == "auto":
        algorithm = choose_algorithm(m, n)
    dec = Decomposition.of(m, n)
    passes = []
    for p in schedule(dec, algorithm):
        chunks = []
        for bi, band in enumerate(balanced_chunks(p.extent, n_bands)):
            extent = band.stop - band.start
            for ch in balanced_chunks(extent, n_threads):
                lo = band.start + ch.start
                hi = band.start + ch.stop
                rect = Rect(*chunk_rect(dec, p, lo, hi))
                chunks.append(
                    ChunkFootprint(f"band{bi}/{p.axis}[{lo}:{hi}]", rect, rect)
                )
        passes.append(
            PassFootprints(name=p.name, total=p.extent, chunks=tuple(chunks))
        )
    return passes


@dataclass
class BandedRaceReport(RaceReport):
    """Race verdict for a banded schedule (adds the band count)."""

    n_bands: int = 1

    def as_dict(self) -> dict:
        out = super().as_dict()
        out["n_bands"] = self.n_bands
        return out


def check_banded_schedule(
    m: int, n: int, n_bands: int, n_threads: int, algorithm: str = "auto"
) -> BandedRaceReport:
    """Prove a banded (sub-range) schedule safe for out-of-core execution.

    Per pass: the bands tile the iteration range, each band's thread chunks
    tile the band, and — across *all* bands together — the write rectangles
    are pairwise disjoint, cover the whole matrix, and every chunk's reads
    stay inside its own rectangle.  Cross-band disjointness is what lets a
    band be flushed to backing store before the next band is faulted in:
    no later chunk can touch a flushed band's elements within the pass.
    """
    if algorithm == "auto":
        algorithm = choose_algorithm(m, n)
    report = BandedRaceReport(
        m=m, n=n, n_threads=n_threads, algorithm=algorithm, n_bands=n_bands
    )
    for p in banded_footprints(m, n, n_bands, n_threads, algorithm):
        report.passes += 1
        ok, detail = check_partition(p.total, n_bands)
        if not ok:
            report.failures.append(f"{p.name}: band partition: {detail}")
        for band in balanced_chunks(p.total, n_bands):
            ok, detail = check_partition(band.stop - band.start, n_threads)
            if not ok:
                report.failures.append(
                    f"{p.name}: band [{band.start}:{band.stop}] "
                    f"chunk partition: {detail}"
                )
        report.failures.extend(_prove_rects(p, m, n))
    return report


# ---------------------------------------------------------------------------
# Shadow-memory sanitizer
# ---------------------------------------------------------------------------

class SanitizerError(RuntimeError):
    """A shadow-memory invariant violation, with pass/index provenance."""

    def __init__(self, kind: str, pass_name: str, where: str, indices: np.ndarray):
        self.kind = kind
        self.pass_name = pass_name
        self.where = where
        self.indices = np.asarray(indices)[:8]
        sample = ", ".join(str(int(v)) for v in self.indices)
        super().__init__(
            f"{kind} in pass {pass_name!r}"
            + (f" ({where})" if where else "")
            + f": flat indices [{sample}]"
            + ("..." if np.asarray(indices).size > 8 else "")
        )


class _PassShadow:
    """Per-pass write counters over a flat buffer of ``size`` elements."""

    __slots__ = ("name", "size", "full_coverage", "writes")

    def __init__(self, name: str, size: int, full_coverage: bool):
        self.name = name
        self.size = size
        self.full_coverage = full_coverage
        self.writes = np.zeros(size, dtype=np.int64)


class Sanitizer:
    """Tracks one executing pass at a time across all worker threads.

    Hooks in the plan executor and the parallel transposer call
    :meth:`record` with the flat indices each chunk is about to read and
    write (reads recorded before the chunk's own writes, mirroring gather
    semantics).  Violations raise immediately in the offending thread so the
    executor's barrier propagates them to the caller.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._lock = threading.Lock()
        # Serializes whole passes: concurrent plan executions from separate
        # user threads take turns, TSAN-style, instead of sharing one shadow.
        # Reentrant so a same-thread nested scope fails loudly, not deadlocks.
        self._exec_lock = threading.RLock()
        self._shadow: _PassShadow | None = None
        self.passes_checked = 0
        self.elements_checked = 0

    # -- lifecycle -----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    @contextmanager
    def pass_scope(self, name: str, size: int, *, full_coverage: bool = True):
        """Scope one pass: zero the shadow, collect records, check coverage.

        ``full_coverage=False`` relaxes the exactly-once check to at-most-once
        (rotation passes legitimately skip zero-shift column groups).  Worker
        threads record into the scope; whole passes from *different* user
        threads serialize on an execution lock.
        """
        self._exec_lock.acquire()
        if self._shadow is not None:
            held = self._shadow.name
            self._exec_lock.release()
            raise SanitizerError(
                "nested pass", name, f"inside {held!r}", np.empty(0, dtype=np.int64)
            )
        with self._lock:
            self._shadow = _PassShadow(name, size, full_coverage)
        try:
            yield self
            shadow = self._shadow
            if shadow is not None and shadow.full_coverage:
                missed = np.flatnonzero(shadow.writes == 0)
                if missed.size:
                    raise SanitizerError("missed write", name, "pass end", missed)
        finally:
            with self._lock:
                self._shadow = None
            self._exec_lock.release()
        self.passes_checked += 1
        self.elements_checked += size

    def record(
        self,
        *,
        reads: np.ndarray | None = None,
        writes: np.ndarray | None = None,
        where: str = "",
    ) -> None:
        """Record one chunk's accesses, in execution order (reads first)."""
        with self._lock:
            shadow = self._shadow
            if shadow is None:
                return  # hooks outside a pass scope are inert
            if reads is not None:
                r = np.asarray(reads, dtype=np.int64).ravel()
                if r.size and (r.min() < 0 or r.max() >= shadow.size):
                    oob = r[(r < 0) | (r >= shadow.size)]
                    raise SanitizerError("out-of-bounds read", shadow.name, where, oob)
                clobbered = r[shadow.writes[r] != 0]
                if clobbered.size:
                    raise SanitizerError(
                        "read-after-clobber", shadow.name, where, clobbered
                    )
            if writes is not None:
                w = np.asarray(writes, dtype=np.int64).ravel()
                if w.size and (w.min() < 0 or w.max() >= shadow.size):
                    oob = w[(w < 0) | (w >= shadow.size)]
                    raise SanitizerError("out-of-bounds write", shadow.name, where, oob)
                shadow.writes += np.bincount(w, minlength=shadow.size)
                doubled = np.flatnonzero(shadow.writes > 1)
                if doubled.size:
                    raise SanitizerError("double write", shadow.name, where, doubled)

    def stats(self) -> dict:
        return {
            "enabled": self.enabled,
            "passes_checked": self.passes_checked,
            "elements_checked": self.elements_checked,
        }


#: The process-wide sanitizer consulted by the execution hooks.
#: ``REPRO_SANITIZE=1`` in the environment starts it enabled.
sanitizer = Sanitizer(enabled=os.environ.get("REPRO_SANITIZE", "0") not in ("0", ""))


def enable() -> None:
    sanitizer.enable()


def disable() -> None:
    sanitizer.disable()


def is_enabled() -> bool:
    return sanitizer.enabled
