"""A thread-safe, process-wide LRU cache of transpose plans.

Section 4's cost analysis shows that materializing the gather maps
(``d'^{-1}``/``s'``) costs about as much as one pass over the data — so a
workload that transposes the same shape repeatedly (AoS/SoA conversion,
batched FFT-style pipelines, attention-head reshapes) pays the planning tax
on every call unless something amortizes it.  This module is that something:
a process-wide LRU keyed by

    ``(m, n, order, algorithm, dtype)``

mapping to :class:`~repro.core.plan.TransposePlan` objects — one entry per
shape, whatever batch sizes it is executed with.  Plans are safe to execute
from any number of threads concurrently (see ``tests/test_concurrency.py``).

A plan's own state is ``O(1)``; what it acquires later is charged to its
entry through :func:`charge` / :meth:`PlanCache.adjust_bytes`: the numpy
gather maps its first numpy execute builds, and the native backend's
compiled ``.so`` files.  The cache enforces a configurable **byte budget**
over those charges (default 256 MiB, env ``REPRO_PLAN_CACHE_BYTES``):
least-recently-used plans are evicted once the budget is exceeded, and an
entry that outgrows the whole budget on its own is dropped rather than
flushing every other entry.  At most :data:`MAX_ENTRIES` plans are retained,
so a stream of distinct shapes cannot grow the cache without bound.  The
cache can be disabled entirely with :func:`configure` or
``REPRO_PLAN_CACHE=0``.

Retained plans are stamped with a ``_plan_cache_binding`` back-reference
(removed again on eviction) so those charges find their entry.  Eviction
(LRU, budget shrink, or :meth:`PlanCache.clear`) invokes the plan's
``on_cache_evict`` hook outside the lock, which drops the maps and releases
the artifacts.

Hit/miss/eviction counts are part of :func:`repro.runtime.metrics.snapshot`.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from time import perf_counter

from ..trace.events import event_log
from ..trace.spans import tracer

__all__ = [
    "PlanKey",
    "PlanCache",
    "DEFAULT_MAX_BYTES",
    "get_plan_cache",
    "configure",
    "clear",
    "stats",
    "get_single_plan",
    "get_batched_plan",
    "charge",
]

DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: most plans retained at once: plans are O(1) until something is charged
#: to them, so the byte budget alone would not bound their count
MAX_ENTRIES = 4096


@dataclass(frozen=True)
class PlanKey:
    """The identity of a cached plan.

    A batch is a leading extent of one plan, so the batch size is not part
    of the key.  ``dtype`` is: it keeps hit/miss accounting meaningful per
    workload and selects the native kernel's element width.  ``algorithm``
    is stored post-heuristic (never ``"auto"``) so explicit and heuristic
    requests share entries.
    """

    m: int
    n: int
    order: str
    algorithm: str
    dtype: str


class PlanCache:
    """LRU plan cache with a byte budget and hit/miss/eviction statistics.

    A single reentrant lock guards the map and the counters.  Plan
    *construction* happens outside the lock so a slow factory never
    serializes unrelated shapes; the cost is that two threads racing on the
    same cold key may both build, with one build discarded (counted under
    ``races``).
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES, enabled: bool = True):
        self._lock = threading.RLock()
        self._plans: OrderedDict[PlanKey, tuple[object, int]] = OrderedDict()
        self.max_bytes = int(max_bytes)
        self.enabled = enabled
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.races = 0
        self.oversize_rejects = 0
        self.build_seconds = 0.0

    # -- lookup ----------------------------------------------------------------

    def get_or_build(self, key: PlanKey, factory, size_of) -> object:
        """Return the cached plan for ``key``, building it on a miss.

        ``factory`` builds the plan; ``size_of`` maps a plan to its resident
        byte footprint (used against the budget).  When the cache is
        disabled the factory result is returned without being retained and
        no statistics move.
        """
        if not self.enabled:
            return factory()
        with self._lock:
            entry = self._plans.get(key)
            if entry is not None:
                self._plans.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        # Trace events fire outside the lock: the tracer is a leaf subsystem
        # and must never extend the cache's critical section.
        if entry is not None:
            if tracer.enabled:
                tracer.event("cache.hit", **asdict(key))
            return entry[0]
        if tracer.enabled:
            tracer.event("cache.miss", **asdict(key))
        t0 = perf_counter()
        plan = factory()
        dt = perf_counter() - t0
        nbytes = int(size_of(plan))
        evicted: list[tuple[PlanKey, object, int]] = []
        with self._lock:
            self.build_seconds += dt
            if key in self._plans:
                # Another thread built and inserted while we were building;
                # keep theirs (it is already shared) and drop ours.
                self.races += 1
                self._plans.move_to_end(key)
                return self._plans[key][0]
            if nbytes > self.max_bytes:
                self.oversize_rejects += 1
                return plan
            # The binding lets what the plan acquires later (numpy maps,
            # native kernel .so files) charge its size to this entry.
            plan.__dict__["_plan_cache_binding"] = (self, key)
            self._plans[key] = (plan, nbytes)
            self.current_bytes += nbytes
            while len(self._plans) > 1 and (
                self.current_bytes > self.max_bytes
                or len(self._plans) > MAX_ENTRIES
            ):
                evicted.append(self._evict_locked(next(iter(self._plans))))
        self._fire_evictions(evicted)
        return plan

    def _evict_locked(
        self, key: PlanKey, *, oversize: bool = False
    ) -> tuple[PlanKey, object, int]:
        """Drop ``key`` (an LRU eviction, or an entry that outgrew the
        whole budget); the caller fires its hook after releasing the lock.
        Callers already hold the (reentrant) lock."""
        with self._lock:
            plan, nbytes = self._plans.pop(key)
            plan.__dict__.pop("_plan_cache_binding", None)
            self.current_bytes -= nbytes
            if oversize:
                self.oversize_rejects += 1
            else:
                self.evictions += 1
        return key, plan, nbytes

    def _fire_evictions(
        self, evicted: list[tuple[PlanKey, object, int]]
    ) -> None:
        """Trace events and per-plan eviction hooks, strictly outside the
        lock: hooks re-enter subsystems (artifact unlink, tracing) that must
        never extend the cache's critical section."""
        if not evicted:
            return
        for ekey, eplan, ebytes in evicted:
            if tracer.enabled:
                tracer.event("cache.evict", bytes=ebytes, **asdict(ekey))
            if event_log.enabled:
                # Attributed to whichever request's plan build triggered
                # the eviction ("" outside a traced request).
                event_log.emit(
                    "evict", trace_id=tracer.current_trace_id(),
                    bytes=ebytes, **asdict(ekey),
                )
            hook = getattr(eplan, "on_cache_evict", None)
            if hook is not None:
                hook()

    def adjust_bytes(self, key: PlanKey, delta: int) -> None:
        """Re-account ``key``'s entry by ``delta`` bytes.

        Used when a retained plan's resident footprint changes after
        insertion — its numpy gather maps and each compiled ``.so`` are
        charged here, so they live under the cache's budget.  Unknown keys
        are ignored (the plan was evicted meanwhile, never retained, or the
        cache is disabled).  An entry that now exceeds the whole budget is
        dropped on its own (counted under ``oversize_rejects``); otherwise
        growth runs the normal LRU eviction loop and may, at the margin,
        evict the adjusted entry itself.
        """
        evicted: list[tuple[PlanKey, object, int]] = []
        with self._lock:
            entry = self._plans.get(key)
            if entry is None:
                return
            plan, nbytes = entry
            new_bytes = max(0, nbytes + int(delta))
            self._plans[key] = (plan, new_bytes)
            self.current_bytes += new_bytes - nbytes
            if new_bytes > self.max_bytes:
                evicted.append(self._evict_locked(key, oversize=True))
            while self.current_bytes > self.max_bytes and len(self._plans) > 1:
                evicted.append(self._evict_locked(next(iter(self._plans))))
        self._fire_evictions(evicted)

    # -- management ------------------------------------------------------------

    def clear(self) -> None:
        """Drop every cached plan (statistics are retained).

        Eviction hooks fire for each dropped plan so side artifacts are
        released; no ``cache.evict`` trace events or eviction counts are
        recorded — clearing is an explicit management action, not budget
        pressure.
        """
        with self._lock:
            dropped = [plan for plan, _ in self._plans.values()]
            for plan in dropped:
                plan.__dict__.pop("_plan_cache_binding", None)
            self._plans.clear()
            self.current_bytes = 0
        for plan in dropped:
            hook = getattr(plan, "on_cache_evict", None)
            if hook is not None:
                hook()

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = self.misses = self.evictions = 0
            self.races = self.oversize_rejects = 0
            self.build_seconds = 0.0

    def configure(
        self, *, max_bytes: int | None = None, enabled: bool | None = None
    ) -> None:
        """Adjust the byte budget and/or the opt-out flag.

        Shrinking the budget evicts immediately; disabling keeps existing
        entries resident (call :meth:`clear` to release them).
        """
        evicted: list[tuple[PlanKey, object, int]] = []
        with self._lock:
            if enabled is not None:
                self.enabled = bool(enabled)
            if max_bytes is not None:
                self.max_bytes = int(max_bytes)
                while self.current_bytes > self.max_bytes and self._plans:
                    evicted.append(self._evict_locked(next(iter(self._plans))))
        self._fire_evictions(evicted)

    def stats(self) -> dict:
        """A JSON-able statistics snapshot."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "enabled": self.enabled,
                "entries": len(self._plans),
                "current_bytes": self.current_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "evictions": self.evictions,
                "races": self.races,
                "oversize_rejects": self.oversize_rejects,
                "build_seconds": self.build_seconds,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: PlanKey) -> bool:
        with self._lock:
            return key in self._plans


#: The process-wide cache used by ``transpose_inplace`` and friends.
_GLOBAL = PlanCache(
    max_bytes=int(os.environ.get("REPRO_PLAN_CACHE_BYTES", DEFAULT_MAX_BYTES)),
    enabled=os.environ.get("REPRO_PLAN_CACHE", "1") != "0",
)


def get_plan_cache() -> PlanCache:
    return _GLOBAL


def configure(*, max_bytes: int | None = None, enabled: bool | None = None) -> None:
    _GLOBAL.configure(max_bytes=max_bytes, enabled=enabled)


def clear() -> None:
    _GLOBAL.clear()


def stats() -> dict:
    return _GLOBAL.stats()


# -- entry-point helpers --------------------------------------------------------
# Core imports happen inside the functions: these run strictly after package
# initialization, so the core <-> runtime import graph stays acyclic.


def charge(plan, nbytes: int) -> None:
    """Charge ``nbytes`` a plan acquired after insertion (numpy maps, a
    compiled artifact) to its cache entry; a no-op for plans no cache
    retains."""
    binding = plan.__dict__.get("_plan_cache_binding")
    if binding is not None:
        cache, key = binding
        cache.adjust_bytes(key, nbytes)


def get_single_plan(
    m: int, n: int, order: str, algorithm: str, dtype, *, cache: PlanCache | None = None
):
    """A (possibly cached) :class:`TransposePlan` for one matrix shape.

    ``algorithm`` may be ``"auto"``; it is resolved through the paper's
    Section 5.2 heuristic before keying.
    """
    from repro.core.plan import TransposePlan
    from repro.core.transpose import choose_algorithm

    if algorithm == "auto":
        algorithm = choose_algorithm(m, n)
    key = PlanKey(m, n, order, algorithm, str(dtype))
    target = cache if cache is not None else _GLOBAL
    return target.get_or_build(
        key,
        lambda: TransposePlan(m, n, order, algorithm),
        lambda plan: plan.scratch_bytes,
    )


def get_batched_plan(
    m: int,
    n: int,
    k: int,
    order: str,
    algorithm: str,
    dtype,
    *,
    cache: PlanCache | None = None,
):
    """The plan for ``k`` stacked matrices: the same entry as
    :func:`get_single_plan`, since a batch is a leading extent."""
    return get_single_plan(m, n, order, algorithm, dtype, cache=cache)
